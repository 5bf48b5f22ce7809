"""Independent reference computations used by the test suite.

These deliberately avoid the library's solver code paths: the d=2 fitting
oracle evaluates the objective in closed form on a refined brute-force grid,
with the phase of the off-diagonal generator minimized analytically (for
fixed (u0, |u1|) the objective is sinusoidal in that phase).  The one
exception is the tight-tolerance qspa reference, whose accuracy rests on the
barrier's duality-gap bound rather than on the path the solver takes.  The
quantizer and sampler references are the library's earlier whole-array
formulations, kept to hold its in-place kernels to the same bits.
"""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np

from qtcov import qspa, rng
from qtcov.sampling import _psd_factor


def fitting_objective_d2(Rhat, u0, u1):
    """Closed-form tr(Rhat^-1 A) + tr(A^-1 Rhat) for A = [[u0, u1], [u1*, u0]]."""
    Rinv = np.linalg.inv(Rhat)
    det = u0 ** 2 - abs(u1) ** 2
    f1 = u0 * (Rinv[0, 0].real + Rinv[1, 1].real) + 2 * (Rinv[1, 0] * u1).real
    f2 = (u0 * (Rhat[0, 0].real + Rhat[1, 1].real) - 2 * (u1 * Rhat[1, 0]).real) / det
    return f1 + f2


def grid_oracle_d2(Rhat, c, stages=3, pts=1201):
    """Global minimum of the d=2 full-ruler fitting problem by grid refinement.

    Searches a dense (u0, |u1|) lattice (each stage re-centered on the best
    cell), with every point projected onto the feasibility cone
    u0 - c >= |u1| so active-boundary optima are seen directly.
    """
    Rinv = np.linalg.inv(Rhat)
    tr_rinv = Rinv[0, 0].real + Rinv[1, 1].real
    tr_r = Rhat[0, 0].real + Rhat[1, 1].real

    def phase_min_obj(u0, rho):
        u0 = np.maximum(u0, c + rho)
        det = u0 ** 2 - rho ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            base = u0 * tr_rinv + u0 * tr_r / det
            amp = 2.0 * rho * np.abs(Rinv[1, 0] - Rhat[1, 0] / det)
        return np.where(det > 0, base - amp, np.inf)

    # any feasible value bounds u0 at the optimum via f >= 2 u0 lmin(Rinv)
    f_ref = float(phase_min_obj(np.array(c + tr_r), np.array(0.0)))
    u0_hi = f_ref / max(2 * np.linalg.eigvalsh(Rinv)[0].real, 1e-12) + c + 1.0
    lo = np.array([c, 0.0])
    hi = np.array([u0_hi, u0_hi])
    best = np.inf
    best_pt = None
    for _ in range(stages):
        g0 = np.linspace(lo[0], hi[0], pts)
        g1 = np.linspace(lo[1], hi[1], pts)
        U0, RHO = np.meshgrid(g0, g1, indexing="ij")
        F = phase_min_obj(U0, RHO)
        k = np.unravel_index(np.argmin(F), F.shape)
        if F[k] < best:
            best = float(F[k])
            best_pt = np.array([max(U0[k], c + RHO[k]), RHO[k]])
        h = np.array([(hi[0] - lo[0]), (hi[1] - lo[1])]) / (pts - 1)
        lo = np.maximum(best_pt - 3 * h, [c, 0.0])
        hi = best_pt + 3 * h
    return best


def reference_qspa_solve(Rhat, ruler, spec, n=None):
    """qspa_solve run until its barrier parameter is below 1e-14 / (2d - 1),
    so the centered end point is within about 1e-14 (d + |ruler|) / (2d - 1)
    of the optimal objective, whatever the mu schedule."""
    with mock.patch.object(qspa, "_NEWTON_TOL", 1e-14):
        return qspa.qspa_solve(Rhat, ruler, spec, n=n)


def wishart_rhat(rng, m, n):
    """Random positive definite sample covariance with the z z^H convention."""
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return X.T @ X.conj() / n


def lag_bases(ruler):
    """Hermitian direction matrices dA/dv_a on the ruler block, shape (2d-1, m, m).

    v = (u_0, Re u_1, Im u_1, ..., Re u_{d-1}, Im u_{d-1}) are the real
    generator coordinates of the Toeplitz solver.
    """
    d, m = ruler.dim, ruler.size
    E = np.zeros((2 * d - 1, m, m), dtype=np.complex128)
    E[0] = np.eye(m)
    for s in range(1, d):
        sel = ruler.pair_lags == s
        P = np.zeros((m, m))
        P[ruler.pair_rows[sel], ruler.pair_cols[sel]] = 1.0
        E[2 * s - 1] = P + P.T
        E[2 * s] = 1j * (P - P.T)
    return E


def pairwise_traces(X, Y):
    """Re tr(X_a Y_b) for stacks of matrices, as one matrix product."""
    p, m, _ = X.shape
    Xf = X.reshape(p, m * m)
    Yf = Y.transpose(0, 2, 1).reshape(p, m * m)
    return (Xf @ Yf.T).real


def stacked_lag_hessian(terms):
    """H[a, b] = Re sum over (X, Y, ruler) in terms of tr(X E_a Y E_b), with
    the direction matrices E_a of each ruler block materialized as a stack."""
    H = 0.0
    for X, Y, ruler in terms:
        E = lag_bases(ruler)
        H = H + pairwise_traces(X[None] @ E, Y[None] @ E)
    return H


def quantize_uniform(x, delta):
    """The scalar quantizer written with whole-array temporaries, as the
    library computed it before its in-place plane kernel."""
    if delta == 0:
        return x
    return delta * (np.floor(x / delta) + 0.5)


def quantize_kbit(x, delta, k):
    """The k-bit quantizer as the library computed it with np.where."""
    half = 2 ** (k - 1)
    out = np.asarray(quantize_uniform(np.asarray(x, dtype=float), delta))
    out = np.where(np.asarray(x) >= (half - 1) * delta, (half + 0.5) * delta, out)
    out = np.where(np.asarray(x) < (1 - half) * delta, -(half + 0.5) * delta, out)
    return out if np.ndim(x) else float(out)


def quantize_complex(z, spec, dither):
    """Infinite-level dithered quantization, planes split and joined by a + 1j*b."""
    zr = np.real(z) + np.real(dither)
    zi = np.imag(z) + np.imag(dither)
    return quantize_uniform(zr, spec.delta_r) + 1j * quantize_uniform(zi, spec.delta_i)


def quantize_complex_2kbit(z, delta, k, dither):
    """2k-bit dithered quantization, planes split and joined by a + 1j*b."""
    zr = np.real(z) + np.real(dither)
    zi = np.imag(z) + np.imag(dither)
    return quantize_kbit(zr, delta, k) + 1j * quantize_kbit(zi, delta, k)


def redrawn_quantize(raw, spec, seed):
    """Quantized data with the dither drawn for this one level and built as a
    complex array, as the runner did before the level-free unit pair was
    shared across levels."""
    u = rng.stream(seed, rng.DITHER).random((4,) + raw.data.shape) - 0.5
    tau = spec.delta_r * (u[0] + u[1]) + 1j * spec.delta_i * (u[2] + u[3])
    if spec.bits_k is not None:
        return quantize_complex_2kbit(raw.data, spec.delta_r, spec.bits_k, tau)
    return quantize_complex(raw.data, spec, tau)


def complex_gaussian_draw(T, ruler, n, seed):
    """The raw data of sample_complex_gaussian from two separate normal draws
    joined by a + 1j*b, then the ruler columns copied out."""
    gen = rng.stream(seed, rng.GAUSS)
    w = gen.standard_normal((n, T.dim)) + 1j * gen.standard_normal((n, T.dim))
    w *= np.sqrt(0.5)
    z = w @ _psd_factor(T).T
    return z[:, ruler.positions]


def music_noise_subspace(T_est, K):
    """Eigenvectors of the d - K smallest eigenvalues of the estimate."""
    M = T_est.dense if hasattr(T_est, "dense") else np.asarray(T_est)
    _, vec = np.linalg.eigh(M)
    return vec[:, :M.shape[0] - K]


def music_direct_grid(En, grid_size):
    """1 / sum |E_n^H a(theta_j)|^2 from the d x grid_size steering matrix."""
    theta = np.arange(grid_size) / grid_size
    A = np.exp(2j * np.pi * np.outer(np.arange(En.shape[0]), theta))
    denom = np.sum(np.abs(En.conj().T @ A) ** 2, axis=0)
    return 1.0 / denom


def music_direct_derivatives(En, theta):
    """(D, D', D'') of D(theta) = sum |E_n^H a(theta)|^2 at each theta, from
    the steering vectors and their derivatives."""
    lags = 2j * np.pi * np.arange(En.shape[0])[:, None]
    A = np.exp(lags * np.atleast_1d(theta))
    b, b1, b2 = (En.conj().T @ (lags ** r * A) for r in range(3))
    return (np.sum(np.abs(b) ** 2, axis=0), 2 * np.sum((b.conj() * b1).real, axis=0),
            2 * np.sum(np.abs(b1) ** 2 + (b.conj() * b2).real, axis=0))


def golden_refine(fun, lo, hi, iters=60):
    """Golden-section maximization of fun on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    return 0.5 * (a + b)


def music_direct_estimate(T_est, K, grid_size):
    """MUSIC as the library computed it with a steering matrix and scalar
    golden-section refinement: (resolved, chosen grid indices, freqs sorted)."""
    En = music_noise_subspace(T_est, K)
    spectrum = music_direct_grid(En, grid_size)
    d = En.shape[0]

    left = np.roll(spectrum, 1)
    right = np.roll(spectrum, -1)
    floor = 1e-9 * spectrum
    peaks = np.flatnonzero((spectrum > left + floor) & (spectrum > right + floor))
    order = peaks[np.argsort(spectrum[peaks])[::-1]]
    chosen = list(order[:K])
    resolved = len(chosen) == K
    if not resolved:
        rest = np.argsort(spectrum)[::-1]
        for j in rest:
            if len(chosen) == K:
                break
            if j not in chosen:
                chosen.append(int(j))

    EnH = En.conj().T

    def pseudo(theta):
        a = np.exp(2j * np.pi * theta * np.arange(d))
        return 1.0 / np.sum(np.abs(EnH @ a) ** 2)

    cell = 1.0 / grid_size
    freqs = np.array([golden_refine(pseudo, j * cell - cell, j * cell + cell) % 1.0
                      for j in chosen])
    return resolved, np.array(chosen), np.sort(freqs)


def exact_circular_distance(a, b):
    """The circular distance min(r, 1 - r), r = (a - b) mod 1, of two floats
    in exact rational arithmetic."""
    r = (Fraction(a) - Fraction(b)) % 1
    return min(r, 1 - r)


def brute_force_frequency_mse(estimates, truth):
    """Least mean squared circular distance over all K! matchings; each cost
    is exact until it is rounded once to a float."""
    cost = np.array([[float(exact_circular_distance(a, b) ** 2) for b in truth]
                     for a in estimates])
    perms = np.array(list(itertools.permutations(range(len(estimates)))))
    return cost[np.arange(len(estimates)), perms].mean(axis=1).min()
