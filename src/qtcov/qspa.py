"""Covariance fitting over Toeplitz generators with a shifted-PSD constraint.

Given the sample covariance Rhat of quantized observations on a ruler, the
estimator solves

    minimize   tr(Rhat^-1 A(u)) + tr(A(u)^-1 Rhat)
    subject to T(u) - (||Delta||^2/4) I_d  positive semidefinite,

where T(u) is the d x d Hermitian Toeplitz matrix with generators u and A(u)
is its restriction to the ruler coordinates.  The constraint absorbs the
additive quantization bias, so the final estimate is
T_breve = T(u) - (||Delta||^2/4) I.

The problem is convex and admits a semidefinite-program lifting (replace
tr(A^-1 Rhat) by tr(U) under the Schur-complement constraint
[[U, Rhat^(1/2)], [Rhat^(1/2), A]] >= 0).  Instead of handing that SDP to an
external solver, this module minimizes directly over the 2d-1 real generator
coordinates with a path-following log barrier

    f(u) - mu log det(T(u) - (||Delta||^2/4) I) - mu log det A(u)

using damped Newton steps; mu shrinks geometrically.  Each point is factored
once: the line search's Cholesky factors of A(u) and of the shifted T(u)
give the barrier value there, and those of the accepted point also give the
next Newton step and the end-of-centering objective.  Gradients reduce to
per-lag sums of Hermitian weight matrices (the adjoint of the generator-to-
matrix map).  Hessian entries tr(X E_a Y E_b) over lag directions E_a depend
only on lag-shifted products of X and Y, so they come from one 2-D FFT
cross-correlation over the signed lags, in O(d^2 log d) for any ruler.

All linear algebra goes through numpy.  numpy and scipy wheels each bundle
their own OpenBLAS with its own thread pool; alternating small calls between
the two pools costs milliseconds per call where one pool takes microseconds.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasibleU, QtcovError, SingularRhat
from .rulers import full_ruler
from .toeplitz import HermitianToeplitz, toeplitz_adjoint_project


@dataclass
class QspaOptions:
    """Solver knobs; the defaults converge on all desk-scale problems."""
    epsilon_reg: Optional[float] = None  # None = automatic diagonal perturbation
    barrier_mu0: float = 1.0
    barrier_shrink: float = 0.2
    newton_tol: float = 1e-8
    max_outer: int = 40
    max_inner: int = 50


@dataclass
class QspaSolution:
    u: np.ndarray                 # solved generators of T(u) (bias included)
    objective: float              # two-trace fitting objective at u
    kkt_residual: float           # Newton-decrement stationarity residual
    iterations: int               # total Newton iterations
    T_breve: HermitianToeplitz    # bias-removed covariance estimate
    converged: bool
    trace: list = field(default_factory=list)  # (outer, mu, objective, kkt)

    def trace_csv(self):
        """Per-outer-iteration progress as CSV text."""
        lines = ["iteration,mu,objective,kkt_residual"]
        lines += [f"{it},{mu!r},{obj!r},{kkt!r}" for it, mu, obj, kkt in self.trace]
        return "\n".join(lines) + "\n"


def regularize_sample_cov(Rhat, eps):
    """Rhat + eps * I."""
    if eps < 0:
        raise QtcovError("regularization must be nonnegative")
    Rhat = np.asarray(Rhat)
    return Rhat + eps * np.eye(Rhat.shape[0])


def auto_epsilon(Rhat, n=None):
    """Diagonal perturbation for ill-conditioned sample covariances.

    Returns a positive epsilon only when the sample count is small
    (n < 2 |ruler|) or the smallest eigenvalue is negligible against the
    average diagonal; otherwise 0.
    """
    Rhat = np.asarray(Rhat)
    m = Rhat.shape[0]
    tbar = float(np.trace(Rhat).real) / m
    lmin = float(np.linalg.eigvalsh(Rhat)[0])
    if (n is not None and n < 2 * m) or lmin < 1e-10 * tbar:
        return max(0.0, 1e-8 * tbar - lmin) + 1e-10 * tbar
    return 0.0


# --- generator coordinate layout ---------------------------------------------
# v = (u_0, Re u_1, Im u_1, ..., Re u_{d-1}, Im u_{d-1}), length 2d - 1.

def _params_from_generators(u):
    u = np.asarray(u, dtype=np.complex128)
    v = np.empty(2 * u.size - 1)
    v[0] = u[0].real
    v[1::2] = u[1:].real
    v[2::2] = u[1:].imag
    return v

def _generators_from_params(v):
    d = (v.size + 1) // 2
    u = np.empty(d, dtype=np.complex128)
    u[0] = v[0]
    u[1:] = v[1::2] + 1j * v[2::2]
    return u


def _gen_table(u):
    # lookup table t[s + d - 1] = u_s (s >= 0), conj(u_{-s}) (s < 0)
    return np.concatenate([np.conj(u[:0:-1]), u])


def _lag_index_matrix(ruler):
    pos = ruler.positions
    return (pos[None, :] - pos[:, None]) + ruler.dim - 1


def _lag_sums(W, ruler):
    """h[s] = sum of W over ordered lag-s pairs (the unnormalized adjoint)."""
    vals = W[ruler.pair_rows, ruler.pair_cols]
    return (np.bincount(ruler.pair_lags, weights=vals.real, minlength=ruler.dim)
            + 1j * np.bincount(ruler.pair_lags, weights=vals.imag, minlength=ruler.dim))


def _grad_from_lag_sums(h):
    g = np.empty(2 * h.size - 1)
    g[0] = h[0].real
    g[1::2] = 2.0 * h[1:].real
    g[2::2] = 2.0 * h[1:].imag
    return g


def _lag_hessian(terms):
    """H[a, b] = Re sum over (X, Y, ruler) in terms of tr(X E_a Y E_b).

    E_a = dA/dv_a is the direction matrix of generator coordinate a on the
    ruler block.  With F_l the signed-lag indicator (F_l[j, k] = 1 iff
    k - j = l), E_0 = F_0, E(Re u_s) = F_s + F_-s, E(Im u_s) = i F_s - i F_-s,
    and K[l, l'] = tr(X F_l Y F_l') = sum_{p, j} X[p, j] Y[j + l, p - l']
    over the d x d embedding, a 2-D cross-correlation of X with Y^T.  All
    terms share one inverse FFT.
    """
    d = terms[0][2].dim
    # 2d - 1 signed lags per axis fit without wrap-around; 2d is a faster FFT
    # length (2d - 1 is prime for d = 16 and d = 64)
    n = 2 * d
    spectrum = 0.0
    for X, Y, ruler in terms:
        pos = np.ix_(ruler.positions, ruler.positions)
        Xe = np.zeros((n, n), dtype=np.complex128)
        Ze = np.zeros((n, n), dtype=np.complex128)
        Xe[pos] = X
        Ze[pos] = Y.T
        spectrum = spectrum + np.fft.ifft2(Xe, norm="forward") * np.fft.fft2(Ze)
    # C[r, c] = sum_{p, j} X[p, j] Y^T[p + r, j + c], signed shifts taken mod n
    C = np.fft.ifft2(spectrum)
    # coefficients of each E_a over signed lags l, column l mod n
    s = np.arange(1, d)
    coef = np.zeros((2 * d - 1, n), dtype=np.complex128)
    coef[0, 0] = 1.0
    coef[2 * s - 1, s] = coef[2 * s - 1, n - s] = 1.0
    coef[2 * s, s] = 1j
    coef[2 * s, n - s] = -1j
    # K[l, l'] = C[-l', l]; the coefficients of lag -l' are conj(coef[:, l'])
    return (coef.conj() @ C @ coef.T).real.T


def _try_chol(M):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _chol_inverse(L):
    Linv = np.linalg.inv(L)
    return Linv.conj().T @ Linv


def _chol_logdet(L):
    return 2.0 * float(np.sum(np.log(np.diag(L).real)))


@dataclass(frozen=True)
class _Point:
    """One feasible point of the barrier problem, factored once."""
    v: np.ndarray        # generator coordinates
    objective: float     # two-trace fitting objective f(u)
    logdet: float        # log det(T(u) - cI) + log det A(u)
    Ainv: np.ndarray     # A(u)^-1
    LB: np.ndarray       # Cholesky factor of T(u) - cI

    def barrier(self, mu):
        return self.objective - mu * self.logdet


class _BarrierProblem:
    """Barrier objective, gradient and Hessian in generator coordinates."""

    def __init__(self, Rhat, ruler, c):
        Rhat = np.asarray(Rhat, dtype=np.complex128)
        m = ruler.size
        if Rhat.shape != (m, m):
            raise QtcovError(f"Rhat shape {Rhat.shape} does not match |ruler| = {m}")
        cholR = _try_chol(Rhat)
        if cholR is None:
            raise SingularRhat("sample covariance is not positive definite; "
                               "apply regularize_sample_cov first")
        self.Rhat = Rhat
        self.Rinv = _chol_inverse(cholR)
        self.ruler = ruler
        self.full = full_ruler(ruler.dim)
        self.c = float(c)
        self.block_idx = _lag_index_matrix(ruler)
        self.full_idx = _lag_index_matrix(self.full)

    def block(self, u):
        return _gen_table(u)[self.block_idx]

    def shifted_full(self, u):
        d = self.full.dim
        return _gen_table(u)[self.full_idx] - self.c * np.eye(d)

    def _two_trace(self, A, LA):
        """tr(Rhat^-1 A) + tr(A^-1 Rhat) and A^-1, from the Cholesky factor LA of A."""
        Ainv = _chol_inverse(LA)
        f1 = float(np.sum(self.Rinv * A.T).real)
        f2 = float(np.sum(Ainv * self.Rhat.T).real)
        return f1 + f2, Ainv

    def objective(self, v):
        """The two-trace fitting objective f(u), or None if A(u) is not
        positive definite."""
        A = self.block(_generators_from_params(v))
        LA = _try_chol(A)
        return None if LA is None else self._two_trace(A, LA)[0]

    def evaluate(self, v):
        """The _Point at v, or None if v is infeasible."""
        u = _generators_from_params(v)
        A = self.block(u)
        LA = _try_chol(A)
        if LA is None:
            return None
        LB = _try_chol(self.shifted_full(u))
        if LB is None:
            return None
        objective, Ainv = self._two_trace(A, LA)
        return _Point(v, objective, _chol_logdet(LB) + _chol_logdet(LA), Ainv, LB)

    def newton_system(self, p, mu):
        """Gradient and Hessian of the barrier at the _Point p."""
        Binv = _chol_inverse(p.LB)
        S = p.Ainv @ self.Rhat @ p.Ainv
        W_block = self.Rinv - S - mu * p.Ainv
        W_full = -mu * Binv
        grad = (_grad_from_lag_sums(_lag_sums(W_block, self.ruler))
                + _grad_from_lag_sums(_lag_sums(W_full, self.full)))
        H = _lag_hessian(((2.0 * S + mu * p.Ainv, p.Ainv, self.ruler),
                          (mu * Binv, Binv, self.full)))
        return grad, 0.5 * (H + H.T)


def qspa_objective(u, Rhat, ruler, spec):
    """tr(Rhat^-1 A(u)) + tr(A(u)^-1 Rhat) for generators u.

    Raises SingularRhat if Rhat is not positive definite and InfeasibleU if
    the ruler block of T(u) is not.
    """
    prob = _BarrierProblem(Rhat, ruler, spec.lag0_bias)
    obj = prob.objective(_params_from_generators(np.asarray(u, dtype=np.complex128)))
    if obj is None:
        raise InfeasibleU("ruler block of T(u) is not positive definite")
    return obj


def _initial_point(prob, spec):
    """Generators of the bias-corrected projection estimate, lifted to feasibility."""
    gens = toeplitz_adjoint_project(prob.Rhat, prob.ruler)
    gens[0] = gens[0].real - spec.lag0_bias
    shifted = HermitianToeplitz(gens).dense - prob.c * np.eye(prob.ruler.dim)
    lmin = float(np.linalg.eigvalsh(shifted)[0])
    if lmin < 1e-6:
        gens[0] += 1e-6 - lmin
    return _params_from_generators(gens)


def _toeplitz_psd_shortcut(prob, Rhat):
    """Exact optimum when the full-ruler sample covariance is already Toeplitz PSD."""
    gens = toeplitz_adjoint_project(Rhat, prob.ruler)
    scale = max(1.0, float(np.max(np.abs(Rhat))))
    if not np.allclose(HermitianToeplitz(gens).dense, Rhat, rtol=0.0, atol=1e-13 * scale):
        return None
    if float(np.linalg.eigvalsh(Rhat)[0]) < -1e-12 * scale:
        return None
    return gens


def qspa_solve(Rhat, ruler, spec, opts=None, n=None):
    """Fit a Toeplitz covariance to the quantized sample covariance Rhat.

    Args:
        Rhat: Hermitian |ruler| x |ruler| sample covariance of quantized data.
        ruler: the observation ruler.
        spec: QuantizationSpec; its ||Delta||^2/4 sets the PSD shift.
        opts: QspaOptions.
        n: sample count behind Rhat, used only by the automatic regularization.

    Returns a QspaSolution; `converged` is False if the iteration budget ran
    out, in which case the best iterate found is returned.
    """
    opts = opts or QspaOptions()
    Rhat = np.asarray(Rhat, dtype=np.complex128)
    eps = auto_epsilon(Rhat, n) if opts.epsilon_reg is None else float(opts.epsilon_reg)
    Rwork = regularize_sample_cov(Rhat, eps) if eps > 0 else Rhat

    c = spec.lag0_bias
    prob = _BarrierProblem(Rwork, ruler, c)
    d = ruler.dim
    n_params = 2 * d - 1

    if c == 0.0 and ruler.is_full():
        gens = _toeplitz_psd_shortcut(prob, Rwork)
        if gens is not None:
            obj = prob.objective(_params_from_generators(gens))
            if obj is None:
                obj = 2.0 * ruler.size
            breve = HermitianToeplitz(gens)
            return QspaSolution(gens, obj, 0.0, 0, breve, True,
                                trace=[(0, 0.0, obj, 0.0)])

    return _barrier_iterations(prob, _initial_point(prob, spec), opts, n_params, c)


def _barrier_iterations(prob, v, opts, n_params, c):
    p = prob.evaluate(v)
    if p is None:
        raise InfeasibleU("barrier evaluated at an infeasible point")
    mu = opts.barrier_mu0
    total_newton = 0
    trace = []
    converged = False
    kkt = np.inf
    obj = np.nan
    for outer in range(opts.max_outer):
        # Center at the current mu with damped Newton steps.  The stationarity
        # residual is the Newton decrement sqrt(g^T H^-1 g): lambda^2 / 2
        # bounds the gap to the centered value and, unlike the raw gradient
        # norm, stays meaningful when an active constraint makes the barrier
        # Hessian stiff.
        for _ in range(opts.max_inner):
            val = p.barrier(mu)
            grad, H = prob.newton_system(p, mu)
            dv = _solve_newton(H, grad)
            lam2 = -float(grad @ dv)
            kkt = np.sqrt(max(lam2, 0.0))
            # Loose centering at large mu (the center is about to move anyway),
            # tight once mu is small.
            ctol = max(1e-14 * (1.0 + abs(val)), min(1e-2 * mu, 1e-9 * (1.0 + abs(val))))
            if lam2 / 2.0 <= ctol:
                break
            step = 1.0
            accepted = False
            while step > 1e-14:
                trial = prob.evaluate(p.v + step * dv)
                if trial is not None and trial.barrier(mu) <= val - 1e-4 * step * lam2:
                    p = trial
                    accepted = True
                    break
                step *= 0.5
            total_newton += 1
            if not accepted:
                break
        obj = p.objective
        trace.append((outer, mu, obj, kkt))
        if n_params * mu < opts.newton_tol and kkt < 1e-6 * (1.0 + abs(obj)):
            converged = True
            break
        mu *= opts.barrier_shrink

    u = _generators_from_params(p.v)
    breve_gens = u.copy()
    breve_gens[0] = breve_gens[0].real - c
    return QspaSolution(u, obj, kkt, total_newton,
                        HermitianToeplitz(breve_gens), converged, trace)


def _solve_newton(H, grad):
    jitter = 0.0
    scale = float(np.trace(H)) / H.shape[0]
    for _ in range(8):
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(H + jitter * np.eye(H.shape[0])))
            return -(Linv.T @ (Linv @ grad))
        except np.linalg.LinAlgError:
            jitter = max(2.0 * jitter, 1e-12 * max(scale, 1.0))
    return -np.linalg.lstsq(H, grad, rcond=None)[0]
