"""Spatial frequency estimation from a Toeplitz covariance estimate via MUSIC.

The steering vector convention matches the covariance synthesis in
qtcov.toeplitz: a(f) = (1, e^{i2pi f}, ..., e^{i2pi (d-1) f}), so a covariance
built from sources at frequencies f_k yields spectrum peaks at those same
frequencies (not their mirror images).

The MUSIC denominator D(f) = ||E_n^H a(f)||^2 is the trigonometric polynomial
c_0 + 2 Re sum_{l=1}^{d-1} c_l e^{i2pi l f}, c_l the l-th superdiagonal sum of
E_n E_n^H.  One real FFT of the c_l gives D on the grid; they also give D, D'
and D'' anywhere for the refinement.  Its rounding error is absolute, a small
multiple of eps * c_0: D can come out <= 0, so the grid floors it at eps * c_0."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QtcovError
from .toeplitz import HermitianToeplitz, as_dense, vandermonde_synthesize


@dataclass(frozen=True)
class DoaScene:
    """K far-field narrowband sources on a d-sensor uniform linear array."""
    d: int
    freqs: tuple
    powers: tuple
    noise_var: float

    def __post_init__(self):
        if len(self.freqs) != len(self.powers):
            raise QtcovError("freqs and powers must have equal length")
        if not 1 <= len(self.freqs) < self.d:
            raise QtcovError("need 1 <= K < d sources")
        if not all(0 <= f < 1 for f in self.freqs):
            raise QtcovError(f"source frequencies must lie in [0, 1), got {self.freqs}")
        if not all(0 < p < np.inf for p in self.powers):
            raise QtcovError(f"source powers must be finite and > 0, got {self.powers}")
        if not 0 <= self.noise_var < np.inf:
            raise QtcovError(f"noise variance must be finite and >= 0, got {self.noise_var!r}")
        if not math.isfinite(sum(map(float, self.powers)) + float(self.noise_var)):
            raise QtcovError(f"scene_powers {self.powers} plus the noise variance "
                             f"{self.noise_var!r} overflow: gamma_0 is not finite")

    @property
    def k_sources(self):
        return len(self.freqs)

    @property
    def snr_db(self):
        """10 log10(sum(powers) / (K * noise_var)), the per-source average SNR."""
        return 10.0 * np.log10(sum(self.powers) / (self.k_sources * self.noise_var))

    def covariance(self):
        """R = sum_k p_k a(f_k) a(f_k)^H + noise_var * I, as HermitianToeplitz."""
        T = vandermonde_synthesize(self.freqs, self.powers, self.d)
        gens = T.generators.copy()
        gens[0] = gens[0].real + self.noise_var
        return HermitianToeplitz(gens)


def _lag_coefficients(T_est, K, grid_size):
    """c_l, the sum of the l-th superdiagonal of E_n E_n^H, for l = 0 .. d-1."""
    M = as_dense(T_est)
    d = M.shape[0]
    if grid_size < 8 * d:
        raise QtcovError(f"grid_size {grid_size} < 8d = {8 * d}")
    if not 1 <= K < d:
        raise QtcovError(f"need 1 <= K < d = {d}, got K = {K}")
    En = np.linalg.eigh(M)[1][:, :d - K]  # eigenvectors of the d-K smallest eigenvalues
    P = En @ En.conj().T
    return np.array([P.trace(lag) for lag in range(d)])


def _grid_spectrum(c, grid_size):
    """1 / D(j / grid_size) from one real FFT, with D floored at eps * c_0."""
    denom = np.fft.irfft(c, grid_size, norm="forward")
    return 1.0 / np.maximum(denom, np.finfo(float).eps * c[0].real)


def _pick_peaks(spectrum, K):
    """(resolved, grid indices): the K largest circular local maxima, padded
    with the largest remaining grid points when fewer exist."""
    floor = 1e-9 * spectrum  # relative prominence floor: rejects roundoff ripples
    peaks = np.flatnonzero((spectrum > np.roll(spectrum, 1) + floor)
                           & (spectrum > np.roll(spectrum, -1) + floor))
    chosen = peaks[np.argsort(spectrum[peaks])[::-1]][:K]
    if chosen.size == K:
        return True, chosen
    rest = np.argsort(spectrum)[::-1]
    return False, np.concatenate([chosen, rest[~np.isin(rest, chosen)]])[:K]


def _refine(c, lo, hi):
    """Minimizers of D on the brackets [lo_k, hi_k], all together: 30 golden-section
    steps, keeping an end that never moved (D falls towards it), then 3 Newton
    steps on D', each only where D'' > 0 and the step stays in [lo_k, hi_k].
    Newton resolves broad minima that the rounding of D leaves about 1e-6 wide."""
    lags = 2j * np.pi * np.arange(c.size)
    coef = np.concatenate([c[:1], 2.0 * c[1:]])  # D = Re sum_l coef_l e^{i2pi l f}
    derivs = np.stack([lags * coef, lags ** 2 * coef], axis=1)  # of D' and D''

    def poly(f, weights):
        return (np.exp(f[:, None] * lags) @ weights).real

    a, b = lo, hi
    for _ in range(30):
        w = 0.6180339887498949 * (b - a)  # (sqrt(5) - 1) / 2, the golden section
        up = poly(b - w, coef) > poly(a + w, coef)  # the minimum lies in [b - w, b]
        a, b = np.where(up, b - w, a), np.where(up, b, a + w)
    f = np.where(b == hi, hi, np.where(a == lo, lo, 0.5 * (a + b)))
    for _ in range(3):
        d1, d2 = poly(f, derivs).T
        # |step| <= hi - lo tested without dividing, so a tiny D'' cannot overflow
        take = (d2 > 0) & (np.abs(d1) <= (hi - lo) * d2)
        new = f - d1 / np.where(take, d2, 1.0)
        f = np.where(take & (lo <= new) & (new <= hi), new, f)
    return f


def estimate_frequencies(T_est, K, grid_size=4096):
    """K spatial frequencies from the circular MUSIC spectrum.

    Picks the K largest circular local maxima of the gridded spectrum and
    refines each over +-1 grid cell, all K together, by golden-section search
    on the lag polynomial D and Newton steps on D'.  When fewer than K local
    maxima exist (degenerate spectra), the output is padded with the largest
    remaining grid points and flagged.

    Returns:
        (resolved, freqs): resolved is False for padded/degenerate output;
        freqs is sorted ascending, values in [0, 1).
    """
    c = _lag_coefficients(T_est, K, grid_size)
    resolved, chosen = _pick_peaks(_grid_spectrum(c, grid_size), K)
    cell = 1.0 / grid_size
    freqs = _refine(c, (chosen - 1) * cell, (chosen + 1) * cell) % 1.0
    return resolved, np.sort(freqs)


def _two_diff(a, b):
    """(s, e) with s = a - b rounded and e its error, so s + e = a - b exactly."""
    s = a - b
    v = s - a
    return s, (a - (s - v)) - (b + v)


def _circle_order(x):
    """Stable argsort of x by exact position mod 1: x - floor(x) rounds to 1.0
    for a tiny negative x, and its error orders such ties."""
    return np.lexsort(_two_diff(x, np.floor(x))[::-1])


def circular_distance(a, b):
    """min(r, 1 - r), r = |a - b| mod 1, correctly rounded: with a - b = s + e
    exactly and t = s - rint(s) (exact), |t + e| <= 1/2 - |e| unless t = +-1/2,
    where the distance is 1/2 - |e|; so each is rounded once and the lesser kept."""
    s, e = _two_diff(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    t = s - np.rint(s)
    t += e
    return np.minimum(np.abs(t), 0.5 - np.abs(e))


def frequency_mse(estimates, truth):
    """Mean squared circular distance under the best estimate-to-truth matching.

    Squared circular distance is a convex function of arc length, so some
    cyclic shift of the two sets' order around the circle is an optimal
    matching (Delon, Salomon & Sobolevski, "Fast transport optimization for
    Monge costs on the circle", SIAM J. Appl. Math. 70(7), 2010).  The first
    of the K shifts with the least total is taken, and its costs are averaged
    with the estimates in their input order.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 1 or not est.size:
        raise QtcovError(f"need two nonempty 1-D sets of one length, "
                         f"got {est.shape} vs {tru.shape}")
    cost = circular_distance(est[:, None], tru[None, :]) ** 2
    idx = np.arange(est.size)
    order = _circle_order(est)
    # shifts[s, i]: the truth that shift s matches to the i-th estimate in circle order
    shifts = _circle_order(tru)[np.add.outer(idx, idx) % est.size]
    cols = np.empty_like(idx)
    cols[order] = shifts[cost[order, shifts].sum(axis=1).argmin()]
    return float(cost[idx, cols].mean())
