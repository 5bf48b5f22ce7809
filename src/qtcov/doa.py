"""Spatial frequency estimation from a Toeplitz covariance estimate via MUSIC.

The steering vector convention matches the covariance synthesis in
qtcov.toeplitz: a(f) = (1, e^{i2pi f}, ..., e^{i2pi (d-1) f}), so a covariance
built from sources at frequencies f_k yields spectrum peaks at those same
frequencies (not their mirror images).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import KOutOfRange, LengthMismatch, QtcovError
from .toeplitz import HermitianToeplitz, as_dense, steering_vector, vandermonde_synthesize


@dataclass(frozen=True)
class DoaScene:
    """K far-field narrowband sources on a d-sensor uniform linear array."""
    d: int
    freqs: tuple
    powers: tuple
    noise_var: float

    def __post_init__(self):
        if len(self.freqs) != len(self.powers):
            raise LengthMismatch("freqs and powers must have equal length")
        if not 1 <= len(self.freqs) < self.d:
            raise KOutOfRange("need 1 <= K < d sources")
        if self.noise_var < 0:
            raise QtcovError("noise variance must be nonnegative")

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


def _noise_subspace(T_est, K, grid_size):
    M = as_dense(T_est)
    d = M.shape[0]
    if grid_size < 8 * d:
        raise QtcovError(f"grid_size {grid_size} < 8d = {8 * d}")
    if not 1 <= K < d:
        raise KOutOfRange(f"need 1 <= K < d = {d}, got K = {K}")
    _, vec = np.linalg.eigh(M)
    return vec[:, :d - K]  # eigenvectors of the d-K smallest eigenvalues


def _grid_spectrum(En, grid_size):
    theta = np.arange(grid_size) / grid_size
    A = np.exp(2j * np.pi * np.outer(np.arange(En.shape[0]), theta))
    denom = np.sum(np.abs(En.conj().T @ A) ** 2, axis=0)
    return 1.0 / denom


def music_spectrum(T_est, K, grid_size):
    """Pseudo-spectrum 1 / ||E_n^H a(theta)||^2 on the grid theta_j = j / grid_size.

    Args:
        T_est: estimated covariance (HermitianToeplitz or dense Hermitian array).
        K: number of sources; d - K eigenvectors span the noise subspace E_n.
        grid_size: number of grid points, at least 8d.

    Returns:
        Real vector of length grid_size.
    """
    return _grid_spectrum(_noise_subspace(T_est, K, grid_size), grid_size)


def _golden_refine(fun, lo, hi, iters=60):
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


def estimate_frequencies(T_est, K, grid_size=4096):
    """K spatial frequencies from the circular MUSIC spectrum.

    Picks the K largest circular local maxima of the gridded spectrum and
    refines each over +-1 grid cell by golden-section search.  When fewer than
    K local maxima exist (degenerate spectra), the output is padded with the
    largest remaining grid points and flagged.

    Returns:
        (resolved, freqs): resolved is False for padded/degenerate output;
        freqs is sorted ascending, values in [0, 1).
    """
    En = _noise_subspace(T_est, K, grid_size)
    spectrum = _grid_spectrum(En, grid_size)
    d = En.shape[0]

    left = np.roll(spectrum, 1)
    right = np.roll(spectrum, -1)
    # relative prominence floor rejects the roundoff ripples of flat spectra
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

    EnH = En.conj().T  # formed once; each refinement step reuses it

    def pseudo(theta):
        a = steering_vector(theta, d)
        return 1.0 / np.sum(np.abs(EnH @ a) ** 2)

    cell = 1.0 / grid_size
    freqs = np.array([_golden_refine(pseudo, j * cell - cell, j * cell + cell) % 1.0
                      for j in chosen])
    return resolved, np.sort(freqs)


def circular_distance(a, b):
    """min(|a-b|, 1-|a-b|) on the unit circle of frequencies."""
    diff = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(diff, 1.0 - diff)


def frequency_mse(estimates, truth):
    """Mean squared circular distance under the best estimate-to-truth matching."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 1:
        raise LengthMismatch(f"length mismatch: {est.shape} vs {tru.shape}")
    cost = circular_distance(est[:, None], tru[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())
