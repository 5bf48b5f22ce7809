"""Hermitian Toeplitz matrix algebra.

A d x d Hermitian Toeplitz matrix is stored by its first-row generators
gamma_0 .. gamma_{d-1} (gamma_0 real), with the dense matrix given by
M[j, k] = gamma_{k-j} for k >= j and M[k, j] = conj(M[j, k]).

Sign convention used throughout the package: gamma_s is the covariance of two
observations separated by lag s in the ordered sense E[z_j z_{j+s}^*], which
makes gamma_s = sum_k p_k exp(-i 2 pi s f_k) for sources with steering vector
a(f) = (1, exp(i 2 pi f), ..., exp(i 2 pi (d-1) f)).
"""

import math

import numpy as np

from .errors import (DuplicateFrequency, EmptyGenerators, LengthMismatch,
                     NonRealDiagonal, ResolutionTooCoarse, SizeMismatch)


class HermitianToeplitz:
    """Immutable Hermitian Toeplitz matrix parameterized by its generators."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = np.asarray(generators, dtype=np.complex128)
        if gens.ndim != 1 or gens.size == 0:
            raise EmptyGenerators("need at least one generator")
        if gens[0].imag != 0.0:
            raise NonRealDiagonal(
                f"gamma_0 must be real, got imaginary part {gens[0].imag!r}")
        self.generators = gens.copy()
        self.generators.flags.writeable = False

    @property
    def dim(self):
        return self.generators.size

    @property
    def dense(self):
        """The full d x d complex matrix (a fresh array on every access)."""
        d = self.dim
        # table[s + d - 1] = gamma_s for s >= 0, conj(gamma_{-s}) for s < 0
        table = np.concatenate([np.conj(self.generators[:0:-1]), self.generators])
        lag = np.arange(d)[None, :] - np.arange(d)[:, None]
        return table[lag + d - 1]

    def __repr__(self):
        return f"HermitianToeplitz(d={self.dim}, gamma0={self.generators[0].real:g})"


def as_dense(M):
    """Dense array of a HermitianToeplitz or of an array-like matrix."""
    return M.dense if isinstance(M, HermitianToeplitz) else np.asarray(M)


def toeplitz_from_generators(generators):
    """Build a HermitianToeplitz from gamma_0..gamma_{d-1} (gamma_0 real)."""
    return HermitianToeplitz(generators)


def vandermonde_synthesize(freqs, powers, d):
    """Positive semidefinite Toeplitz matrix sum_k powers[k] a(f_k) a(f_k)^H.

    Equivalent generator form: gamma_s = sum_k powers[k] exp(-i 2 pi s f_k).

    Args:
        freqs: distinct frequencies in [0, 1).
        powers: positive weights, same length as freqs.
        d: matrix dimension.
    """
    freqs = np.asarray(freqs, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise LengthMismatch("need at least one frequency")
    if freqs.shape != powers.shape:
        raise LengthMismatch(
            f"{freqs.size} frequencies vs {powers.size} powers")
    if np.unique(freqs).size != freqs.size:
        raise DuplicateFrequency("frequencies must be distinct")
    if np.any(powers <= 0):
        raise ValueError("powers must be positive")
    gens = np.exp(-2j * np.pi * np.outer(np.arange(d), freqs)) @ powers
    gens[0] = gens[0].real  # exactly sum(powers); kill roundoff residue
    return HermitianToeplitz(gens)


def spectral_density(T, theta):
    """Trigonometric polynomial L(theta) generated by T.

    L(theta) = gamma_0 + sum_{s>=1} (gamma_s e^{i2pi s theta} + c.c.), a real
    function whose supremum over [0, 1] upper-bounds the spectral norm of T.
    `theta` may be a scalar or an array.
    """
    gens = T.generators
    s = np.arange(1, T.dim)
    phases = np.exp(2j * np.pi * np.multiply.outer(np.asarray(theta, dtype=float), s))
    vals = gens[0].real + 2.0 * (phases @ gens[1:]).real
    return vals if np.ndim(theta) else float(vals)


def default_grid_resolution(d):
    """Grid size ceil(4 pi d^2) used by spectral_norm_bound by default."""
    return int(math.ceil(4.0 * math.pi * d * d))


class SpectralDensityGrid:
    """Spectral density sampled at theta = j / resolution, j in [0, resolution)."""

    __slots__ = ("resolution", "values")

    def __init__(self, resolution, values):
        self.resolution = int(resolution)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.resolution,):
            raise SizeMismatch(
                f"{self.values.shape} values for resolution {self.resolution}")

    def max(self):
        return float(np.max(self.values))


def spectral_density_grid(T, resolution=None):
    """Sample the spectral density on a uniform grid of [0, 1).

    The default resolution ceil(4 pi d^2) is fine enough that the grid maximum
    dominates the spectral norm of T for PSD inputs; coarser grids (down to 2d
    points) trade tightness for speed.
    """
    d = T.dim
    if resolution is None:
        resolution = default_grid_resolution(d)
    resolution = int(resolution)
    if resolution < 2 * d:
        raise ResolutionTooCoarse(
            f"resolution {resolution} < 2d = {2 * d}")
    theta = np.arange(resolution) / resolution
    return SpectralDensityGrid(resolution, spectral_density(T, theta))


def spectral_norm_bound(T, resolution=None):
    """Max of the spectral density over a uniform grid of [0, 1)."""
    return spectral_density_grid(T, resolution).max()


def min_eigenvalue(T):
    """Smallest eigenvalue of the densified matrix."""
    return float(np.linalg.eigvalsh(T.dense)[0])


def toeplitz_adjoint_project(M, ruler):
    """Per-lag averages of a Hermitian matrix indexed by ruler entries.

    out[s] is the mean of M over the ordered pairs (j, k) of the ruler with
    k - j = s, mapped to matrix positions.  Applied to the restriction of a
    Toeplitz matrix this recovers its generators exactly; applied to a sample
    covariance it is the Toeplitz projection underlying the closed-form
    estimators and the covariance-fitting gradient.
    """
    M = np.asarray(M)
    m = ruler.size
    if M.shape != (m, m):
        raise SizeMismatch(f"matrix shape {M.shape} does not match |ruler| = {m}")
    vals = M[ruler.pair_rows, ruler.pair_cols].astype(np.complex128)
    # Anchor each lag at its first pair and average the deviations; this keeps
    # the mean exact when a diagonal is constant.
    anchor = vals[ruler.lag_starts]
    dev = vals - anchor[ruler.pair_lags]
    d = ruler.dim
    sums = (np.bincount(ruler.pair_lags, weights=dev.real, minlength=d)
            + 1j * np.bincount(ruler.pair_lags, weights=dev.imag, minlength=d))
    out = anchor + sums / ruler.lag_sizes
    out[0] = out[0].real
    return out
