"""Hermitian Toeplitz matrix algebra.

A d x d Hermitian Toeplitz matrix is stored by its first-row generators
gamma_0 .. gamma_{d-1} (gamma_0 real), with the dense matrix given by
M[j, k] = gamma_{k-j} for k >= j and M[k, j] = conj(M[j, k]).

Sign convention used throughout the package: gamma_s is the covariance of two
observations separated by lag s in the ordered sense E[z_j z_{j+s}^*], which
makes gamma_s = sum_k p_k exp(-i 2 pi s f_k) for sources with steering vector
a(f) = (1, exp(i 2 pi f), ..., exp(i 2 pi (d-1) f)).
"""

from functools import lru_cache

import numpy as np

from .errors import QtcovError


class HermitianToeplitz:
    """Immutable Hermitian Toeplitz matrix parameterized by its generators."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = np.asarray(generators, dtype=np.complex128)
        if gens.ndim != 1 or gens.size == 0:
            raise QtcovError("need at least one generator")
        if gens[0].imag != 0.0:
            raise QtcovError(f"gamma_0 must be real, got imaginary part {gens[0].imag.item()}")
        self.generators = gens.copy()
        self.generators.flags.writeable = False

    @property
    def dim(self):
        return self.generators.size

    @property
    def dense(self):
        """The full d x d complex matrix (a fresh array on every access)."""
        return toeplitz_dense(self.generators)

    def __repr__(self):
        return f"HermitianToeplitz(d={self.dim}, gamma0={self.generators[0].real:g})"


@lru_cache(maxsize=64)
def _lag_index(d):
    """Read-only d x d index of entry [j, k] into the generator table of
    toeplitz_dense: (k - j) + d - 1."""
    index = np.arange(d)[None, :] - np.arange(d)[:, None] + (d - 1)
    index.flags.writeable = False
    return index


def toeplitz_dense(generators):
    """Dense Hermitian Toeplitz matrices from generators of shape (..., d):
    a fresh complex array of shape (..., d, d), one matrix per generator row."""
    gens = np.asarray(generators, dtype=np.complex128)
    # table[..., s + d - 1] = gamma_s for s >= 0, conj(gamma_{-s}) for s < 0
    table = np.concatenate([np.conj(gens[..., :0:-1]), gens], axis=-1)
    return table[..., _lag_index(gens.shape[-1])]


def as_dense(M):
    """Dense array of a HermitianToeplitz or of an array-like matrix."""
    return M.dense if isinstance(M, HermitianToeplitz) else np.asarray(M)


def as_dense_stack(mats):
    """(m, d, d) complex stack of m HermitianToeplitz or dense d x d matrices,
    in order; the Toeplitz ones are built together by one toeplitz_dense call."""
    toep = [i for i, M in enumerate(mats) if isinstance(M, HermitianToeplitz)]
    built = toeplitz_dense(np.stack([mats[i].generators for i in toep])) if toep else None
    if len(toep) == len(mats):
        return built
    other = [i for i, M in enumerate(mats) if not isinstance(M, HermitianToeplitz)]
    out = np.empty((len(mats),) + np.shape(mats[other[0]]), dtype=np.complex128)
    out[other] = [mats[i] for i in other]
    if toep:
        out[toep] = built
    return out


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
        raise QtcovError("need at least one frequency")
    if freqs.shape != powers.shape:
        raise QtcovError(f"{freqs.size} frequencies vs {powers.size} powers")
    if np.unique(freqs).size != freqs.size:
        raise QtcovError("frequencies must be distinct")
    if not np.all((powers > 0) & (powers < np.inf)):
        raise QtcovError(f"powers must be finite and positive, got {powers}")
    gens = np.exp(-2j * np.pi * np.outer(np.arange(d), freqs)) @ powers
    gens[0] = gens[0].real  # exactly sum(powers); kill roundoff residue
    return HermitianToeplitz(gens)


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
        raise QtcovError(f"matrix shape {M.shape} does not match |ruler| = {m}")
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
