"""Closed-form covariance estimators from quantized batches.

qtscm: per-lag averaging of quantized cross-products with the ||Delta||^2/4
diagonal bias removed (unbiased for any ruler).  qscm: the plain bias-
corrected sample covariance without Toeplitz projection (full ruler only).
The finite-bit estimator is qtscm applied to a batch quantized with a bit
depth; it needs no separate code path.  Each estimator reads a quantized
batch, one that carries the QuantizationSpec whose bias it removes.
"""

import numpy as np

from .errors import QtcovError
from .toeplitz import HermitianToeplitz, as_dense, toeplitz_adjoint_project


def _check_quantized(batch):
    if batch.spec is None:
        raise QtcovError("estimators expect a quantized batch")


def quantized_sample_covariance(batch):
    """Uncorrected Gram average (1/n) sum_l z^(l) z^(l)H on ruler coordinates."""
    z = batch.data
    # entry [j, k] = (1/n) sum_l z_j z_k^*, matching the gamma_{k-j} convention
    return z.T @ z.conj() / batch.count


def qtscm(batch, gram=None):
    """Toeplitz-projected sample covariance of quantized data, bias-corrected.

    gamma_hat[s] = mean over lag-s pairs and samples of zq_j zq_k^*, minus
    ||Delta||^2/4 at lag 0.  Unbiased for the true covariance.  `gram`, if
    given, is the batch's quantized_sample_covariance, computed once and
    shared by the estimators of that batch.
    """
    _check_quantized(batch)
    gram = quantized_sample_covariance(batch) if gram is None else gram
    gens = toeplitz_adjoint_project(gram, batch.ruler)
    gens[0] = gens[0].real - batch.spec.lag0_bias
    return HermitianToeplitz(gens)


def qscm(batch, gram=None):
    """Bias-corrected quantized sample covariance without Toeplitz projection
    (`gram` as in qtscm)."""
    _check_quantized(batch)
    if not batch.ruler.is_full():
        raise QtcovError("qscm is defined on the full ruler only")
    gram = quantized_sample_covariance(batch) if gram is None else gram
    return gram - batch.spec.lag0_bias * np.eye(batch.dim)


def spectral_norm(M):
    """Largest singular value of a dense matrix, or of each matrix of a
    (..., d, d) stack: the LAPACK call that np.linalg.norm(M, 2) makes per
    matrix, without that function's dispatch.  numpy runs one call per
    matrix of a stack, so each norm keeps the bits of its single call."""
    return np.linalg.svd(M, compute_uv=False).max(axis=-1)


def relative_spectral_error(estimate, truth):
    """||estimate - truth||_2 / ||truth||_2 with dense spectral norms."""
    tru = as_dense(truth)
    return float(spectral_norm(as_dense(estimate) - tru) / spectral_norm(tru))
