"""Closed-form covariance estimators from quantized batches.

qtscm: per-lag averaging of quantized cross-products with the ||Delta||^2/4
diagonal bias removed (unbiased for any ruler).  qscm: the plain bias-
corrected sample covariance without Toeplitz projection (full ruler only).
The finite-bit estimator is qtscm applied to a batch produced by the 2k-bit
quantizer; it needs no separate code path.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyBatch, NotFullRuler, QtcovError
from .quantizer import QuantizationSpec
from .rulers import Ruler
from .toeplitz import HermitianToeplitz, as_dense, toeplitz_adjoint_project


@dataclass
class EstimationReport:
    """An estimate plus the metadata needed to reproduce and score it."""
    estimate: object
    estimator_name: str
    spec: QuantizationSpec
    ruler: Ruler
    n: int
    seed: int = 0
    rel_error_spectral: Optional[float] = None

    CSV_HEADER = "estimator,d,n,ruler,delta_r,delta_i,k,seed,rel_error_spectral"

    def csv_row(self):
        k = "" if self.spec.bits_k is None else str(self.spec.bits_k)
        err = "" if self.rel_error_spectral is None else repr(self.rel_error_spectral)
        return (f"{self.estimator_name},{self.ruler.dim},{self.n},"
                f"\"{self.ruler.to_string()}\",{self.spec.delta_r!r},"
                f"{self.spec.delta_i!r},{k},{self.seed},{err}")


def _check_quantized(batch, spec):
    if batch.stage != "quantized":
        raise QtcovError("estimators expect a quantized batch")
    if batch.count < 1 or batch.data.size == 0:
        raise EmptyBatch("batch has no samples")
    spec = batch.spec if spec is None else spec
    if spec is None:
        raise QtcovError("quantization spec unknown; pass it explicitly")
    return spec


def quantized_sample_covariance(batch):
    """Uncorrected Gram average (1/n) sum_l z^(l) z^(l)H on ruler coordinates."""
    if batch.count < 1 or batch.data.size == 0:
        raise EmptyBatch("batch has no samples")
    z = batch.data
    # entry [j, k] = (1/n) sum_l z_j z_k^*, matching the gamma_{k-j} convention
    return z.T @ z.conj() / batch.count


def _gram(batch, gram):
    return quantized_sample_covariance(batch) if gram is None else gram


def qtscm(batch, spec=None, gram=None):
    """Toeplitz-projected sample covariance of quantized data, bias-corrected.

    gamma_hat[s] = mean over lag-s pairs and samples of zq_j zq_k^*, minus
    ||Delta||^2/4 at lag 0.  Unbiased for the true covariance.  `gram`, if
    given, is the batch's quantized_sample_covariance, computed once and
    shared by the estimators of that batch.
    """
    spec = _check_quantized(batch, spec)
    gens = toeplitz_adjoint_project(_gram(batch, gram), batch.ruler)
    gens[0] = gens[0].real - spec.lag0_bias
    return HermitianToeplitz(gens)


def qscm(batch, spec=None, gram=None):
    """Bias-corrected quantized sample covariance without Toeplitz projection
    (`gram` as in qtscm)."""
    spec = _check_quantized(batch, spec)
    if not batch.ruler.is_full():
        raise NotFullRuler("qscm is defined on the full ruler only")
    return _gram(batch, gram) - spec.lag0_bias * np.eye(batch.dim)


def spectral_norm(M):
    """Largest singular value of a dense matrix: the one LAPACK call that
    np.linalg.norm(M, 2) makes, without that function's dispatch."""
    return np.linalg.svd(M, compute_uv=False).max()


def relative_spectral_error(estimate, truth):
    """||estimate - truth||_2 / ||truth||_2 with dense spectral norms."""
    tru = as_dense(truth)
    return float(spectral_norm(as_dense(estimate) - tru) / spectral_norm(tru))
