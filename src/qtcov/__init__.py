"""Toeplitz covariance estimation from sparsely observed, coarsely quantized data."""

from .toeplitz import (HermitianToeplitz, vandermonde_synthesize,
                       toeplitz_adjoint_project)
from .rulers import (Ruler, make_ruler_alpha, coverage_coefficient, full_ruler,
                     resolve_ruler)
from .sampling import (SampleBatch, random_toeplitz_covariance,
                       sample_complex_gaussian, save_batch, load_batch)
from .quantizer import (QuantizationSpec, quantize_batch,
                        select_level_tail_bound, select_level_datadriven)
from .estimators import (qtscm, qscm, quantized_sample_covariance,
                         relative_spectral_error)
from .qspa import QspaSolution, qspa_solve, auto_epsilon
from .doa import DoaScene, estimate_frequencies, frequency_mse, circular_distance

__version__ = "0.1.0"
