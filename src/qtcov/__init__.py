"""Toeplitz covariance estimation from sparsely observed, coarsely quantized data."""

from .toeplitz import (HermitianToeplitz, SpectralDensityGrid,
                       toeplitz_from_generators, vandermonde_synthesize,
                       spectral_density, spectral_density_grid,
                       spectral_norm_bound, min_eigenvalue,
                       toeplitz_adjoint_project)
from .rulers import (Ruler, validate_ruler, make_ruler_alpha,
                     coverage_coefficient, full_ruler, parse_ruler_spec)
from .sampling import (SampleBatch, random_toeplitz_covariance,
                       sample_complex_gaussian, save_batch, load_batch)
from .quantizer import (QuantizationSpec, quantize_uniform, quantize_kbit,
                        quantize_complex, quantize_complex_2kbit,
                        draw_triangular_dither, quantize_batch,
                        select_level_tail_bound, select_level_datadriven)
from .estimators import (EstimationReport, qtscm, qscm,
                         quantized_sample_covariance, relative_spectral_error)
from .qspa import (QspaOptions, QspaSolution, qspa_objective, qspa_solve,
                   regularize_sample_cov, auto_epsilon)
from .doa import (DoaScene, music_spectrum, estimate_frequencies,
                  frequency_mse, circular_distance)

__version__ = "0.1.0"
