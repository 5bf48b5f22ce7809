"""Exception types raised by qtcov.

All domain errors derive from QtcovError, which is a ValueError, so callers
that do not care about the precise failure mode can catch ValueError.
"""


class QtcovError(ValueError):
    """Base class for all qtcov domain errors."""


# --- toeplitz ---------------------------------------------------------------

class EmptyGenerators(QtcovError):
    pass


class NonRealDiagonal(QtcovError):
    pass


class DuplicateFrequency(QtcovError):
    pass


class LengthMismatch(QtcovError):
    pass


class ResolutionTooCoarse(QtcovError):
    pass


class SizeMismatch(QtcovError):
    pass


# --- rulers -----------------------------------------------------------------

class OutOfRange(QtcovError):
    pass


class Duplicate(QtcovError):
    pass


class MissingLag(QtcovError):
    """An index set does not realize some lag in 0..d-1."""

    def __init__(self, lag, dim):
        self.lag = int(lag)
        self.dim = int(dim)
        super().__init__(f"lag {self.lag} is not covered by the index set (d={self.dim})")


class NotARuler(QtcovError):
    pass


# --- sampling / quantizer ---------------------------------------------------

class NotPSD(QtcovError):
    pass


class EmptyBatch(QtcovError):
    pass


class NonPositiveGamma0(QtcovError):
    pass


class BatchFormatError(QtcovError):
    """A batch file that save_batch could not have written."""


# --- estimators -------------------------------------------------------------

class NotFullRuler(QtcovError):
    pass


# --- qspa -------------------------------------------------------------------

class SingularRhat(QtcovError):
    pass


class InfeasibleU(QtcovError):
    pass


# --- doa --------------------------------------------------------------------

class KOutOfRange(QtcovError):
    pass


# --- harness ----------------------------------------------------------------

class EmptyTable(QtcovError):
    pass


class MixedMetrics(QtcovError):
    pass


class ConfigError(QtcovError):
    pass
