"""Exception types raised by qtcov.

Every domain error is a QtcovError, which is a ValueError, and its message
says what went wrong.  A subclass exists only where code catches it and so
tells it apart (MissingLag, EmptyTable).  Every other failure raises
QtcovError itself.
"""


class QtcovError(ValueError):
    """Base class for all qtcov domain errors."""


class MissingLag(QtcovError):
    """An index set does not realize some lag in 0..d-1."""

    def __init__(self, lag, dim):
        self.lag = int(lag)
        self.dim = int(dim)
        super().__init__(f"lag {self.lag} is not covered by the index set (d={self.dim})")


class EmptyTable(QtcovError):
    pass
