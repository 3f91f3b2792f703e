"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3
(and a MemoryError, from any allocation, -> 2).
"""


class DataError(ValueError):
    """Malformed or inconsistent input data (files, labels, dimensions)."""


class ModelFormatError(DataError):
    """Model file is corrupt, truncated, or has the wrong magic/version."""


class NumericError(RuntimeError):
    """A numerical routine cannot proceed (degenerate input, no convergence)."""
