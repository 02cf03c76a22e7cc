"""Exception types shared across the package.

Each error the CLI reports carries its ``kind`` and process exit code.
"""


class ReckonerError(Exception):
    """Base class for package errors."""


class ConfigError(ReckonerError):
    """Invalid configuration: schemas, hyperparameters, sweep grids."""

    kind = "config"
    exit_code = 1


class DataError(ReckonerError):
    """Malformed or inconsistent input data."""

    kind = "data"
    exit_code = 2


class NumericError(ReckonerError):
    """Non-finite loss, gradient, or update encountered during training."""

    kind = "numeric"
    exit_code = 3


class UndefinedRateError(DataError):
    """A confusion-matrix rate was requested but its denominator is zero.

    A data error: the inputs lack the rows the rate needs (the CLI exits 2).
    """
