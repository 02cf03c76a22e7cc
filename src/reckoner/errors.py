"""Exception types shared across the package."""


class ReckonerError(Exception):
    """Base class for package errors."""


class ConfigError(ReckonerError):
    """Invalid configuration: schemas, hyperparameters, sweep grids."""


class DataError(ReckonerError):
    """Malformed or inconsistent input data."""


class NumericError(ReckonerError):
    """Non-finite loss, gradient, or update encountered during training."""


class UndefinedRateError(DataError):
    """A confusion-matrix rate was requested but its denominator is zero.

    A data error: the inputs lack the rows the rate needs (the CLI exits 2).
    """
