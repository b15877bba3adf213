"""Exception types shared across the package."""


class MomregError(Exception):
    """Base class for all momreg errors."""


class DimensionError(MomregError):
    """Operands have incompatible dimensions."""


class OddBlockCountRequired(MomregError):
    """Block counts must be odd so the median is a single order statistic."""


class TooManyBlocks(MomregError):
    """More blocks requested than there are samples."""


class OddLengthRequired(MomregError):
    """Median of an even-length vector is ambiguous; odd length required."""


class EmptyLambdaWindow(MomregError):
    """No admissible regularization parameter: 6 * gamma2 > gamma1."""


class ConfigError(MomregError):
    """Invalid configuration value."""


class InvalidInput(MomregError, ValueError):
    """Invalid argument value, such as a non-finite sample or coefficient,
    a nonpositive count or an indefinite covariance."""


class ParseError(MomregError):
    """Malformed input file; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DivergenceError(MomregError):
    """Solver iterate became non-finite; try smaller step sizes."""


class GridCapExceeded(MomregError):
    """Grid oracle would exceed the configured evaluation cap."""


class HypothesisViolated(MomregError):
    """A diagnostic precondition (e.g. gamma1 > gamma2) does not hold."""


class ProbeOutOfRegime(MomregError):
    """Probe predictor is on the wrong side of the distance-r split."""
