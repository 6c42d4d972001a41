"""Exception types shared across the package.

The CLI (``cli.main``) maps these onto exit codes: ConfigError, MappingError
and ShapeError -> 2; NumericError, TrainingDivergence included, -> 3.
"""


class SlimError(Exception):
    """Base class for package errors."""


class ShapeError(SlimError, ValueError):
    """Operand dimensions are inconsistent."""


class RankError(SlimError, ValueError):
    """Requested decomposition rank is out of range."""


class MappingError(SlimError, ValueError):
    """Weight layout cannot be placed on the given device geometry."""


class AccountingError(SlimError, KeyError):
    """A trace event has no energy accounting rule."""


class ConfigError(SlimError, ValueError):
    """Scenario configuration is malformed or inconsistent."""


class NumericError(SlimError, RuntimeError):
    """A numeric procedure failed (divergence, non-finite values)."""


class TrainingDivergence(NumericError):
    """Predictor training diverged; carries the loss history."""

    def __init__(self, msg, history):
        super().__init__(msg)
        self.history = list(history)
