"""Exception types shared across the package, and the key check of the JSON readers."""


class RpdmlError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(RpdmlError, ValueError):
    """Arguments have incompatible shapes."""


class InvariantViolationError(RpdmlError, ValueError):
    """A value does not satisfy its type invariants (e.g. not SPD)."""


class ConfigError(RpdmlError, ValueError):
    """Invalid configuration, e.g. a step size / regularizer combination."""


class BoundsError(RpdmlError, ValueError):
    """Distance-bound computation failed (degenerate distance distribution)."""


class ConstraintBuildError(RpdmlError, ValueError):
    """Pairwise constraints could not be constructed from the given labels."""


class NumericError(RpdmlError, RuntimeError):
    """A numerical routine failed (eigendecomposition, non-finite values)."""


class InnerSolveError(NumericError):
    """The inner primal minimization could not make progress."""


class DivergedError(NumericError):
    """An optimization run diverged; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def require_keys(obj, keys, where: str) -> list:
    """obj[key] for each key; a missing key is a ConfigError naming ``where``."""
    missing = [key for key in keys if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise ConfigError(f"{where} lacks key(s): {', '.join(missing)}")
    return [obj[key] for key in keys]
