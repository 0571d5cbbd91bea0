"""Exception hierarchy shared by all modules."""


class TwistorCheckError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(TwistorCheckError):
    """Invalid configuration value (suite options, fixture parameters, ...)."""


class UsageError(TwistorCheckError):
    """API misuse: out-of-range indices, malformed arguments."""


class UndefinedError(UsageError):
    """A jet function taken where it is undefined: the log or sqrt of a
    nonpositive value, a division by zero."""


class GeometryError(TwistorCheckError):
    """Geometric degeneracy: non-SPD metric, singular chart point."""


class FrameError(TwistorCheckError):
    """Frame construction failed (degenerate seed, non-orthonormal input)."""


class InputError(TwistorCheckError):
    """Invalid numerical input (non-unit two-vector, nonpositive weight)."""


class DomainError(TwistorCheckError):
    """Point outside the admissible domain (pole proximity, boundary)."""


class NumericError(TwistorCheckError):
    """Numerical procedure failed to converge."""
