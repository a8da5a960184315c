"""Exception types shared across the package."""


class SphDesignError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(SphDesignError, ValueError):
    """Sphere dimension out of the supported range."""


class InvalidPointError(SphDesignError, ValueError):
    """A point fails the unit-norm requirement."""


class InvalidParameterError(SphDesignError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ParseError(SphDesignError, ValueError):
    """A point-set file could not be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class UndefinedMetricError(SphDesignError, ValueError):
    """A geometric quantity is undefined for this input (e.g. N < 2)."""
