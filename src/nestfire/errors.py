"""Exception types shared across the package.

Every error raised by the library derives from :class:`NestfireError`, so
callers can catch one base class. Each subclass also inherits the closest
builtin category (ValueError, LookupError) so generic handlers keep working.
"""

__all__ = [
    "NestfireError",
    "InvalidDimension",
    "UnknownPattern",
    "SpecMismatch",
    "AsymmetricPattern",
    "OutOfRange",
    "WrongShape",
    "InvalidDepth",
    "AttenuatedOut",
    "DegenerateLayout",
    "ParseError",
    "ValidationError",
]


class NestfireError(Exception):
    """Base class for all nestfire errors."""


class UnknownPattern(NestfireError, LookupError):
    """A pattern index does not exist in the ensemble."""


class SpecMismatch(NestfireError, ValueError):
    """Simulation state dimensions disagree with the ensemble spec."""


class AsymmetricPattern(NestfireError, ValueError):
    """Members of one pattern disagree in a trace read from text."""


class OutOfRange(NestfireError, IndexError):
    """A step, position, or pattern index falls outside the valid range."""


class WrongShape(NestfireError, ValueError):
    """A trace or grid does not have the shape an operation requires."""


class InvalidDepth(NestfireError, ValueError):
    """A counter was asked to run with depth below 1."""


class AttenuatedOut(NestfireError, ValueError):
    """The impulse cannot survive the hop distance with positive strength."""


class DegenerateLayout(NestfireError, ValueError):
    """The two node groups of a layout coincide."""


class ParseError(NestfireError, ValueError):
    """A scenario or trace document is structurally malformed."""


class ValidationError(NestfireError, ValueError):
    """A parsed document or an argument violates a domain invariant."""


class InvalidDimension(ValidationError):
    """A depth or pattern size is below 1, which no valid ensemble has."""
