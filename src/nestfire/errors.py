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
    """A schedule's length differs from the ensemble's pattern count."""


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


def _shown(value) -> str:
    """Outside input, quoted for a message: a str as the repr of its first 20
    characters, an int in full up to 9 digits and else by its sign, anything
    else as its repr cut to 20 characters, a cut noting the length. Never raises."""
    if isinstance(value, int) and not -(10**9) < value < 10**9:
        return f"{'-' if value < 0 else ''}(over 9 digits)"
    try:
        text = value if isinstance(value, str) else repr(value)
    except Exception:  # such as the repr of a tuple that holds an int of 5000 digits
        return f"a {type(value).__name__} with no repr"
    head = repr(text[:20]) if isinstance(value, str) else text[:20]
    return head if len(text) <= 20 else f"{head}... ({len(text)} characters)"
