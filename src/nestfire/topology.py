"""Nested ensemble structure: which neurons form which pattern, and which
patterns enclose which.

Patterns are stored as a flat ordered list; nesting is expressed through
parent links and must form a tree (or forest). Neurons are numbered 0..n-1
and assigned to patterns as contiguous blocks in list order, so every neuron
belongs to exactly one pattern. Excitation stays inside a pattern; inhibition
travels up the ancestor chain, so ``ancestors`` answers "who does this
pattern inhibit" and ``members`` answers "who receives a pattern's
excitation".

All indices are 0-based here; 1-based labels appear only in serialized
output and CLI reports.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .errors import InvalidDimension, UnknownPattern, ValidationError

__all__ = [
    "PatternSpec",
    "EnsembleSpec",
    "build_linear",
    "ancestors",
    "members",
    "validate",
]

# The most rows one request may produce: steps x neurons of a trace, or the
# count events of a counter. A larger request fails before it allocates.
MAX_ROWS = 10**7


class PatternSpec(NamedTuple):
    """One pattern: its index, optional enclosing pattern, and neuron count."""

    id: int
    parent: int | None
    size: int


class Frozen:
    """Base of the immutable value classes. The constructor binds the
    attributes ``_fields`` names, by position or keyword; a field left out
    takes the class attribute of its name as its default. It then calls
    ``_check``, which may validate the fields and coerce them. The fields
    make the repr, ``==`` and the hash."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls, given = type(self), {**dict(zip(fields, args)), **kwargs}
            if (
                len(given) != len(args) + len(kwargs)  # too many, or one given twice
                or not given.keys() <= set(fields)
                or not all(name in given or hasattr(cls, name) for name in fields)
            ):
                raise TypeError(f"{cls.__name__}() takes the arguments {', '.join(fields)}")
            args = [given[name] if name in given else getattr(cls, name) for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate and coerce the fields once they are bound."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class EnsembleSpec(Frozen):
    """A nested ensemble: ordered patterns plus the two signal parameters.

    ``excitatory_unit`` is the signal added per firing neuron to each member
    of its own pattern; ``inhibitory_weight`` is the dimensionless fraction
    of that unit carried by each inhibitory signal.

    Construction does not reject invalid structures; run :func:`validate`
    to collect violations. ``run`` refuses any spec that ``validate``
    faults. Instances are immutable and safe to share.
    """

    _fields = ("patterns", "excitatory_unit", "inhibitory_weight")
    patterns: tuple[PatternSpec, ...]
    excitatory_unit: float
    inhibitory_weight: float

    def _check(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    @property
    def num_neurons(self) -> int:
        return self._offsets[-1]

    def offset(self, pattern: int) -> int:
        """First neuron index of ``pattern`` (patterns occupy contiguous blocks)."""
        return self._offsets[_check_pattern(self, pattern)]

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        # Prefix sums of the pattern sizes; the last entry is the neuron count.
        return tuple(accumulate((p.size for p in self.patterns), initial=0))


def build_linear(
    depth: int,
    size: int,
    excitatory_unit: float,
    inhibitory_weight: float,
) -> EnsembleSpec:
    """Build a single linear nesting chain: pattern k+1 directly inside pattern k.

    Produces depth * size neurons in total, ``size`` per pattern. Pattern 0 is
    the outermost (root); pattern depth-1 is the innermost.
    """
    depth = _whole(depth, "depth", error=InvalidDimension)
    size = _whole(size, "size", error=InvalidDimension)
    if depth < 1 or size < 1:
        raise InvalidDimension(
            f"depth and size must be >= 1, got depth={brief(depth)} size={brief(size)}"
        )
    patterns = tuple(
        PatternSpec(id=k, parent=None if k == 0 else k - 1, size=size)
        for k in range(depth)
    )
    return EnsembleSpec(patterns, excitatory_unit, inhibitory_weight)


def ancestors(spec: EnsembleSpec, pattern: int) -> list[int]:
    """All enclosing patterns of ``pattern``, immediate parent first, root last.

    These are exactly the patterns that receive inhibition when ``pattern``
    fires. The root returns an empty list.
    """
    chain: list[int] = []
    current = spec.patterns[_check_pattern(spec, pattern)].parent
    while current is not None:
        # A valid chain has fewer than P ancestors; a longer walk is a cycle.
        if len(chain) == spec.num_patterns:
            raise ValidationError(f"nesting cycle at pattern {current}")
        chain.append(_whole(current, "parent", 0, spec.num_patterns - 1))
        current = spec.patterns[chain[-1]].parent
    return chain


def members(spec: EnsembleSpec, pattern: int) -> list[int]:
    """Neuron indices of ``pattern``: the targets of its internal excitation."""
    k = _check_pattern(spec, pattern)
    return list(range(spec._offsets[k], spec._offsets[k + 1]))


def validate(spec: EnsembleSpec) -> list[str]:
    """Check every EnsembleSpec invariant; return all violations (empty = ok)."""
    violations: list[str] = []
    n_pat = spec.num_patterns
    if n_pat == 0:
        violations.append("ensemble has no patterns")
    # Ids, sizes and parents must be integers, of a type that ``operator.index`` takes.
    fields = [(p.id, p.size, 0 if p.parent is None else p.parent) for p in spec.patterns]
    integers = [all(hasattr(type(v), "__index__") for v in f) for f in fields]
    # Pointer doubling: a root links to the sentinel n_pat, a missing parent to itself.
    jump = [
        n_pat if p.parent is None else p.parent if ok and 0 <= p.parent < n_pat else pos
        for pos, (p, ok) in enumerate(zip(spec.patterns, integers))
    ] + [n_pat]
    for _ in range(n_pat.bit_length()):
        jump = [jump[j] for j in jump]
    for pos, pat in enumerate(spec.patterns):
        if not integers[pos]:
            got = _shown((pat.id, pat.parent, pat.size))
            violations.append(f"pattern {pos} needs integer id, parent and size, got {got}")
            continue
        if pat.id != pos:
            violations.append(f"pattern at position {pos} has id {pat.id}")
        if pat.size < 1:
            violations.append(f"empty pattern {pos}")
        if pat.parent is not None and not 0 <= pat.parent < n_pat:
            violations.append(f"pattern {pos} parent {pat.parent} does not exist")
        elif jump[pos] != n_pat:
            violations.append(f"no root above pattern {pos}: nesting cycle or missing parent")
    unit, weight = spec.excitatory_unit, spec.inhibitory_weight
    if not 0 < _real(unit) < math.inf:
        violations.append(f"excitatory_unit must be finite and > 0, got {_shown(unit)}")
    if not 0 <= _real(weight) < math.inf:
        violations.append(f"inhibitory_weight must be finite and >= 0, got {_shown(weight)}")
    return violations


def _real(value) -> float:
    """``value`` as a float, or NaN if it is no real number within the float range."""
    try:
        return float(value + 0.0)  # a str, complex or Decimal fails here
    except (OverflowError, TypeError):
        return math.nan


def _whole(value, what: str, least: int | None = None, most: int | None = None,
           error: type[Exception] = ValidationError) -> int:
    """``value`` as an int: an integer, or a float with no fraction part such
    as ``2.0``. Anything else, or a number below ``least`` or above ``most``
    where those are given, raises ``error`` naming ``what``."""
    if hasattr(type(value), "__index__"):  # what ``operator.index`` takes
        n = value.__index__()
    elif isinstance(value, float) and value.is_integer():
        n = int(value)
    else:
        raise error(f"{what} must be a whole number, got {_shown(value)}")
    if most is not None and not least <= n <= most:
        raise error(f"{what} {brief(n)} not in {least}..{most}")
    if least is not None and n < least:
        raise error(f"{what} must be >= {least}, got {brief(n)}")
    return n


def _shown(value) -> str:
    """``value``'s repr for a message, cut to 40 characters and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def check_rows(what: str, *factors: int) -> None:
    """Refuse a request for more than MAX_ROWS rows, the product of
    ``factors``; ``what`` names the factors in the message."""
    if math.prod(factors) > MAX_ROWS:
        raise ValidationError(f"{what} exceeds the budget of {MAX_ROWS} rows")


def brief(n: int) -> str:
    """``n`` for a message: in full up to 9 digits, else only its sign, so
    that an input of hundreds of digits cannot flood the message."""
    if -(10**9) < n < 10**9:
        return str(n)
    return f"{'-' if n < 0 else ''}(over 9 digits)"


def _check_pattern(spec: EnsembleSpec, pattern: int) -> int:
    return _whole(pattern, "pattern", 0, spec.num_patterns - 1, UnknownPattern)
