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
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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


@dataclass(frozen=True)
class PatternSpec:
    """One pattern: its index, optional enclosing pattern, and neuron count."""

    id: int
    parent: int | None
    size: int


@dataclass(frozen=True)
class EnsembleSpec:
    """A nested ensemble: ordered patterns plus the two signal parameters.

    ``excitatory_unit`` is the signal added per firing neuron to each member
    of its own pattern; ``inhibitory_weight`` is the dimensionless fraction
    of that unit carried by each inhibitory signal.

    Construction does not reject invalid structures; run :func:`validate`
    to collect violations. ``run`` and ``step`` refuse any spec that
    ``validate`` faults. Instances are immutable and safe to share.
    """

    patterns: tuple[PatternSpec, ...]
    excitatory_unit: float
    inhibitory_weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    @property
    def num_neurons(self) -> int:
        return self._offsets[-1]

    def offset(self, pattern: int) -> int:
        """First neuron index of ``pattern`` (patterns occupy contiguous blocks)."""
        _check_pattern(self, pattern)
        return self._offsets[pattern]

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
    if depth < 1 or size < 1:
        raise InvalidDimension(f"depth and size must be >= 1, got depth={depth} size={size}")
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
    _check_pattern(spec, pattern)
    chain: list[int] = []
    current = spec.patterns[pattern].parent
    while current is not None:
        # A valid chain has fewer than P ancestors; a longer walk is a cycle.
        if len(chain) == spec.num_patterns or not 0 <= current < spec.num_patterns:
            raise ValidationError(f"nesting cycle or dangling parent at pattern {current}")
        chain.append(current)
        current = spec.patterns[current].parent
    return chain


def members(spec: EnsembleSpec, pattern: int) -> list[int]:
    """Neuron indices of ``pattern``: the targets of its internal excitation."""
    start = spec.offset(pattern)
    return list(range(start, start + spec.patterns[pattern].size))


def validate(spec: EnsembleSpec) -> list[str]:
    """Check every EnsembleSpec invariant; return all violations (empty = ok)."""
    violations: list[str] = []
    n_pat = spec.num_patterns
    if n_pat == 0:
        violations.append("ensemble has no patterns")
    # Pointer doubling: a root links to the sentinel n_pat, a missing parent to itself.
    jump = [
        n_pat if p.parent is None else p.parent if 0 <= p.parent < n_pat else pos
        for pos, p in enumerate(spec.patterns)
    ] + [n_pat]
    for _ in range(n_pat.bit_length()):
        jump = [jump[j] for j in jump]
    for pos, pat in enumerate(spec.patterns):
        if pat.id != pos:
            violations.append(f"pattern at position {pos} has id {pat.id}")
        if pat.size < 1:
            violations.append(f"empty pattern {pos}")
        if pat.parent is not None and not 0 <= pat.parent < n_pat:
            violations.append(f"pattern {pos} parent {pat.parent} does not exist")
        elif jump[pos] != n_pat:
            violations.append(f"no root above pattern {pos}: nesting cycle or missing parent")
    unit, weight = spec.excitatory_unit, spec.inhibitory_weight
    if not (math.isfinite(unit) and unit > 0):
        violations.append(f"excitatory_unit must be finite and > 0, got {unit}")
    if not (math.isfinite(weight) and weight >= 0):
        violations.append(f"inhibitory_weight must be finite and >= 0, got {weight}")
    return violations


def check_rows(what: str, *factors: int) -> None:
    """Refuse a request for more than MAX_ROWS rows, the product of
    ``factors``; ``what`` names the factors in the message."""
    if math.prod(factors) > MAX_ROWS:
        raise ValidationError(f"{what} exceeds the budget of {MAX_ROWS} rows")


def _check_pattern(spec: EnsembleSpec, pattern: int) -> None:
    if not 0 <= pattern < spec.num_patterns:
        raise UnknownPattern(f"pattern {pattern} not in 0..{spec.num_patterns - 1}")
