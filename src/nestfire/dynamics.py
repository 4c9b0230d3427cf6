"""Discrete-time firing simulation over a nested ensemble.

Each step applies the increment/decrement reinforcement rule synchronously:
every neuron of a firing pattern p gains ``excitatory_unit * size(p)`` (each
firing neuron hands one unit to every member of its own pattern, itself
included), and every neuron whose pattern strictly encloses a firing pattern
q loses ``inhibitory_weight * excitatory_unit * size(q)`` per such q.
Strengths clamp at zero; they never go negative.

Every update is the same for all members of a pattern, so the step kernel
and its traces hold one strength per pattern, and a trace's neurons are
``(pattern, count)`` blocks: nothing holds a value per neuron until a caller
asks for one. The kernel works on plain lists of one float per pattern.
numpy is imported only for a table's arrays, on first read. Queries on a
trace live in ``readback``, which ``simulate`` never loads.

Two firing modes exist:

* ``scheduled`` -- a pattern fires at step t iff t has reached its activation
  step. This is the protocol that produces the reference strength table
  (5 patterns x 5 neurons, unit excitation, half-weight inhibition,
  activation steps 1..5).
* ``free_run`` -- additionally gated: a pattern keeps firing only while its
  strength stays positive (or it has never fired) and its parent fired on
  the previous step; root patterns instead require the external drive,
  which ``run``'s ``drive`` keeps on through a given step (every step by
  default). Once a root stops firing, inhibited down to zero or cut off
  from the drive, its children lose the gate and the whole cascade winds
  down inward, one level per step.

``run`` is a pure function over values: it never mutates its inputs, so
independent runs can share specs freely.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import groupby
from operator import add, sub
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import SpecMismatch, ValidationError, WrongShape
# bench/tracing.py swaps ``members`` (not called here) and ``ancestors`` (see
# ``_compile``) by name, so both stay bound; tests/test_traced_names.py pins them.
from .topology import EnsembleSpec, Frozen, _whole, ancestors, check_rows, members, validate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MODE_SCHEDULED",
    "MODE_FREE_RUN",
    "Schedule",
    "TraceTable",
    "run",
]

MODE_SCHEDULED = "scheduled"
MODE_FREE_RUN = "free_run"


class Schedule(Frozen):
    """First firing step t_k for every pattern (steps are 1-based)."""

    _fields = ("activation_step",)
    activation_step: tuple[int, ...]

    def _check(self) -> None:
        steps = self.activation_step
        steps = tuple(_whole(t, f"activation step for pattern {k}", 1) for k, t in enumerate(steps))
        object.__setattr__(self, "activation_step", steps)

    @classmethod
    def staggered(cls, num_patterns: int, interval: int = 1) -> "Schedule":
        """One new pattern per ``interval`` steps, outermost first: t_k = 1 + k*interval."""
        interval = _whole(interval, "interval", 1)
        return cls(tuple(1 + k * interval for k in range(_whole(num_patterns, "num_patterns", 0))))


class TraceTable(Frozen):
    """Step x pattern strengths plus a neuron-to-pattern map naming every pattern.

    A table holds its strengths, integers or floats, as one flat sequence
    of Python numbers, step after step (``run``'s ``array('d')``, or the
    constructor's array converted), and its map as ``(pattern, count)``
    blocks of neighbouring neurons. The arrays ``strength``, ``pattern_of``
    and ``values`` are built from those, importing numpy, when first read;
    the constructor keeps the arrays it was given as the first two. Tables
    are equal only to themselves; the repr shows the strengths.
    """

    _fields = ("strength",)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, strength: np.ndarray, pattern_of: np.ndarray) -> None:
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "pattern_of", pattern_of)
        if strength.dtype.kind not in "iuf":  # bools, complex numbers and objects do not read back
            raise WrongShape(f"strengths must be integers or floats, got dtype {strength.dtype}")
        shapes_ok = self.strength.ndim == 2 and self.pattern_of.ndim == 1
        # A set, not np.unique: that imports numpy.ma (tens of ms) on first use.
        if not shapes_ok or set(self.pattern_of.tolist()) != set(range(self.strength.shape[1])):
            raise WrongShape(f"pattern_of must name each pattern of strength{self.strength.shape}")
        blocks = [(p, len(list(block))) for p, block in groupby(pattern_of.tolist())]
        self._hold(strength.ravel().tolist(), strength.shape, blocks)

    def _hold(self, rows: Sequence, shape: tuple[int, int], blocks: list) -> TraceTable:
        """Store the one form of a table: ``run`` makes its tables with this."""
        vars(self).update(_rows=rows, num_steps=shape[0], num_patterns=shape[1], _blocks=blocks)
        return self

    @property
    def num_neurons(self) -> int:
        return sum(count for _, count in self._blocks)

    @cached_property
    def strength(self) -> np.ndarray:
        import numpy as np

        return np.array(self._rows, dtype=float).reshape(self.num_steps, self.num_patterns)

    @cached_property
    def pattern_of(self) -> np.ndarray:
        import numpy as np

        patterns, counts = np.array(self._blocks, dtype=int).reshape(-1, 2).T
        return np.repeat(patterns, counts)

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only step x neuron matrix: each neuron holds its pattern's strength."""
        values = self.strength[:, self.pattern_of]
        values.flags.writeable = False
        return values


def run(
    spec: EnsembleSpec,
    schedule: Schedule,
    steps: int,
    mode: str = MODE_SCHEDULED,
    drive: int | None = None,
) -> TraceTable:
    """Run ``steps`` steps from the all-zero state and collect the full trace.
    In a free run the roots have the external drive through step ``drive``
    and not after it; ``None`` keeps it on for every step. A scheduled run
    ignores ``drive``. A run of more than ``topology.MAX_ROWS`` steps x
    neurons is refused."""
    steps = _whole(steps, "steps", 1)
    drive = steps if drive is None else _whole(drive, "drive", 0)
    advance = _compile(spec, schedule, mode, steps)
    check_rows("steps x neurons", steps, spec.num_neurons)
    rows = array("d")
    for t in range(1, steps + 1):
        rows.fromlist(advance(t, t <= drive))
    # Patterns occupy neighbouring blocks of neurons, in pattern order.
    blocks = [(k, p.size) for k, p in enumerate(spec.patterns)]
    return object.__new__(TraceTable)._hold(rows, (steps, spec.num_patterns), blocks)


def _compile(
    spec: EnsembleSpec, schedule: Schedule, mode: str, steps: int
) -> Callable[[int, bool], list[float]]:
    """Check a run of ``steps`` steps, compile it once and return its step kernel.
    ``advance(t, drive)`` computes step ``t`` from the state the kernel keeps, all
    zero at first, and returns the new strengths."""
    if mode not in (MODE_SCHEDULED, MODE_FREE_RUN):
        raise ValidationError(f"unknown mode {mode!r}")
    violations = validate(spec)
    if violations:
        raise ValidationError("; ".join(violations))
    if len(schedule.activation_step) != spec.num_patterns:
        raise SpecMismatch(
            f"schedule covers {len(schedule.activation_step)} patterns,"
            f" spec has {spec.num_patterns}"
        )
    unit, weight = spec.excitatory_unit, spec.inhibitory_weight
    largest = max(p.size for p in spec.patterns)
    # No strength exceeds steps*unit*largest, nor a step's inhibition weight*unit*neurons.
    try:
        bound = max(steps * unit * largest, weight * unit * spec.num_neurons)
    except OverflowError:  # a size or step count beyond float range
        bound = math.inf
    if not math.isfinite(bound):
        raise ValidationError(f"excitatory_unit {unit} and inhibitory_weight {weight} overflow")
    num = spec.num_patterns
    parent = [p.parent for p in spec.patterns]
    roots, children = [], [[] for _ in range(num)]
    for k, up in enumerate(parent):
        (roots if up is None else children[up]).append(k)
    activation = schedule.activation_step
    # The patterns due by step t are the first bisect_right(due_steps, t) of due.
    due = sorted(range(num), key=activation.__getitem__)
    due_steps = [activation[k] for k in due]
    excitation = [unit * p.size for p in spec.patterns]
    inhibition = [weight * unit * p.size for p in spec.patterns]
    # A firing pattern inhibits every pattern up its parent links, and the walk
    # stores no ancestor list, so memory stays O(P). end[q], one past the
    # highest pattern q's firing touches, is set when q first fires: from its
    # parent's end, else by ``ancestors``, which a pass over ``children`` could
    # replace but which the benchmark's traced replay times as its topology layer.
    end: list[int | None] = [None] * num
    free_run = mode == MODE_FREE_RUN
    # Kept between steps: strengths, the last firing list, which the (gain,
    # inh) sums are for, those sums, and ``reach``, from which on no pattern
    # has fired or been inhibited yet. ``ever_active`` changes in place.
    ever_active = [False] * num
    kept = [[0.0] * num, [], [0.0] * num, [0.0] * num, 0]

    def advance(t: int, drive: bool) -> list[float]:
        strength, last, gain, inh, reach = kept
        if free_run:
            # Only roots (with the drive on) and children of last step's
            # firing patterns pass the gate.
            gated = (roots if drive else []) + [c for q in last for c in children[q]]
            firing = [
                k
                for k in sorted(gated)
                if activation[k] <= t and (strength[k] > 0 or not ever_active[k])
            ]
        else:
            firing = sorted(due[: bisect_right(due_steps, t)])
        # Inhibition is summed one firing pattern at a time, in ascending
        # order: for non-dyadic weights another order changes the low bits,
        # and traces are pinned byte for byte. The sums, like the gains,
        # depend on the firing list alone, so when the list they were summed
        # for is a prefix of this one, they are extended by the newcomers
        # rather than summed anew.
        new = firing[len(last) :]
        if firing[: len(last)] != last:
            gain, inh, new = [0.0] * num, [0.0] * num, firing
        for q in new:
            if end[q] is None:
                up = parent[q]
                known = up is not None and end[up] is not None
                end[q] = max(q + 1, end[up]) if known else max([q, *ancestors(spec, q)]) + 1
            a, w = parent[q], inhibition[q]
            while a is not None:
                inh[a] += w
                a = parent[a]
            gain[q], ever_active[q] = excitation[q], True
            reach = max(reach, end[q])
        # From ``reach`` on, no pattern has fired or received inhibition yet,
        # and the update (s + 0.0) - 0.0 leaves their strength s = 0.0 as it is.
        head = map(sub, map(add, strength, gain), inh[:reach])
        strength = [v if v >= 0.0 else 0.0 for v in head] + strength[reach:]
        kept[:] = strength, firing, gain, inh, reach
        return strength

    return advance
