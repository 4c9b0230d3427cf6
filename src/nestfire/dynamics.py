"""Discrete-time firing simulation over a nested ensemble.

Each step applies the increment/decrement reinforcement rule synchronously:
every neuron of a firing pattern p gains ``excitatory_unit * size(p)`` (each
firing neuron hands one unit to every member of its own pattern, itself
included), and every neuron whose pattern strictly encloses a firing pattern
q loses ``inhibitory_weight * excitatory_unit * size(q)`` per such q.
Strengths clamp at zero; they never go negative.

Every update is the same for all members of a pattern, so the step kernel
and its traces hold one strength per pattern, and a trace's neurons are
``(pattern, count)`` blocks: nothing holds a value per neuron. The kernel
and a table's views are plain lists, and nothing here imports numpy.
Queries on a trace live in ``readback``, which ``simulate`` never loads.

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
  down inward, one level per step. The gate tests ``strength > 0`` on
  rounded sums, so a residue exact arithmetic would make 0 keeps it open.

``run`` is a pure function over values: it never mutates its inputs, so
independent runs can share specs freely.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import groupby
from operator import add, sub

from .errors import SpecMismatch, ValidationError, WrongShape
# bench/tracing.py swaps ``members`` (not called here) and ``ancestors`` (see
# ``run``) by name, so both stay bound; tests/test_traced_names.py pins them.
from .topology import EnsembleSpec, Frozen, _whole, ancestors, check_rows, members, validate

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

    The constructor takes one row of strengths, integers or floats, per step
    and one pattern per neuron, as lists or as anything with ``tolist()``.
    A table holds the strengths as one flat sequence, step after step, and
    the map as ``(pattern, count)`` blocks of neighbouring neurons; its views
    ``strength`` and ``pattern_of`` are new lists on each read. Tables are
    equal only to themselves; the repr shows the strengths.
    """

    _fields = ("strength",)  # a view, which no annotation names

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, strength, pattern_of) -> None:
        given = [x.tolist() if hasattr(x, "tolist") else x for x in (strength, pattern_of)]
        try:
            rows, labels = [list(row) for row in given[0]], list(given[1])
        except TypeError:  # a number where a sequence belongs, as in a 1-D strength
            raise WrongShape("strength must be a sequence of rows, pattern_of a sequence") from None
        if not all(type(p) is int for p in labels):
            raise WrongShape("pattern_of must hold one pattern number per neuron")
        width = len(set(labels))
        if any(len(row) != width for row in rows):
            raise WrongShape(f"each row of strength must be {width} wide, one strength per pattern")
        flat = [value for row in rows for value in row]
        for kind in map(type, flat):  # bools, complex numbers and objects do not read back
            if kind is not int and kind is not float:
                raise WrongShape(f"strengths must be integers or floats, got {kind.__name__}")
        blocks = [(p, len(list(block))) for p, block in groupby(labels)]
        self._hold(flat, len(rows), blocks)

    def _hold(self, rows: list | array, steps: int, blocks: list) -> TraceTable:
        """Store the one form of a table, whose blocks must name the patterns
        0..P-1: ``run`` and ``read_trace`` make their tables with this."""
        patterns = {p for p, _ in blocks}
        num = len(patterns)
        if patterns != set(range(num)):
            raise WrongShape(f"pattern_of must name its {num} patterns 0..{num - 1}")
        vars(self).update(_rows=rows, num_steps=steps, num_patterns=num, _blocks=blocks)
        return self

    @property
    def num_neurons(self) -> int:
        return sum(count for _, count in self._blocks)

    @property
    def strength(self) -> list[list[float]]:
        """One list of strengths per step, one strength per pattern."""
        rows, num = self._rows, self.num_patterns
        return [list(rows[t * num : (t + 1) * num]) for t in range(self.num_steps)]

    @property
    def pattern_of(self) -> list[int]:
        """Each neuron's pattern, neurons in order."""
        return [p for p, count in self._blocks for _ in range(count)]


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
    check_rows("steps x neurons", steps, spec.num_neurons)
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
    # Carried from step to step: strengths, the last firing list, which the
    # (gain, inh) sums are for, those sums, ``reach``, from which on no pattern
    # has fired or been inhibited yet, and ``ever_active``.
    strength, last, gain, inh, reach = [0.0] * num, [], [0.0] * num, [0.0] * num, 0
    ever_active = [False] * num
    rows = array("d")
    for t in range(1, steps + 1):
        if free_run:
            # Only roots (with the drive on) and children of last step's
            # firing patterns pass the gate.
            gated = (roots if t <= drive else []) + [c for q in last for c in children[q]]
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
        last = firing
        rows.fromlist(strength)
    # Patterns occupy neighbouring blocks of neurons, in pattern order.
    blocks = [(k, p.size) for k, p in enumerate(spec.patterns)]
    return object.__new__(TraceTable)._hold(rows, steps, blocks)
