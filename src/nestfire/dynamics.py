"""Discrete-time firing simulation over a nested ensemble.

Each step applies the increment/decrement reinforcement rule synchronously:
every neuron of a firing pattern p gains ``excitatory_unit * size(p)`` (each
firing neuron hands one unit to every member of its own pattern, itself
included), and every neuron whose pattern strictly encloses a firing pattern
q loses ``inhibitory_weight * excitatory_unit * size(q)`` per such q.
Strengths clamp at zero; they never go negative.

Every update is the same for all members of a pattern, so states and traces
hold one strength per pattern, and a trace's neurons are ``(pattern, count)``
blocks: nothing holds a value per neuron until a caller asks for one. The
step kernel works on plain lists of one float per pattern. numpy is imported
only where arrays are built: a table's ``strength``, ``pattern_of`` and
``values`` on first read, ``golden_table``, and the ``SimState`` arrays of
``initial_state`` and ``step``. So ``run`` followed by ``pattern_strength``,
``first_zero_step``, ``scenario.write_trace`` or ``readback.compare_golden``
never loads it.

Two firing modes exist:

* ``scheduled`` -- a pattern fires at step t iff t has reached its activation
  step. This is the protocol that produces the reference strength table
  (5 patterns x 5 neurons, unit excitation, half-weight inhibition,
  activation steps 1..5).
* ``free_run`` -- additionally gated: a pattern keeps firing only while its
  strength stays positive (or it has never fired) and its parent fired on
  the previous step; root patterns instead require the external drive flag.
  Once the outermost pattern is inhibited down to zero it stops firing,
  which starves its children of the gate and the whole cascade winds down
  inward, one level per step.

All updates are pure functions over values: ``step`` and ``run`` never
mutate their inputs, so independent runs can share specs freely.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import groupby
from operator import add, sub
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import OutOfRange, SpecMismatch, ValidationError, WrongShape
# bench/tracing.py swaps ``members`` (not called here) and ``ancestors`` (see
# ``_compile``) by name, so both stay bound; tests/test_traced_names.py pins them.
from .topology import EnsembleSpec, Frozen, _whole, ancestors, check_rows, members, validate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MODE_SCHEDULED",
    "MODE_FREE_RUN",
    "Schedule",
    "SimState",
    "TraceTable",
    "initial_state",
    "step",
    "run",
    "pattern_strength",
    "first_zero_step",
    "golden_table",
    "with_drive",
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


class SimState(NamedTuple):
    """Snapshot after ``step`` simulation steps.

    ``strength`` holds one accumulated signal per pattern, shared by all of
    its members; ``active`` marks the patterns that fired on the step just
    computed and ``ever_active`` those that have fired at least once.
    ``drive`` is the external energy supply consulted by root patterns in
    free-run mode.
    """

    step: int
    strength: np.ndarray
    active: np.ndarray
    ever_active: np.ndarray
    drive: bool = True

    # Arrays have no single truth value: states are equal only to themselves.
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


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


def initial_state(spec: EnsembleSpec) -> SimState:
    """The all-zero state before any step has run."""
    import numpy as np

    flags = np.zeros(spec.num_patterns, dtype=bool)
    return SimState(0, np.zeros(spec.num_patterns), flags, flags.copy())


def step(
    state: SimState,
    spec: EnsembleSpec,
    schedule: Schedule,
    mode: str = MODE_SCHEDULED,
) -> SimState:
    """Advance the simulation by one step and return the new state."""
    import numpy as np

    # The kernel gets lists, not the state's arrays, which thus stay as they are.
    firing = np.flatnonzero(state.active).tolist()
    start = state.strength.tolist(), state.ever_active.tolist(), firing
    t = _whole(state.step, "state step", 0) + 1
    advance = _compile(spec, schedule, mode, t, start)
    shape = (spec.num_patterns,)
    if {state.strength.shape, state.active.shape, state.ever_active.shape} != {shape}:
        raise SpecMismatch(f"state arrays need one entry for each of {spec.num_patterns} patterns")
    strength, ever_active, firing = advance(t, state.drive)
    active = np.zeros(spec.num_patterns, dtype=bool)
    active[firing] = True
    strength, ever_active = np.array(strength, dtype=float), np.array(ever_active, dtype=bool)
    return SimState(t, strength, active, ever_active, state.drive)


def run(
    spec: EnsembleSpec,
    schedule: Schedule,
    steps: int,
    mode: str = MODE_SCHEDULED,
) -> TraceTable:
    """Run ``steps`` steps from the all-zero state and collect the full trace.
    A run of more than ``topology.MAX_ROWS`` steps x neurons is refused."""
    steps = _whole(steps, "steps", 1)
    advance = _compile(spec, schedule, mode, steps)
    check_rows("steps x neurons", steps, spec.num_neurons)
    rows = array("d")
    for t in range(1, steps + 1):
        rows.fromlist(advance(t, True)[0])
    # Patterns occupy neighbouring blocks of neurons, in pattern order.
    blocks = [(k, p.size) for k, p in enumerate(spec.patterns)]
    return object.__new__(TraceTable)._hold(rows, (steps, spec.num_patterns), blocks)


def pattern_strength(trace: TraceTable, pattern: int, t: int) -> float:
    """The strength every member of ``pattern`` holds after step ``t`` (1-based)."""
    t = _whole(t, "step", 1, trace.num_steps, OutOfRange)
    pattern = _whole(pattern, "pattern", 0, trace.num_patterns - 1, OutOfRange)
    return float(trace._rows[(t - 1) * trace.num_patterns + pattern])


def first_zero_step(trace: TraceTable, pattern: int) -> int | None:
    """Earliest step at which ``pattern`` returns to 0 after having been
    positive; None if that never happens within the trace."""
    pattern = _whole(pattern, "pattern", 0, trace.num_patterns - 1, OutOfRange)
    was_positive = False
    for t, value in enumerate(map(float, trace._rows[pattern :: trace.num_patterns]), 1):
        if was_positive and value == 0.0:
            return t
        if value > 0.0:
            was_positive = True
    return None


def golden_table(trace: TraceTable) -> np.ndarray:
    """Extract the 25 x 3 grid (neurons 1..25 at t = 3, 4, 5) used for
    golden comparison against the reference strength table."""
    import numpy as np

    return np.array(_golden_rows(trace))


def _golden_rows(trace: TraceTable) -> list[list[float]]:
    """The grid of :func:`golden_table` as one list of Python numbers per neuron."""
    if trace.num_neurons != 25 or trace.num_steps < 5:
        raise WrongShape(
            f"need a 25-neuron trace of >= 5 steps, got {trace.num_neurons} neurons"
            f" x {trace.num_steps} steps"
        )
    rows, num = trace._rows, trace.num_patterns
    columns = [rows[t * num : (t + 1) * num] for t in (2, 3, 4)]
    return [[column[p] for column in columns] for p, count in trace._blocks for _ in range(count)]


def with_drive(state: SimState, drive: bool) -> SimState:
    """Copy of ``state`` with the external drive flag set; free-run root
    patterns stop firing once the drive is removed."""
    return state._replace(drive=drive)


def _compile(
    spec: EnsembleSpec, schedule: Schedule, mode: str, steps: int, start: tuple | None = None
) -> Callable[[int, bool], tuple[list[float], list[bool], list[int]]]:
    """Check a run of ``steps`` steps, compile it once and return its step kernel.
    ``advance(t, drive)`` computes step ``t`` from the state the kernel keeps, all
    zero at first or else ``start``'s ``(strength, ever_active, firing)`` lists, and
    returns the new ``(strength, ever_active, firing)``. The next call changes that
    ``ever_active`` list in place, so a caller copies whatever it keeps of it."""
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
    # Kept between steps: strengths, ever-active flags, the last firing list,
    # the firing list the (gain, inh) sums are for, those sums, and ``reach``,
    # from which on no pattern has fired or been inhibited yet. ``step`` starts
    # with nothing summed and, as its strengths may be anything, all in reach.
    strength, ever_active, firing = start or ([0.0] * num, [False] * num, [])
    kept = [strength, ever_active, firing, [], [0.0] * num, [0.0] * num, num if start else 0]

    def advance(t: int, drive: bool) -> tuple[list[float], list[bool], list[int]]:
        strength, ever_active, last, summed, gain, inh, reach = kept
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
        new = firing[len(summed) :]
        if firing[: len(summed)] != summed:
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
        kept[:] = strength, ever_active, firing, firing, gain, inh, reach
        return strength, ever_active, firing

    return advance
