"""Discrete-time firing simulation over a nested ensemble.

Each step applies the increment/decrement reinforcement rule synchronously:
every neuron of a firing pattern p gains ``excitatory_unit * size(p)`` (each
firing neuron hands one unit to every member of its own pattern, itself
included), and every neuron whose pattern strictly encloses a firing pattern
q loses ``inhibitory_weight * excitatory_unit * size(q)`` per such q.
Strengths clamp at zero; they never go negative.

Every update is the same for all members of a pattern, so states and traces
hold one strength per pattern; ``TraceTable.values`` spreads a trace over
the neurons, laid out as ``topology.members`` says.

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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import OutOfRange, SpecMismatch, ValidationError, WrongShape
from .topology import EnsembleSpec, ancestors, check_rows, members, validate

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


@dataclass(frozen=True)
class Schedule:
    """First firing step t_k for every pattern (steps are 1-based)."""

    activation_step: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "activation_step", tuple(int(t) for t in self.activation_step))
        for k, t in enumerate(self.activation_step):
            if t < 1:
                raise ValidationError(f"activation step for pattern {k} must be >= 1, got {t}")

    @classmethod
    def staggered(cls, num_patterns: int, interval: int = 1) -> "Schedule":
        """One new pattern per ``interval`` steps, outermost first: t_k = 1 + k*interval."""
        if interval < 1:
            raise ValidationError(f"interval must be >= 1, got {interval}")
        return cls(tuple(1 + k * interval for k in range(num_patterns)))


@dataclass(frozen=True, eq=False)
class SimState:
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


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Step x pattern strengths plus a neuron-to-pattern map naming every pattern."""

    strength: np.ndarray
    pattern_of: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shapes_ok = self.strength.ndim == 2 and self.pattern_of.ndim == 1
        # A set, not np.unique: that imports numpy.ma (tens of ms) on first use.
        if not shapes_ok or set(self.pattern_of.tolist()) != set(range(self.strength.shape[1])):
            raise WrongShape(f"pattern_of must name each pattern of strength{self.strength.shape}")

    @property
    def num_steps(self) -> int:
        return self.strength.shape[0]

    @property
    def num_neurons(self) -> int:
        return self.pattern_of.shape[0]

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only step x neuron matrix: each neuron holds its pattern's strength."""
        values = self.strength[:, self.pattern_of]
        values.flags.writeable = False
        return values


def initial_state(spec: EnsembleSpec) -> SimState:
    """The all-zero state before any step has run."""
    return SimState(
        step=0,
        strength=np.zeros(spec.num_patterns),
        active=np.zeros(spec.num_patterns, dtype=bool),
        ever_active=np.zeros(spec.num_patterns, dtype=bool),
    )


def step(
    state: SimState,
    spec: EnsembleSpec,
    schedule: Schedule,
    mode: str = MODE_SCHEDULED,
) -> SimState:
    """Advance the simulation by one step and return the new state."""
    advance = _compile(spec, schedule, mode, state.step + 1)
    shape = (spec.num_patterns,)
    if {state.strength.shape, state.active.shape, state.ever_active.shape} != {shape}:
        raise SpecMismatch(f"state arrays need one entry for each of {spec.num_patterns} patterns")
    return advance(state)


def run(
    spec: EnsembleSpec,
    schedule: Schedule,
    steps: int,
    mode: str = MODE_SCHEDULED,
) -> TraceTable:
    """Run ``steps`` steps from the all-zero state and collect the full trace.
    A run of more than ``topology.MAX_ROWS`` steps x neurons is refused."""
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    advance = _compile(spec, schedule, mode, steps)
    check_rows("steps x neurons", steps, spec.num_neurons)
    state = initial_state(spec)
    rows = np.empty((steps, spec.num_patterns))
    for row in rows:
        state = advance(state)
        row[:] = state.strength
    pattern_of = np.empty(spec.num_neurons, dtype=int)
    for p in range(spec.num_patterns):
        pattern_of[members(spec, p)] = p
    return TraceTable(strength=rows, pattern_of=pattern_of)


def pattern_strength(trace: TraceTable, pattern: int, t: int) -> float:
    """The strength every member of ``pattern`` holds after step ``t`` (1-based)."""
    if not 1 <= t <= trace.num_steps:
        raise OutOfRange(f"step {t} not in 1..{trace.num_steps}")
    if not 0 <= pattern < trace.strength.shape[1]:
        raise OutOfRange(f"pattern {pattern} not present in trace")
    return float(trace.strength[t - 1, pattern])


def first_zero_step(trace: TraceTable, pattern: int) -> int | None:
    """Earliest step at which ``pattern`` returns to 0 after having been
    positive; None if that never happens within the trace."""
    was_positive = False
    for t in range(1, trace.num_steps + 1):
        value = pattern_strength(trace, pattern, t)
        if was_positive and value == 0.0:
            return t
        if value > 0.0:
            was_positive = True
    return None


def golden_table(trace: TraceTable) -> np.ndarray:
    """Extract the 25 x 3 grid (neurons 1..25 at t = 3, 4, 5) used for
    golden comparison against the reference strength table."""
    if trace.num_neurons != 25 or trace.num_steps < 5:
        raise WrongShape(
            f"need a 25-neuron trace of >= 5 steps, got {trace.num_neurons} neurons"
            f" x {trace.num_steps} steps"
        )
    return trace.values[2:5, :].T.copy()


def with_drive(state: SimState, drive: bool) -> SimState:
    """Copy of ``state`` with the external drive flag set; free-run root
    patterns stop firing once the drive is removed."""
    return replace(state, drive=drive)


def _compile(
    spec: EnsembleSpec, schedule: Schedule, mode: str, steps: int
) -> Callable[[SimState], SimState]:
    """Check a run of ``steps`` steps, compile it once and return the step kernel."""
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
        bound = np.inf
    if not np.isfinite(bound):
        raise ValidationError(f"excitatory_unit {unit} and inhibitory_weight {weight} overflow")
    sizes = np.array([p.size for p in spec.patterns])
    # Inhibition targets are looked up when a pattern first fires: a deep
    # chain has about depth**2 / 2 of them, and a short run needs few.
    targets: list[np.ndarray | None] = [None] * spec.num_patterns
    # Roots get -1, a valid index whose gate value np.where discards.
    parent = np.array([-1 if p.parent is None else p.parent for p in spec.patterns])
    is_root = parent < 0
    activation = np.array(schedule.activation_step)
    excitation = unit * sizes
    inhibition = weight * unit * sizes
    free_run = mode == MODE_FREE_RUN

    def advance(state: SimState) -> SimState:
        t = state.step + 1
        fires = activation <= t
        if free_run:
            alive = (state.strength > 0) | ~state.ever_active
            fires &= alive & np.where(is_root, state.drive, state.active[parent])
        # Inhibition is summed one firing pattern at a time, in ascending
        # order: for non-dyadic weights another order changes the low bits,
        # and traces are pinned byte for byte.
        inh = np.zeros(spec.num_patterns)
        for q in np.flatnonzero(fires):
            if targets[q] is None:
                targets[q] = np.array(ancestors(spec, q), dtype=np.intp)
            inh[targets[q]] += inhibition[q]
        exc = np.where(fires, excitation, 0.0)
        return SimState(
            step=t,
            strength=np.maximum(state.strength + exc - inh, 0.0),
            active=fires,
            ever_active=state.ever_active | fires,
            drive=state.drive,
        )

    return advance
