"""Timer/counter/battery built from a nested chain of patterns.

Lifecycle: an on-switch starts the outermost level; activation then cascades
inward one level per tick, and each level emits one count event on
activation. When the innermost level activates it signals the off-switch;
on the next tick the off-switch inhibits the on-switch (removing the
external drive), and one tick later the whole group is quiescent.

The trajectory depends only on the depth d, so it is written in closed
form: level k counts at tick k, the off-switch acts at tick d+1, and the
counter is quiescent from tick d+2 on (absorbing). The first activations
match the free-run dynamics of a staggered linear chain (level k first
fires at step k), but the wind-down does not follow from the firing rules:
with the drive removed at d+1, a chain stops firing anywhere from tick d+1
to 2d depending on the inhibitory weight, and its strengths never return to
zero. The on/off switches are therefore control signals, not patterns with
their own dynamics.
"""

from __future__ import annotations

import enum

from .errors import InvalidDepth
from .topology import Frozen, brief, check_rows

__all__ = [
    "Phase",
    "CounterSpec",
    "CountEvent",
    "CounterState",
    "start",
    "tick",
    "run_counter",
]


class Phase(enum.Enum):
    IDLE = "idle"
    CASCADING = "cascading"
    SHUTTING_DOWN = "shutting_down"
    QUIESCENT = "quiescent"


class CounterSpec(Frozen):
    """Chain depth plus an optional name carried on emitted signals."""

    _fields = ("depth", "label")
    depth: int
    label: str | None = None


class CountEvent(Frozen):
    """One count: the nesting level (1-based) that activated, and when."""

    _fields = ("level", "tick")
    level: int
    tick: int


class CounterState(Frozen):
    """Counter snapshot; ``level`` is set only while cascading."""

    _fields = ("phase", "level", "tick", "emissions")
    phase: Phase
    level: int | None
    tick: int
    emissions: tuple[CountEvent, ...]


def start(spec: CounterSpec) -> CounterState:
    """Idle state, ready to cascade from level 1 on the first tick."""
    _check_depth(spec)
    return _state_at(spec, 0)


def tick(state: CounterState, spec: CounterSpec) -> CounterState:
    """Advance the counter by one tick; quiescence is absorbing."""
    _check_depth(spec)
    if state.phase is Phase.QUIESCENT:
        return state
    return _state_at(spec, state.tick + 1)


def run_counter(spec: CounterSpec) -> tuple[list[CountEvent], CounterState]:
    """Every emission and the final state, reached at tick depth + 2."""
    _check_depth(spec)
    final = _state_at(spec, spec.depth + 2)
    return list(final.emissions), final


def _state_at(spec: CounterSpec, t: int) -> CounterState:
    """The state at tick ``t``: idle at 0, cascading at level t up to the
    depth, shutting down one tick later, quiescent after that."""
    d = spec.depth
    emissions = tuple(CountEvent(k, k) for k in range(1, min(t, d) + 1))
    if t == 0:
        return CounterState(Phase.IDLE, None, t, emissions)
    if t <= d:
        return CounterState(Phase.CASCADING, t, t, emissions)
    if t == d + 1:
        return CounterState(Phase.SHUTTING_DOWN, None, t, emissions)
    return CounterState(Phase.QUIESCENT, None, t, emissions)


def _check_depth(spec: CounterSpec) -> None:
    if spec.depth < 1:
        raise InvalidDepth(f"counter depth must be >= 1, got {brief(spec.depth)}")
    check_rows("counter depth", spec.depth)  # one count event per level
