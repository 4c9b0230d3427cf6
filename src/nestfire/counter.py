"""Timer/counter/battery built from a nested chain of patterns.

Lifecycle: an on-switch starts the outermost level; activation then cascades
inward one level per tick, and each level counts once, on activation. When
the innermost level activates it signals the off-switch; on the next tick
the off-switch inhibits the on-switch (removing the external drive), and one
tick later the whole group is quiescent.

The trajectory depends only on the depth d, so it is written in closed
form: level k counts at tick k, the off-switch acts at tick d+1, and the
counter is quiescent from tick d+2 on (absorbing). A state holds the levels
counted so far as a ``range``, so it takes the same memory at any depth. The
first activations match the free-run dynamics of a staggered linear chain
(level k first fires at step k), but the wind-down does not follow from the
firing rules: with the drive removed at d+1, a chain stops firing anywhere
from tick d+1 to 2d depending on the inhibitory weight, and its strengths
never return to zero. The on/off switches are therefore control signals, not
patterns with their own dynamics.
"""

from __future__ import annotations

import enum

from .errors import InvalidDepth
from .topology import Frozen, _whole, check_rows

__all__ = [
    "Phase",
    "CounterSpec",
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
    """Chain depth: at least 1 (else InvalidDepth), and at most
    ``topology.MAX_ROWS``, since the command prints one line per level."""

    depth: int

    def _check(self) -> None:
        depth = _whole(self.depth, "counter depth", 1, error=InvalidDepth)
        check_rows("counter depth", depth)
        object.__setattr__(self, "depth", depth)


class CounterState(Frozen):
    """Counter snapshot: ``counted`` is the levels counted so far, level k at
    tick k; ``level`` is set only while cascading."""

    phase: Phase
    level: int | None
    tick: int
    counted: range


def start(spec: CounterSpec) -> CounterState:
    """Idle state, ready to cascade from level 1 on the first tick."""
    return _state_at(spec, 0)


def tick(state: CounterState, spec: CounterSpec) -> CounterState:
    """Advance the counter by one tick; quiescence is absorbing."""
    if state.phase is Phase.QUIESCENT:
        return state
    return _state_at(spec, _whole(state.tick, "counter tick", 0) + 1)


def run_counter(spec: CounterSpec) -> tuple[range, CounterState]:
    """The levels counted, level k at tick k, and the final state, reached at
    tick depth + 2."""
    final = _state_at(spec, spec.depth + 2)
    return final.counted, final


def _state_at(spec: CounterSpec, t: int) -> CounterState:
    """The state at tick ``t``: idle at 0, cascading at level t up to the
    depth, shutting down one tick later, quiescent after that."""
    d = spec.depth
    counted = range(1, min(t, d) + 1)
    if t == 0:
        return CounterState(Phase.IDLE, None, t, counted)
    if t <= d:
        return CounterState(Phase.CASCADING, t, t, counted)
    if t == d + 1:
        return CounterState(Phase.SHUTTING_DOWN, None, t, counted)
    return CounterState(Phase.QUIESCENT, None, t, counted)
