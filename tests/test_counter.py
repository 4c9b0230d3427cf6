"""Counter: lifecycle, emission contract, absorbing quiescence, and agreement
with the first activations of the free-run dynamics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestfire import (
    MODE_FREE_RUN,
    CounterSpec,
    InvalidDepth,
    Phase,
    Schedule,
    ValidationError,
    build_linear,
    initial_state,
    run_counter,
    start,
    step,
    tick,
    topology,
)


def replay(spec, ticks):
    """Apply ``ticks`` ticks from the initial state, collecting every state."""
    states = [start(spec)]
    for _ in range(ticks):
        states.append(tick(states[-1], spec))
    return states


class TestStart:
    def test_initial_state_is_idle(self):
        state = start(CounterSpec(depth=3))
        assert state.phase is Phase.IDLE
        assert state.tick == 0
        assert state.emissions == ()

    def test_depth_one_ready(self):
        state = start(CounterSpec(depth=1))
        assert state.phase is Phase.IDLE
        next_state = tick(state, CounterSpec(depth=1))
        assert [(e.level, e.tick) for e in next_state.emissions] == [(1, 1)]

    def test_zero_depth_rejected(self):
        with pytest.raises(InvalidDepth):
            start(CounterSpec(depth=0))
        with pytest.raises(InvalidDepth):
            run_counter(CounterSpec(depth=0))


class TestTick:
    def test_depth_three_cascade(self):
        spec = CounterSpec(depth=3)
        states = replay(spec, 3)
        assert [(e.level, e.tick) for e in states[-1].emissions] == [(1, 1), (2, 2), (3, 3)]
        assert states[-1].phase is Phase.CASCADING
        assert states[-1].level == 3

    def test_tick_five_is_quiescent_with_three_emissions(self):
        spec = CounterSpec(depth=3)
        state = replay(spec, 5)[-1]
        assert state.phase is Phase.QUIESCENT
        assert len(state.emissions) == 3

    def test_depth_one_quiescent_at_three(self):
        spec = CounterSpec(depth=1)
        states = replay(spec, 3)
        assert [s.phase for s in states] == [
            Phase.IDLE,
            Phase.CASCADING,
            Phase.SHUTTING_DOWN,
            Phase.QUIESCENT,
        ]
        assert len(states[-1].emissions) == 1

    def test_shutdown_phases_emit_nothing(self):
        spec = CounterSpec(depth=4)
        states = replay(spec, 10)
        for state in states:
            if state.phase in (Phase.SHUTTING_DOWN, Phase.QUIESCENT):
                assert len(state.emissions) == spec.depth

    def test_quiescent_is_absorbing(self):
        spec = CounterSpec(depth=2)
        state = replay(spec, 4)[-1]
        assert state.phase is Phase.QUIESCENT
        assert tick(state, spec) == state
        assert tick(tick(state, spec), spec) == state


class TestRunCounter:
    def test_depth_three(self):
        events, final = run_counter(CounterSpec(depth=3))
        assert [(e.level, e.tick) for e in events] == [(1, 1), (2, 2), (3, 3)]
        assert final.phase is Phase.QUIESCENT
        assert final.tick == 5

    def test_depth_ten(self):
        events, final = run_counter(CounterSpec(depth=10))
        assert [e.level for e in events] == list(range(1, 11))
        assert [e.tick for e in events] == list(range(1, 11))
        assert final.tick == 12

    def test_depth_one(self):
        events, final = run_counter(CounterSpec(depth=1))
        assert [(e.level, e.tick) for e in events] == [(1, 1)]
        assert final.tick == 3

    def test_depth_over_the_row_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_ROWS", 3)
        assert len(run_counter(CounterSpec(depth=3))[0]) == 3
        for call in (run_counter, start):
            with pytest.raises(ValidationError, match="counter depth exceeds the budget of 3"):
                call(CounterSpec(depth=4))

    def test_label_is_carried_on_spec(self):
        spec = CounterSpec(depth=2, label="refractory-timer")
        events, _ = run_counter(spec)
        assert spec.label == "refractory-timer"
        assert len(events) == 2


@given(depth=st.integers(1, 30))
def test_counter_contract(depth):
    spec = CounterSpec(depth=depth)
    events, final = run_counter(spec)
    # one emission per level, in order, at ticks 1..d
    assert [(e.level, e.tick) for e in events] == [(k, k) for k in range(1, depth + 1)]
    # quiescent in exactly d+2 ticks, absorbing afterwards
    assert final.phase is Phase.QUIESCENT
    assert final.tick == depth + 2
    assert tick(final, spec) == final
    # emissions strictly increasing and never beyond depth
    assert all(e.level <= depth for e in events)


@given(
    depth=st.integers(1, 12),
    size=st.integers(1, 5),
    unit=st.sampled_from([0.25, 1.0, 3.0]),
    delta=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_count_ticks_match_free_run_first_activations(depth, size, unit, delta):
    """Level k counts at the step pattern k-1 first fires in a driven free run
    of a staggered linear chain. Only the first activations are compared: the
    wind-down after the drive is removed depends on the inhibitory weight."""
    spec = build_linear(depth, size, unit, delta)
    schedule = Schedule.staggered(depth)
    state = initial_state(spec)
    first_fire = [None] * depth
    for _ in range(depth):
        state = step(state, spec, schedule, MODE_FREE_RUN)
        for k in np.flatnonzero(state.active):
            if first_fire[k] is None:
                first_fire[k] = state.step
    events, _ = run_counter(CounterSpec(depth=depth))
    assert [e.tick for e in events] == first_fire
    assert [e.level for e in events] == list(range(1, depth + 1))
