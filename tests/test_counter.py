"""Counter: lifecycle, count contract, absorbing quiescence, memory, and
agreement with the first activations of the free-run dynamics."""

import os
import tracemalloc
from contextlib import redirect_stdout

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
    cli,
    run_counter,
    run,
    start,
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
        assert list(state.counted) == []

    def test_depth_one_ready(self):
        state = start(CounterSpec(depth=1))
        assert state.phase is Phase.IDLE
        next_state = tick(state, CounterSpec(depth=1))
        assert list(next_state.counted) == [1]

    def test_zero_depth_rejected(self):
        with pytest.raises(InvalidDepth):
            start(CounterSpec(depth=0))
        with pytest.raises(InvalidDepth):
            run_counter(CounterSpec(depth=0))
        with pytest.raises(InvalidDepth):
            tick(start(CounterSpec(depth=3)), CounterSpec(depth=0))


class TestTick:
    def test_depth_three_cascade(self):
        spec = CounterSpec(depth=3)
        states = replay(spec, 3)
        assert list(states[-1].counted) == [1, 2, 3]
        assert states[-1].phase is Phase.CASCADING
        assert states[-1].level == 3

    def test_tick_five_is_quiescent_with_three_emissions(self):
        spec = CounterSpec(depth=3)
        state = replay(spec, 5)[-1]
        assert state.phase is Phase.QUIESCENT
        assert len(state.counted) == 3

    def test_depth_one_quiescent_at_three(self):
        spec = CounterSpec(depth=1)
        states = replay(spec, 3)
        assert [s.phase for s in states] == [
            Phase.IDLE,
            Phase.CASCADING,
            Phase.SHUTTING_DOWN,
            Phase.QUIESCENT,
        ]
        assert len(states[-1].counted) == 1

    def test_shutdown_phases_emit_nothing(self):
        spec = CounterSpec(depth=4)
        states = replay(spec, 10)
        for state in states:
            if state.phase in (Phase.SHUTTING_DOWN, Phase.QUIESCENT):
                assert len(state.counted) == spec.depth

    def test_quiescent_is_absorbing(self):
        spec = CounterSpec(depth=2)
        state = replay(spec, 4)[-1]
        assert state.phase is Phase.QUIESCENT
        assert tick(state, spec) == state
        assert tick(tick(state, spec), spec) == state


class TestRunCounter:
    def test_depth_three(self):
        levels, final = run_counter(CounterSpec(depth=3))
        assert list(levels) == [1, 2, 3]
        assert final.phase is Phase.QUIESCENT
        assert final.tick == 5

    def test_depth_ten(self):
        levels, final = run_counter(CounterSpec(depth=10))
        assert list(levels) == list(range(1, 11))
        assert final.tick == 12

    def test_depth_one(self):
        levels, final = run_counter(CounterSpec(depth=1))
        assert list(levels) == [1]
        assert final.tick == 3

    def test_depth_over_the_row_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_ROWS", 3)
        assert len(run_counter(CounterSpec(depth=3))[0]) == 3
        for call in (run_counter, start):
            with pytest.raises(ValidationError, match="counter depth exceeds the budget of 3"):
                call(CounterSpec(depth=4))


def traced_peak(call):
    """The ``tracemalloc`` peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_run_counter_holds_no_count_per_level(self):
        run_counter(CounterSpec(depth=1))  # the module is loaded before tracing
        peak = traced_peak(lambda: run_counter(CounterSpec(depth=10**6)))
        assert peak < 10_000, peak

    def test_command_prints_in_flat_memory(self):
        with open(os.devnull, "w") as null, redirect_stdout(null):
            assert cli.dispatch(["counter", "--depth", "1"]) == 0
            peaks = [
                traced_peak(lambda: cli.dispatch(["counter", "--depth", str(depth)]))
                for depth in (10**4, 10**5)
            ]
        assert peaks[1] < 3 * peaks[0], peaks


@given(depth=st.integers(1, 30))
def test_counter_contract(depth):
    spec = CounterSpec(depth=depth)
    levels, final = run_counter(spec)
    # one count per level, in order, level k at tick k
    assert list(levels) == list(range(1, depth + 1))
    # quiescent in exactly d+2 ticks, absorbing afterwards
    assert final.phase is Phase.QUIESCENT
    assert final.tick == depth + 2
    assert tick(final, spec) == final
    # counts strictly increasing and never beyond depth
    assert all(k <= depth for k in levels)


@given(
    depth=st.integers(1, 12),
    size=st.integers(1, 5),
    unit=st.sampled_from([0.25, 1.0, 3.0]),
    delta=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_count_ticks_match_free_run_first_activations(depth, size, unit, delta):
    """Level k counts at the step pattern k-1 first fires in a driven free run
    of a staggered linear chain, the first step its strength is positive.
    Only the first activations are compared: the wind-down after the drive
    is removed depends on the inhibitory weight."""
    spec, schedule = build_linear(depth, size, unit, delta), Schedule.staggered(depth)
    columns = zip(*run(spec, schedule, depth, MODE_FREE_RUN).strength)
    first_fire = [next((t for t, s in enumerate(col, 1) if s > 0), None) for col in columns]
    levels, _ = run_counter(CounterSpec(depth=depth))
    assert list(levels) == first_fire
    assert list(levels) == list(range(1, depth + 1))
