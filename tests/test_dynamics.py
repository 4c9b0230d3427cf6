"""Firing simulation: single steps, full runs, trace queries, invariants.

Expected values tagged as derived were computed with the plain-Python
reference loop in oracles.py and frozen here; the golden strength table
values come from the shipped fixture.
"""

import itertools
import tracemalloc
from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nestfire import (
    MODE_FREE_RUN,
    MODE_SCHEDULED,
    EnsembleSpec,
    OutOfRange,
    PatternSpec,
    Schedule,
    SimState,
    SpecMismatch,
    ValidationError,
    WrongShape,
    ancestors,
    build_linear,
    first_zero_step,
    golden_table,
    initial_state,
    pattern_strength,
    read_trace,
    run,
    step,
    table1_fixture,
    topology,
    with_drive,
    write_trace,
)
from oracles import expand_to_neurons, reference_csv, reference_firing_run, reference_run

STANDARD = build_linear(5, 5, 1.0, 0.5)
STAGGERED = Schedule.staggered(5)
CYCLIC = EnsembleSpec((PatternSpec(0, 1, 1), PatternSpec(1, 0, 1)), 1.0, 0.5)
DANGLING = EnsembleSpec((PatternSpec(0, None, 2), PatternSpec(1, 5, 2)), 1.0, 0.5)
NEGATIVE_SIZE = EnsembleSpec((PatternSpec(0, None, 2), PatternSpec(1, 0, -1)), 1.0, 0.5)
NAN_UNIT = build_linear(2, 2, float("nan"), 0.5)
# Runs that run and step must both refuse, as (spec, schedule, steps, mode).
INVALID_RUNS = {
    "dangling-parent": (DANGLING, Schedule.staggered(2), 3, MODE_FREE_RUN),
    "negative-size": (NEGATIVE_SIZE, Schedule.staggered(2), 3, MODE_SCHEDULED),
    "cycle-never-firing": (CYCLIC, Schedule((10, 10)), 3, MODE_SCHEDULED),
    "nan-unit": (NAN_UNIT, Schedule.staggered(2), 3, MODE_SCHEDULED),
    "unit-overflows": (build_linear(2, 2, 1e308, 0.5), Schedule.staggered(2), 3, MODE_SCHEDULED),
    "weight-overflows": (build_linear(2, 2, 1.0, 1e308), Schedule.staggered(2), 1, MODE_SCHEDULED),
    "size-beyond-float": (build_linear(1, 10**400, 1.0, 0.5), Schedule((1,)), 1, MODE_SCHEDULED),
    "unit-beyond-float": (build_linear(2, 2, 10**400, 0.5), Schedule.staggered(2), 1, MODE_SCHEDULED),
    "no-patterns": (EnsembleSpec((), 1.0, 0.5), Schedule(()), 1, MODE_SCHEDULED),
    "id-out-of-place": (
        EnsembleSpec((PatternSpec(0, None, 1), PatternSpec(2, 0, 1)), 1.0, 0.5),
        Schedule.staggered(2),
        2,
        MODE_SCHEDULED,
    ),
    **{
        f"{name}-not-integer": (EnsembleSpec(patterns, 1.0, 0.5), Schedule((1, 2)), 2, MODE_FREE_RUN)
        for name, patterns in {
            "size": (PatternSpec(0, None, 1.5), PatternSpec(1, 0, 1)),
            "size-nan": (PatternSpec(0, None, 1), PatternSpec(1, 0, float("nan"))),
            "parent": (PatternSpec(0, None, 1), PatternSpec(1, "0", 1)),
            "parent-float": (PatternSpec(0, None, 1), PatternSpec(1, 0.0, 1)),
            "id": (PatternSpec("0", None, 1), PatternSpec(1, 0, 1)),
        }.items()
    },
    "unit-text": (build_linear(2, 2, "1", 0.5), Schedule.staggered(2), 1, MODE_SCHEDULED),
    "weight-complex": (build_linear(2, 2, 1.0, 0.5j), Schedule.staggered(2), 1, MODE_SCHEDULED),
}


def first_step(spec, schedule, steps, mode):
    return step(initial_state(spec), spec, schedule, mode)


INVALID_CALLS = {
    "nesting-cycle": lambda: ancestors(CYCLIC, 0),
    "activation-step": lambda: Schedule((1, 0)),
    "interval": lambda: Schedule.staggered(3, 0),
    "activation-step-fraction": lambda: Schedule([1.5]),
    "activation-step-nan": lambda: Schedule([1, float("nan")]),
    "activation-step-inf": lambda: Schedule([float("inf")]),
    "activation-step-text": lambda: Schedule(["x"]),
    "interval-fraction": lambda: Schedule.staggered(3, 1.5),
    "mode": lambda: step(initial_state(STANDARD), STANDARD, STAGGERED, mode="warp"),
    "steps": lambda: run(STANDARD, STAGGERED, 0),
    "steps-beyond-float": lambda: run(STANDARD, STAGGERED, 10**400),
    **{f"run-{name}": partial(run, *case) for name, case in INVALID_RUNS.items()},
    **{f"step-{name}": partial(first_step, *case) for name, case in INVALID_RUNS.items()},
}


def run_steps(spec, schedule, steps, mode=MODE_SCHEDULED):
    """Step-by-step driver returning the state after every step."""
    state = initial_state(spec)
    history = []
    for _ in range(steps):
        state = step(state, spec, schedule, mode)
        history.append(state)
    return history


class TestStep:
    def test_standard_chain_after_three_steps(self):
        state = run_steps(STANDARD, STAGGERED, 3)[-1]
        assert state.strength.tolist() == [7.5, 7.5, 5.0, 0.0, 0.0]

    def test_zero_inhibition_accumulates_linearly(self):
        spec = build_linear(5, 5, 1.0, 0.0)
        state = run_steps(spec, STAGGERED, 3)[-1]
        assert state.strength.tolist()[:3] == [15.0, 10.0, 5.0]

    def test_small_chain_matches_reference_loop(self):
        # Derived with oracles.reference_run(3, 2, 1.0, 0.5, [1,2,3], 3)
        spec = build_linear(3, 2, 1.0, 0.5)
        state = run_steps(spec, Schedule.staggered(3), 3)[-1]
        assert state.strength.tolist() == [3.0, 3.0, 2.0]

    def test_dimension_mismatch_rejected(self):
        other = build_linear(3, 2, 1.0, 0.5)
        with pytest.raises(SpecMismatch):
            step(initial_state(other), STANDARD, STAGGERED)
        with pytest.raises(SpecMismatch):
            step(initial_state(STANDARD), STANDARD, Schedule.staggered(3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            step(initial_state(STANDARD), STANDARD, STAGGERED, mode="warp")

    @pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
    def test_invalid_arguments_raise_nestfire_error(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_every_pattern_is_updated(self):
        # Even a pattern that neither fires nor is inhibited gets (s + 0.0) - 0.0,
        # clamped at zero; a state built by hand may hold any strength.
        state = SimState(
            step=9,
            strength=np.array([-1.0, -0.0, 2.0]),
            active=np.zeros(3, dtype=bool),
            ever_active=np.ones(3, dtype=bool),
        )
        new = step(state, build_linear(3, 1, 1.0, 0.5), Schedule((20, 20, 20)))
        assert new.strength.tobytes() == np.array([0.0, 0.0, 2.0]).tobytes()

    def test_inputs_not_mutated(self):
        state = initial_state(STANDARD)
        before = state.strength.copy()
        step(state, STANDARD, STAGGERED)
        assert np.array_equal(state.strength, before)
        assert state.step == 0


class TestRun:
    def test_trace_matches_reference_loop(self):
        trace = run(STANDARD, STAGGERED, 5)
        expected = expand_to_neurons(reference_run(5, 5, 1.0, 0.5, [1, 2, 3, 4, 5], 5), 5)
        assert trace.values.tolist() == expected

    def test_golden_columns_match_fixture(self):
        trace = run(STANDARD, STAGGERED, 5)
        assert np.array_equal(golden_table(trace), table1_fixture())

    def test_first_step_only_first_pattern(self):
        trace = run(STANDARD, STAGGERED, 1)
        assert trace.values.shape == (1, 25)
        assert trace.values[0, :5].tolist() == [5.0] * 5
        assert not trace.values[0, 5:].any()

    def test_single_pattern_never_inhibited(self):
        spec = build_linear(1, 5, 1.0, 0.9)
        trace = run(spec, Schedule.staggered(1), 4)
        assert trace.values[:, 0].tolist() == [5.0, 10.0, 15.0, 20.0]

    def test_steps_below_one_rejected(self):
        with pytest.raises(ValueError):
            run(STANDARD, STAGGERED, 0)

    def test_run_over_the_row_budget_is_refused_before_allocating(self):
        # One pattern of 10**12 neurons: validate and the overflow bound accept it.
        spec = EnsembleSpec((PatternSpec(0, None, 10**12),), 1.0, 0.5)
        with pytest.raises(ValidationError, match="steps x neurons exceeds the budget"):
            run(spec, Schedule((1,)), 1)

    def test_row_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_ROWS", 50)
        assert run(STANDARD, STAGGERED, 2).num_steps == 2  # 2 steps x 25 neurons
        with pytest.raises(ValidationError, match="budget of 50 rows"):
            run(STANDARD, STAGGERED, 3)

    def test_memory_does_not_grow_with_the_neurons(self):
        # One pattern of n neurons for one step: a run holds one value per
        # pattern, so 10**6 neurons cost what 10**5 do, far below 8 bytes each.
        peaks = []
        for neurons in (10**5, 10**6):
            spec = build_linear(1, neurons, 1.0, 0.5)
            tracemalloc.start()
            try:
                run(spec, Schedule((1,)), 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64_000, peaks
        assert peaks[1] < peaks[0] + 8_000, peaks

    def test_memory_grows_linearly_with_a_chain_firing_at_once(self):
        # A chain whose patterns all fire at step 1: each inhibits all those
        # above it, and a kernel that stored those lists would hold depth**2/2
        # entries: about 4.5 MB at depth 1000, 13 times the peak at 250.
        peaks = []
        for depth in (250, 1000):
            spec = build_linear(depth, 1, 1.0, 0.5)
            tracemalloc.start()
            try:
                run(spec, Schedule((1,) * depth), 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1_000_000, peaks  # under 1 kB a pattern
        assert peaks[1] < 8 * peaks[0], peaks

    def test_pattern_of_layout(self):
        trace = run(STANDARD, STAGGERED, 2)
        assert trace.pattern_of.tolist() == [k for k in range(5) for _ in range(5)]

    def test_trace_holds_one_strength_per_pattern(self):
        trace = run(STANDARD, STAGGERED, 5)
        expected = reference_run(5, 5, 1.0, 0.5, [1, 2, 3, 4, 5], 5)
        assert trace.strength.tolist() == expected
        assert np.array_equal(trace.values, trace.strength[:, trace.pattern_of])
        with pytest.raises(ValueError):
            trace.values[0, 0] = 1.0  # read-only: it must not drift from strength


@pytest.fixture(scope="module")
def trace():
    return run(STANDARD, STAGGERED, 5)


class TestTraceQueries:
    @pytest.mark.parametrize(
        "pattern,t,expected",
        [(0, 5, 0.0), (4, 5, 5.0), (2, 4, 7.5), (0, 3, 7.5), (3, 3, 0.0)],
    )
    def test_pattern_strength_values(self, trace, pattern, t, expected):
        assert pattern_strength(trace, pattern, t) == expected

    def test_pattern_strength_bounds(self, trace):
        with pytest.raises(OutOfRange):
            pattern_strength(trace, 0, 6)
        with pytest.raises(OutOfRange):
            pattern_strength(trace, 0, 0)
        with pytest.raises(OutOfRange):
            pattern_strength(trace, 9, 1)

    def test_outermost_switches_off_at_five(self, trace):
        assert first_zero_step(trace, 0) == 5

    def test_innermost_never_switches_off(self, trace):
        assert first_zero_step(trace, 4) is None

    def test_monotone_run_never_switches_off(self):
        spec = build_linear(5, 5, 1.0, 0.0)
        trace = run(spec, STAGGERED, 5)
        assert all(first_zero_step(trace, k) is None for k in range(5))

    def test_golden_table_spot_rows(self, trace):
        grid = golden_table(trace)
        assert grid[12].tolist() == [5.0, 7.5, 7.5]  # neuron 13
        assert grid[21].tolist() == [0.0, 0.0, 5.0]  # neuron 22

    def test_golden_table_needs_standard_shape(self):
        small = run(build_linear(3, 2, 1.0, 0.5), Schedule.staggered(3), 5)
        with pytest.raises(WrongShape):
            golden_table(small)
        short = run(STANDARD, STAGGERED, 4)
        with pytest.raises(WrongShape):
            golden_table(short)


class TestInvariants:
    def test_intra_pattern_symmetry_every_step(self):
        trace = run(STANDARD, STAGGERED, 12)
        read_trace(write_trace(trace))  # raises ParseError if members disagree

    def test_activation_wave(self):
        trace = run(STANDARD, STAGGERED, 5)
        for k in range(5):
            first_positive = next(
                t for t in range(1, 6) if pattern_strength(trace, k, t) > 0
            )
            assert first_positive == STAGGERED.activation_step[k]

    @given(
        depth=st.integers(1, 5),
        size=st.integers(1, 5),
        unit=st.sampled_from([0.5, 1.0, 2.0]),
        steps=st.integers(1, 8),
    )
    def test_zero_inhibition_closed_form(self, depth, size, unit, steps):
        spec = build_linear(depth, size, unit, 0.0)
        schedule = Schedule.staggered(depth)
        trace = run(spec, schedule, steps)
        for k in range(depth):
            for t in range(1, steps + 1):
                expected = unit * size * max(0, t - schedule.activation_step[k] + 1)
                assert pattern_strength(trace, k, t) == expected

    def test_innermost_receives_no_inhibition(self):
        # Innermost fires from t=5 on; any inhibition would pull it below
        # its own accumulated excitation of 5 per step.
        innermost = [state.strength[4] for state in run_steps(STANDARD, STAGGERED, 10)]
        assert innermost == [5.0 * max(0, t - 4) for t in range(1, 11)]

    def test_non_negativity(self):
        trace = run(STANDARD, STAGGERED, 20)
        assert (trace.values >= 0).all()

    def test_shutdown_ordering_at_t5(self):
        trace = run(STANDARD, STAGGERED, 5)
        strengths = [pattern_strength(trace, k, 5) for k in range(5)]
        assert strengths[0] == 0.0
        assert all(s > 0 for s in strengths[1:])

    def test_determinism(self):
        a = run(STANDARD, STAGGERED, 9, MODE_SCHEDULED)
        b = run(STANDARD, STAGGERED, 9, MODE_SCHEDULED)
        assert a.values.tobytes() == b.values.tobytes()
        c = run(STANDARD, STAGGERED, 9, MODE_FREE_RUN)
        d = run(STANDARD, STAGGERED, 9, MODE_FREE_RUN)
        assert c.values.tobytes() == d.values.tobytes()


class TestFreeRun:
    def test_matches_scheduled_through_activation_wave(self):
        scheduled = run(STANDARD, STAGGERED, 5, MODE_SCHEDULED)
        free = run(STANDARD, STAGGERED, 5, MODE_FREE_RUN)
        assert np.array_equal(scheduled.values, free.values)

    def test_starvation_winds_down_inward(self):
        # Outermost dies at t=5 and stops firing; each deeper level loses its
        # parent gate one step later, so firing ceases entirely by t=10.
        history = run_steps(STANDARD, STAGGERED, 12, MODE_FREE_RUN)
        firing_sets = [tuple(np.nonzero(state.active)[0]) for state in history]
        assert firing_sets[4] == (0, 1, 2, 3, 4)  # t=5: all firing
        assert firing_sets[5] == (1, 2, 3, 4)     # t=6: root starved out
        assert firing_sets[6] == (2, 3, 4)
        assert firing_sets[7] == (3, 4)
        assert firing_sets[8] == (4,)
        assert firing_sets[9] == ()
        assert firing_sets[10] == ()

    def test_quiescent_state_is_stable(self):
        history = run_steps(STANDARD, STAGGERED, 15, MODE_FREE_RUN)
        final = history[-1].strength
        assert np.array_equal(history[10].strength, final)

    def test_without_drive_nothing_starts(self):
        state = with_drive(initial_state(STANDARD), False)
        state = step(state, STANDARD, STAGGERED, MODE_FREE_RUN)
        assert not state.active.any()
        assert not state.strength.any()

    def test_child_waits_for_parent_gate(self):
        # Child scheduled before its parent ever fires: the gate delays it.
        spec = build_linear(2, 2, 1.0, 0.5)
        schedule = Schedule((3, 1))
        history = run_steps(spec, schedule, 4, MODE_FREE_RUN)
        firing_sets = [tuple(np.nonzero(state.active)[0]) for state in history]
        assert firing_sets[0] == ()       # t=1: child gated, parent not due
        assert firing_sets[1] == ()       # t=2
        assert firing_sets[2] == (0,)     # t=3: parent starts
        assert firing_sets[3] == (0, 1)   # t=4: gate open, child joins


def forest(sizes, parents, unit, weight):
    """An ensemble whose pattern k has ``sizes[k]`` neurons and parent ``parents[k]``."""
    patterns = (PatternSpec(k, up, size) for k, (size, up) in enumerate(zip(sizes, parents)))
    return EnsembleSpec(tuple(patterns), unit, weight)


@st.composite
def forest_runs(draw):
    """Pattern sizes, parent links, unit, weight, schedule, steps and mode
    of a run. Half the ensembles are linear chains; the others are forests
    nested in a random order, so a parent may have a higher index than its
    child, and there may be several roots. In half the runs sizes differ, so
    patterns send different inhibition and the order of its sums shows in
    the low bits; in the rest they are equal. Explicit steps are drawn in any order, so
    later steps often fire patterns below ones already firing, or all at
    one step; free runs also shut down."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    num = len(sizes)
    if draw(st.booleans()):
        sizes = [sizes[0]] * num
    parents = [None, *range(num - 1)]
    if draw(st.booleans()):
        order = draw(st.permutations(range(num)))
        parents = [None] * num
        for i, k in enumerate(order[1:], start=1):
            parents[k] = draw(st.none() | st.sampled_from(order[:i]))
    steps = draw(st.integers(1, 24))
    schedule = draw(st.sampled_from(["explicit", "staggered", "together"]))
    if schedule == "explicit":
        due = st.integers(1, steps + 1)
        activation = draw(st.lists(due, min_size=num, max_size=num))
    elif schedule == "staggered":
        activation = list(Schedule.staggered(num, draw(st.integers(1, 3))).activation_step)
    else:
        activation = [draw(st.integers(1, steps))] * num
    return (
        sizes,
        parents,
        draw(st.sampled_from([0.3, 1.0, 2.0])),
        draw(st.sampled_from([0.3, 1 / 3, 0.7, 1.5])),
        activation,
        steps,
        draw(st.sampled_from([MODE_SCHEDULED, MODE_FREE_RUN])),
    )


# Runs whose firing list at some step is not the last step's list extended.
NOT_PREFIX_RUNS = [
    # Fills in: [1], [1, 2], [0, 1, 2].
    ([2, 1, 3], [None, 0, 1], 0.3, 1 / 3, [3, 1, 2], 5, MODE_SCHEDULED),
    # Shuts down from the root.
    ([1, 3, 2, 1, 4], [None, 0, 1, 2, 3], 1.0, 0.7, [1, 2, 3, 4, 5], 14, MODE_FREE_RUN),
    # A forest with roots 1 and 3, where 0 sits in 3 and 5 in 0, all due at
    # step 1: [1, 3], [0, 1, 2, 3, 4], [0, 2, 4, 5], [5], then shut down.
    ([2, 1, 3, 2, 1, 4], [3, None, 1, None, 3, 0], 1.0, 1.5, [1] * 6, 8, MODE_FREE_RUN),
]


class TestKernelMatchesOracle:
    """The engine against ``oracles.reference_firing_run``, which sums every
    step from zero: reusing the last step's sums must change no bit."""

    @given(forest_runs())
    @example(NOT_PREFIX_RUNS[0])
    @example(NOT_PREFIX_RUNS[1])
    @example(NOT_PREFIX_RUNS[2])
    def test_run_matches_oracle_bit_for_bit(self, case):
        sizes, parents, unit, weight, activation, steps, mode = case
        trace = run(forest(sizes, parents, unit, weight), Schedule(activation), steps, mode)
        rows = reference_firing_run(*case)
        assert trace.strength.tobytes() == array("d", itertools.chain(*rows)).tobytes()
        pattern_of = [k for k, size in enumerate(sizes) for _ in range(size)]
        values = [[row[k] for k in pattern_of] for row in rows]
        assert write_trace(trace) == reference_csv(values, pattern_of)

    @given(forest_runs())
    def test_stepping_matches_run(self, case):
        sizes, parents, unit, weight, activation, steps, mode = case
        spec, schedule = forest(sizes, parents, unit, weight), Schedule(activation)
        stepped = [state.strength for state in run_steps(spec, schedule, steps, mode)]
        assert np.stack(stepped).tobytes() == run(spec, schedule, steps, mode).strength.tobytes()

    @pytest.mark.parametrize("case", NOT_PREFIX_RUNS, ids=["fill-in", "shutdown", "forest-shutdown"])
    def test_examples_leave_the_prefix_path(self, case):
        sizes, parents, unit, weight, activation, steps, mode = case
        spec, schedule = forest(sizes, parents, unit, weight), Schedule(activation)
        lists = [np.flatnonzero(s.active).tolist() for s in run_steps(spec, schedule, steps, mode)]
        assert any(now[: len(last)] != last for last, now in zip(lists, lists[1:]))


class TestFiringLaws:
    """Relations between runs that the firing rules imply and that hold bit
    for bit in binary floating point. Unlike the oracle, they share no
    reading of the rules with the engine."""

    @given(forest_runs(), st.integers(-4, 4))
    def test_scaling_the_unit_by_a_power_of_two_scales_every_strength(self, case, k):
        sizes, parents, unit, weight, activation, steps, mode = case
        schedule = Schedule(activation)
        base = run(forest(sizes, parents, unit, weight), schedule, steps, mode)
        scaled = run(forest(sizes, parents, unit * 2.0**k, weight), schedule, steps, mode)
        assert scaled.strength.tobytes() == np.ldexp(base.strength, k).tobytes()

    @given(forest_runs(), st.integers(1, 4))
    def test_delaying_every_activation_prepends_zero_rows(self, case, c):
        sizes, parents, unit, weight, activation, steps, mode = case
        spec = forest(sizes, parents, unit, weight)
        base = run(spec, Schedule(activation), steps, mode)
        later = run(spec, Schedule([t + c for t in activation]), steps + c, mode)
        zeros = np.zeros((c, len(sizes)))
        assert later.strength.tobytes() == np.vstack([zeros, base.strength]).tobytes()

    @given(forest_runs(), forest_runs())
    def test_a_disjoint_tree_with_higher_indices_changes_no_strength(self, case, other):
        sizes, parents, unit, weight, activation, steps, mode = case
        more_sizes, more_parents, _, _, more_activation, _, _ = other
        num = len(sizes)
        more_parents = [None if up is None else up + num for up in more_parents]
        joined = forest(sizes + more_sizes, parents + more_parents, unit, weight)
        both = run(joined, Schedule(activation + more_activation), steps, mode)
        base = run(forest(sizes, parents, unit, weight), Schedule(activation), steps, mode)
        assert both.strength[:, :num].tobytes() == base.strength.tobytes()

    @given(forest_runs(), st.sampled_from([0.0, 0.3, 1 / 3, 0.7, 1.5, 2.0]))
    def test_more_inhibition_never_raises_a_strength_when_scheduled(self, case, other):
        # In a free run a pattern inhibited sooner also stops firing sooner,
        # and so stops inhibiting: there the law does not hold.
        sizes, parents, unit, weight, activation, steps, _ = case
        low, high = (
            run(forest(sizes, parents, unit, w), Schedule(activation), steps)
            for w in sorted([weight, other])
        )
        assert (high.strength <= low.strength).all()
