"""Firing simulation: the step rule, full runs, drive-off runs, trace
queries, invariants and laws.

Expected values tagged as derived were computed with the plain-Python
reference loop in oracles.py and frozen here; the golden strength table
values come from the shipped fixture.
"""

import itertools
import math
import tracemalloc
from array import array
from fractions import Fraction
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
    SpecMismatch,
    ValidationError,
    WrongShape,
    ancestors,
    build_linear,
    first_zero_step,
    golden_table,
    pattern_strength,
    read_trace,
    run,
    table1_fixture,
    topology,
    write_trace,
)
from oracles import (
    expand_to_neurons,
    neuron_rows,
    reference_csv,
    reference_firing_run,
    reference_firings,
    reference_run,
)

STANDARD = build_linear(5, 5, 1.0, 0.5)
STAGGERED = Schedule.staggered(5)
CYCLIC = EnsembleSpec((PatternSpec(0, 1, 1), PatternSpec(1, 0, 1)), 1.0, 0.5)
DANGLING = EnsembleSpec((PatternSpec(0, None, 2), PatternSpec(1, 5, 2)), 1.0, 0.5)
NEGATIVE_SIZE = EnsembleSpec((PatternSpec(0, None, 2), PatternSpec(1, 0, -1)), 1.0, 0.5)
NAN_UNIT = build_linear(2, 2, float("nan"), 0.5)
NEGATIVE_WEIGHT = build_linear(5, 5, 1.0, -0.5)
HUGE_UNIT = build_linear(5, 5, 1e308, 0.5)
# Runs that ``run`` must refuse, as (spec, schedule, steps, mode).
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


# Calls with two faults each, as (run's arguments, error, message): ``run``
# checks steps, drive, mode, the spec, the schedule's length, the overflow
# bound and the row budget in that order, and reports the earlier fault.
REFUSAL_ORDER = {
    "steps-then-mode": ((STANDARD, STAGGERED, 0, "warp"), ValidationError, "steps must be >= 1"),
    "drive-then-mode": ((STANDARD, STAGGERED, 1, "warp", -1), ValidationError, "drive must be >= 0"),
    "mode-then-spec": ((NEGATIVE_WEIGHT, STAGGERED, 1, "warp"), ValidationError, "unknown mode"),
    "spec-then-schedule": (
        (NEGATIVE_WEIGHT, Schedule.staggered(3), 1),
        ValidationError,
        "inhibitory_weight must be finite",
    ),
    "schedule-then-overflow": ((HUGE_UNIT, Schedule.staggered(3), 1), SpecMismatch, "schedule covers"),
    "overflow-then-budget": ((HUGE_UNIT, STAGGERED, 10**7), ValidationError, "overflow"),
    "spec-then-budget": ((NEGATIVE_WEIGHT, STAGGERED, 10**7), ValidationError, "inhibitory_weight"),
}


def first_step(spec, schedule, steps, mode):
    """One step with the drive off, in which a free run fires nothing."""
    return run(spec, schedule, 1, mode, drive=0)


INVALID_CALLS = {
    "nesting-cycle": lambda: ancestors(CYCLIC, 0),
    "activation-step": lambda: Schedule((1, 0)),
    "interval": lambda: Schedule.staggered(3, 0),
    "activation-step-fraction": lambda: Schedule([1.5]),
    "activation-step-nan": lambda: Schedule([1, float("nan")]),
    "activation-step-inf": lambda: Schedule([float("inf")]),
    "activation-step-text": lambda: Schedule(["x"]),
    "interval-fraction": lambda: Schedule.staggered(3, 1.5),
    "mode": lambda: run(STANDARD, STAGGERED, 1, mode="warp"),
    "steps": lambda: run(STANDARD, STAGGERED, 0),
    "steps-beyond-float": lambda: run(STANDARD, STAGGERED, 10**400),
    **{f"run-{name}": partial(run, *case) for name, case in INVALID_RUNS.items()},
    **{f"step-{name}": partial(first_step, *case) for name, case in INVALID_RUNS.items()},
}


class TestStep:
    """One step's update rule, read from ``run``'s trace."""

    def test_standard_chain_after_three_steps(self):
        trace = run(STANDARD, STAGGERED, 3)
        assert trace.strength[-1] == [7.5, 7.5, 5.0, 0.0, 0.0]

    def test_zero_inhibition_accumulates_linearly(self):
        spec = build_linear(5, 5, 1.0, 0.0)
        trace = run(spec, STAGGERED, 3)
        assert trace.strength[-1][:3] == [15.0, 10.0, 5.0]

    def test_small_chain_matches_reference_loop(self):
        # Derived with oracles.reference_run(3, 2, 1.0, 0.5, [1,2,3], 3)
        spec = build_linear(3, 2, 1.0, 0.5)
        trace = run(spec, Schedule.staggered(3), 3)
        assert trace.strength[-1] == [3.0, 3.0, 2.0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SpecMismatch):
            run(STANDARD, Schedule.staggered(3), 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run(STANDARD, STAGGERED, 1, mode="warp")

    @pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
    def test_invalid_arguments_raise_nestfire_error(self, call):
        with pytest.raises(ValidationError):
            call()


class TestRun:
    def test_trace_matches_reference_loop(self):
        trace = run(STANDARD, STAGGERED, 5)
        expected = expand_to_neurons(reference_run(5, 5, 1.0, 0.5, [1, 2, 3, 4, 5], 5), 5)
        assert neuron_rows(trace) == expected

    def test_golden_columns_match_fixture(self):
        trace = run(STANDARD, STAGGERED, 5)
        assert np.array_equal(golden_table(trace), table1_fixture())

    def test_first_step_only_first_pattern(self):
        trace = run(STANDARD, STAGGERED, 1)
        values = np.array(neuron_rows(trace))
        assert values.shape == (1, 25)
        assert values[0, :5].tolist() == [5.0] * 5
        assert not values[0, 5:].any()

    def test_single_pattern_never_inhibited(self):
        spec = build_linear(1, 5, 1.0, 0.9)
        trace = run(spec, Schedule.staggered(1), 4)
        assert np.array(neuron_rows(trace))[:, 0].tolist() == [5.0, 10.0, 15.0, 20.0]

    def test_steps_below_one_rejected(self):
        with pytest.raises(ValueError):
            run(STANDARD, STAGGERED, 0)

    @pytest.mark.parametrize("args, error, message", REFUSAL_ORDER.values(), ids=REFUSAL_ORDER.keys())
    def test_the_earlier_check_refuses_first(self, args, error, message):
        with pytest.raises(error, match=message):
            run(*args)

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
        assert trace.pattern_of == [k for k in range(5) for _ in range(5)]

    def test_trace_holds_one_strength_per_pattern(self):
        trace = run(STANDARD, STAGGERED, 5)
        expected = reference_run(5, 5, 1.0, 0.5, [1, 2, 3, 4, 5], 5)
        assert trace.strength == expected
        # Each read is a new list: changing one changes no later read.
        strength, pattern_of = trace.strength, trace.pattern_of
        strength[0][0], pattern_of[0] = 1.0, 4
        strength.append([0.0] * 5)
        assert trace.strength == expected
        assert trace.pattern_of == [k for k in range(5) for _ in range(5)]


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
        assert grid[12] == [5.0, 7.5, 7.5]  # neuron 13
        assert grid[21] == [0.0, 0.0, 5.0]  # neuron 22

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
        innermost = np.array(run(STANDARD, STAGGERED, 10).strength)[:, 4].tolist()
        assert innermost == [5.0 * max(0, t - 4) for t in range(1, 11)]

    def test_non_negativity(self):
        trace = run(STANDARD, STAGGERED, 20)
        assert (np.array(neuron_rows(trace)) >= 0).all()

    def test_shutdown_ordering_at_t5(self):
        trace = run(STANDARD, STAGGERED, 5)
        strengths = [pattern_strength(trace, k, 5) for k in range(5)]
        assert strengths[0] == 0.0
        assert all(s > 0 for s in strengths[1:])

    def test_determinism(self):
        a = run(STANDARD, STAGGERED, 9, MODE_SCHEDULED)
        b = run(STANDARD, STAGGERED, 9, MODE_SCHEDULED)
        assert np.array(neuron_rows(a)).tobytes() == np.array(neuron_rows(b)).tobytes()
        c = run(STANDARD, STAGGERED, 9, MODE_FREE_RUN)
        d = run(STANDARD, STAGGERED, 9, MODE_FREE_RUN)
        assert np.array(neuron_rows(c)).tobytes() == np.array(neuron_rows(d)).tobytes()


class TestFreeRun:
    def test_matches_scheduled_through_activation_wave(self):
        scheduled = run(STANDARD, STAGGERED, 5, MODE_SCHEDULED)
        free = run(STANDARD, STAGGERED, 5, MODE_FREE_RUN)
        assert np.array_equal(neuron_rows(scheduled), neuron_rows(free))

    def test_starvation_winds_down_inward(self):
        # Outermost dies at t=5 and stops firing; each deeper level loses its
        # parent gate one step later, so firing ceases entirely by t=10.
        case = ([5] * 5, [None, 0, 1, 2, 3], 1.0, 0.5, [1, 2, 3, 4, 5], 12, MODE_FREE_RUN)
        firing_sets = run_against_oracle(case)
        assert firing_sets[4] == [0, 1, 2, 3, 4]  # t=5: all firing
        assert firing_sets[5] == [1, 2, 3, 4]     # t=6: root starved out
        assert firing_sets[6] == [2, 3, 4]
        assert firing_sets[7] == [3, 4]
        assert firing_sets[8] == [4]
        assert firing_sets[9] == []
        assert firing_sets[10] == []

    def test_quiescent_state_is_stable(self):
        strength = np.array(run(STANDARD, STAGGERED, 15, MODE_FREE_RUN).strength)
        assert (strength[10:] == strength[-1]).all()

    def test_without_drive_nothing_starts(self):
        trace = run(STANDARD, STAGGERED, 5, MODE_FREE_RUN, drive=0)
        assert not np.array(trace.strength).any()

    def test_drive_defaults_to_every_step_and_scheduled_runs_ignore_it(self):
        free = strength_bytes(run(STANDARD, STAGGERED, 12, MODE_FREE_RUN))
        for drive in (12, 13, 10**400):
            assert strength_bytes(run(STANDARD, STAGGERED, 12, MODE_FREE_RUN, drive)) == free
        scheduled = strength_bytes(run(STANDARD, STAGGERED, 12))
        assert strength_bytes(run(STANDARD, STAGGERED, 12, MODE_SCHEDULED, drive=0)) == scheduled

    def test_child_waits_for_parent_gate(self):
        # Child scheduled before its parent ever fires: the gate delays it.
        # A pattern first fires at the first step its strength is positive.
        spec = build_linear(2, 2, 1.0, 0.5)
        schedule = Schedule((3, 1))
        trace = run(spec, schedule, 4, MODE_FREE_RUN)
        assert trace.strength == [
            [0.0, 0.0],  # t=1: child gated, parent not due
            [0.0, 0.0],  # t=2
            [2.0, 0.0],  # t=3: parent starts
            [3.0, 2.0],  # t=4: gate open, child joins
        ]

    @pytest.mark.parametrize("delta, c", [(0.0, math.inf), (0.25, 9), (0.5, 5), (1.0, 3)])
    @pytest.mark.parametrize("depth", range(1, 13))
    def test_wind_down_after_the_drive_goes_off(self, depth, delta, c):
        assert first_quiet_step(depth, 5, 1.0, delta) == depth + min(depth, c)

    @given(
        depth=st.integers(1, 30),
        size=st.integers(1, 5),
        unit=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        sixteenths=st.integers(0, 80),
    )
    def test_wind_down_closed_form_with_exact_sums(self, depth, size, unit, sixteenths):
        # With a dyadic weight and unit every sum is exact, and c is
        # ceil(1 + 2/delta). A weight such as 0.1 rounds at that boundary:
        # depth 22, size 3 and unit 1.0 give c = 22 where 21 is due.
        delta = sixteenths / 16
        c = math.inf if delta == 0 else math.ceil(1 + 2 / Fraction(delta))
        assert first_quiet_step(depth, size, unit, delta) == depth + min(depth, c)

    def test_rounding_residue_keeps_the_gate_open(self):
        # The gate tests strength > 0 on rounded sums. At weight 0.1 pattern 0
        # holds 2.66e-15 at step 21 where exact sums give 0, so the cascade
        # first repeats a row at step 44, one after the closed form's 22 + 21.
        assert math.ceil(1 + 2 / Fraction(1, 10)) == 21
        assert first_quiet_step(22, 3, 1.0, 0.1) == 44
        spec, schedule = build_linear(22, 3, 1.0, 0.1), Schedule.staggered(22)
        strength = np.array(run(spec, schedule, 47, MODE_FREE_RUN, drive=22).strength)
        assert strength[20, 0] == strength[21, 1] == 2.6645352591003757e-15


def strength_bytes(trace):
    """A trace's strengths as the bytes of their doubles, step after step:
    equal only if every bit is, ``-0.0`` and NaN payloads included."""
    return array("d", itertools.chain(*trace.strength)).tobytes()


def first_quiet_step(depth, size, unit, delta):
    """The first step after ``depth`` on which nothing fires, in a staggered
    free run of ``build_linear(depth, size, unit, delta)`` whose drive is on
    through step ``depth``: with a positive unit, the first step whose row
    equals the row before it. Every later row must stay the same.

    Driven, pattern k-1 first fires at step k, as the counter counts. After
    the drive goes off, nothing fires first at step 2d for delta 0, else
    at d + min(d, c) for a c set by delta."""
    steps = 2 * depth + 3
    spec, schedule = build_linear(depth, size, unit, delta), Schedule.staggered(depth)
    # rows[t - 1] is step t.
    rows = run(spec, schedule, steps, MODE_FREE_RUN, drive=depth).strength
    quiet = next(t for t in range(depth + 1, steps + 1) if rows[t - 1] == rows[t - 2])
    assert all(row == rows[quiet - 1] for row in rows[quiet:])
    return quiet


def forest(sizes, parents, unit, weight):
    """An ensemble whose pattern k has ``sizes[k]`` neurons and parent ``parents[k]``."""
    patterns = (PatternSpec(k, up, size) for k, (size, up) in enumerate(zip(sizes, parents)))
    return EnsembleSpec(tuple(patterns), unit, weight)


def run_against_oracle(case, drive=None):
    """Check ``run``'s strengths for ``case``, a ``forest_runs()`` draw, against
    the oracle's bit for bit, and return the oracle's firing lists."""
    sizes, parents, unit, weight, activation, steps, mode = case
    trace = run(forest(sizes, parents, unit, weight), Schedule(activation), steps, mode, drive)
    rows = reference_firing_run(*case, drive)
    assert strength_bytes(trace) == array("d", itertools.chain(*rows)).tobytes()
    return reference_firings(*case, drive)


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
        assert strength_bytes(trace) == array("d", itertools.chain(*rows)).tobytes()
        pattern_of = [k for k, size in enumerate(sizes) for _ in range(size)]
        values = [[row[k] for k in pattern_of] for row in rows]
        assert write_trace(trace) == reference_csv(values, pattern_of)

    @given(forest_runs(), st.data())
    def test_drive_off_run_matches_oracle_bit_for_bit(self, case, data):
        steps = case[5]
        run_against_oracle(case, data.draw(st.integers(0, steps + 2), label="drive"))

    @pytest.mark.parametrize("case", NOT_PREFIX_RUNS, ids=["fill-in", "shutdown", "forest-shutdown"])
    def test_examples_leave_the_prefix_path(self, case):
        lists = run_against_oracle(case)
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
        assert strength_bytes(scaled) == np.ldexp(base.strength, k).tobytes()

    @given(forest_runs(), st.integers(1, 4))
    def test_delaying_every_activation_prepends_zero_rows(self, case, c):
        sizes, parents, unit, weight, activation, steps, mode = case
        spec = forest(sizes, parents, unit, weight)
        base = run(spec, Schedule(activation), steps, mode)
        later = run(spec, Schedule([t + c for t in activation]), steps + c, mode)
        zeros = np.zeros((c, len(sizes)))
        assert strength_bytes(later) == np.vstack([zeros, base.strength]).tobytes()

    @given(forest_runs(), forest_runs())
    def test_a_disjoint_tree_with_higher_indices_changes_no_strength(self, case, other):
        sizes, parents, unit, weight, activation, steps, mode = case
        more_sizes, more_parents, _, _, more_activation, _, _ = other
        num = len(sizes)
        more_parents = [None if up is None else up + num for up in more_parents]
        joined = forest(sizes + more_sizes, parents + more_parents, unit, weight)
        both = run(joined, Schedule(activation + more_activation), steps, mode)
        base = run(forest(sizes, parents, unit, weight), Schedule(activation), steps, mode)
        assert np.array(both.strength)[:, :num].tobytes() == strength_bytes(base)

    @given(forest_runs(), st.sampled_from([0.0, 0.3, 1 / 3, 0.7, 1.5, 2.0]))
    def test_more_inhibition_never_raises_a_strength_when_scheduled(self, case, other):
        # In a free run a pattern inhibited sooner also stops firing sooner,
        # and so stops inhibiting: there the law does not hold.
        sizes, parents, unit, weight, activation, steps, _ = case
        low, high = (
            run(forest(sizes, parents, unit, w), Schedule(activation), steps)
            for w in sorted([weight, other])
        )
        assert (np.array(high.strength) <= np.array(low.strength)).all()
