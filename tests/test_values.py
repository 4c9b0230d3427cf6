"""Public value semantics of the spec, schedule, state, trace and report
classes: repr text, equality and hash, rejected assignment, coercion of
fields to tuples, and validation on construction."""

import numpy as np
import pytest

from nestfire import (
    EnsembleSpec,
    GoldenReport,
    PatternSpec,
    Schedule,
    SimState,
    TraceTable,
    ValidationError,
    WrongShape,
    build_linear,
    initial_state,
    run,
    with_drive,
)

# Each makes a fresh instance; two calls give equal, distinct values.
VALUES = {
    "pattern": (
        lambda: PatternSpec(1, 0, 3),
        "PatternSpec(id=1, parent=0, size=3)",
    ),
    "ensemble": (
        lambda: EnsembleSpec([PatternSpec(0, None, 2)], 1.0, 0.5),
        "EnsembleSpec(patterns=(PatternSpec(id=0, parent=None, size=2),),"
        " excitatory_unit=1.0, inhibitory_weight=0.5)",
    ),
    "schedule": (
        lambda: Schedule([1, 2]),
        "Schedule(activation_step=(1, 2))",
    ),
    "report": (
        lambda: GoldenReport(0.5, ((1, 3, 1.0, 1.5),), False),
        "GoldenReport(max_abs_error=0.5, mismatches=((1, 3, 1.0, 1.5),), passed=False)",
    ),
}


@pytest.mark.parametrize("make, text", VALUES.values(), ids=VALUES.keys())
def test_equal_values_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == text


def test_values_differ_by_field():
    spec = EnsembleSpec([PatternSpec(0, None, 2)], 1.0, 0.5)
    assert spec != EnsembleSpec([PatternSpec(0, None, 2)], 1.0, 0.25)
    assert spec != EnsembleSpec([PatternSpec(0, None, 3)], 1.0, 0.5)
    assert Schedule((1, 2)) != Schedule((1, 3))
    # Not equal to a tuple of the same fields, nor to another class.
    assert Schedule((1, 2)) != ((1, 2),)
    assert spec != Schedule((1,))


def test_keyword_and_positional_constructors_agree():
    patterns = [PatternSpec(id=0, parent=None, size=2)]
    assert EnsembleSpec(
        patterns=patterns, excitatory_unit=1.0, inhibitory_weight=0.5
    ) == EnsembleSpec(patterns, 1.0, 0.5)
    assert Schedule(activation_step=[1]) == Schedule((1,))
    table = TraceTable(strength=np.zeros((1, 1)), pattern_of=np.array([0]))
    assert table.strength.shape == (1, 1) and table.pattern_of.tolist() == [0]


def test_fields_are_coerced_to_tuples():
    spec = EnsembleSpec([PatternSpec(0, None, 2)], 1.0, 0.5)
    assert type(spec.patterns) is tuple
    schedule = Schedule([1, 2.0, np.int64(3)])
    assert schedule.activation_step == (1, 2, 3)
    assert all(type(t) is int for t in schedule.activation_step)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Schedule((1, 0)), "activation step for pattern 1 must be >= 1, got 0"),
        (lambda: Schedule((-(10**20),)), r"pattern 0 must be >= 1, got -\(over 9 digits\)"),
        (lambda: Schedule.staggered(3, 0), "interval must be >= 1, got 0"),
    ],
    ids=["activation-step", "huge-step", "interval"],
)
def test_schedule_validates_on_construction(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def _objects():
    spec = build_linear(2, 1, 1.0, 0.5)
    return {
        "pattern": (spec.patterns[0], "size"),
        "ensemble": (spec, "patterns"),
        "schedule": (Schedule((1, 2)), "activation_step"),
        "trace": (run(spec, Schedule((1, 2)), 2), "strength"),
        "state": (initial_state(spec), "drive"),
        "report": (GoldenReport(0.0, (), True), "passed"),
    }


@pytest.mark.parametrize("kind", _objects().keys())
def test_assignment_is_rejected(kind):
    obj, field = _objects()[kind]
    with pytest.raises(AttributeError):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1


def test_states_and_traces_are_equal_only_to_themselves():
    spec = build_linear(1, 1, 1.0, 0.5)
    state, twin = initial_state(spec), initial_state(spec)
    assert state == state and state != twin
    assert hash(state) == object.__hash__(state)
    table = TraceTable(np.zeros((1, 1)), np.array([0]))
    twin_table = TraceTable(np.zeros((1, 1)), np.array([0]))
    assert table == table and table != twin_table
    assert hash(table) == object.__hash__(table)
    assert len({table, twin_table}) == 2


def test_state_and_trace_reprs():
    state = initial_state(build_linear(1, 1, 1.0, 0.5))
    assert repr(state) == (
        "SimState(step=0, strength=array([0.]), active=array([False]),"
        " ever_active=array([False]), drive=True)"
    )
    # The neuron-to-pattern map is left out.
    assert repr(TraceTable(np.zeros((1, 2)), np.array([0, 1, 1]))) == (
        "TraceTable(strength=array([[0., 0.]]))"
    )
    trace = run(build_linear(2, 1, 1.0, 0.5), Schedule((1, 2)), 1)
    assert repr(trace) == "TraceTable(strength=array([[1., 0.]]))"


def test_with_drive_copies_every_other_field():
    state = initial_state(build_linear(2, 1, 1.0, 0.5))
    off = with_drive(state, False)
    assert type(off) is SimState and off is not state
    assert (off.drive, state.drive) == (False, True)
    assert off.step == state.step
    assert off.strength is state.strength
    assert off.active is state.active and off.ever_active is state.ever_active
    assert SimState(1, state.strength, state.active, state.ever_active).drive is True


def test_trace_table_checks_its_map():
    with pytest.raises(WrongShape):
        TraceTable(np.zeros((1, 2)), np.array([0, 0]))
