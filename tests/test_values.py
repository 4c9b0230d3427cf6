"""Public value semantics of the spec, schedule, trace and report
classes, and of the counter and energy value classes: repr text, equality
and hash, rejected assignment, keyword construction, coercion of fields, and
validation on construction."""

import math
import random

import numpy as np
import pytest

from nestfire import (
    ChainSpec,
    CounterSpec,
    CounterState,
    EnsembleSpec,
    GoldenReport,
    GroupLayout,
    HopSpec,
    LayoutSpec,
    PatternSpec,
    Phase,
    Route,
    RouteSet,
    Scenario,
    Schedule,
    TraceTable,
    ValidationError,
    WeightChain,
    WrongShape,
    build_linear,
    run,
    standard_scenario,
    start,
    stigmergy_reinforce,
)
from nestfire.energy import random_mirrored_layout

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
    "scenario": (
        lambda: Scenario(build_linear(1, 2, 1.0, 0.5), Schedule([1]), 3, "scheduled"),
        "Scenario(ensemble=EnsembleSpec(patterns=(PatternSpec(id=0, parent=None, size=2),),"
        " excitatory_unit=1.0, inhibitory_weight=0.5), schedule=Schedule(activation_step=(1,)),"
        " steps=3, mode='scheduled')",
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


# The named tuples: their fields in order, and how their docstrings start.
NAMED_TUPLES = {
    "pattern": (PatternSpec, ("id", "parent", "size"), "One pattern: its index,"),
    "scenario": (
        Scenario,
        ("ensemble", "schedule", "steps", "mode"),
        "Scenario(ensemble, schedule, steps, mode)",
    ),
    "report": (
        GoldenReport,
        ("max_abs_error", "mismatches", "passed"),
        "Element-wise comparison result against a golden grid.",
    ),
}


@pytest.mark.parametrize("cls, fields, doc", NAMED_TUPLES.values(), ids=NAMED_TUPLES.keys())
def test_named_tuples_keep_their_fields(cls, fields, doc):
    assert cls._fields == fields and cls.__doc__.startswith(doc)
    value = cls(*fields)
    assert value == fields and tuple(value) == fields and hash(value) == hash(fields)
    assert cls(**dict(zip(fields, fields))) == value
    assert [getattr(value, name) for name in fields] == list(fields)


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
    assert table.strength == [[0.0]] and table.pattern_of == [0]


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
        (lambda: Schedule([1, 1.5]), "activation step for pattern 1 must be a whole number, got 1.5"),
        (lambda: Schedule(["x"]), "activation step for pattern 0 must be a whole number, got 'x'"),
        (lambda: Schedule.staggered(3, 1.5), "interval must be a whole number, got 1.5"),
    ],
    ids=["activation-step", "huge-step", "interval", "fraction", "text", "interval-fraction"],
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
        "report": (GoldenReport(0.0, (), True), "passed"),
        "scenario": (standard_scenario(), "steps"),
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


def test_traces_are_equal_only_to_themselves():
    table = TraceTable(np.zeros((1, 1)), np.array([0]))
    twin_table = TraceTable(np.zeros((1, 1)), np.array([0]))
    assert table == table and table != twin_table
    assert hash(table) == object.__hash__(table)
    assert len({table, twin_table}) == 2


def test_trace_reprs():
    # The neuron-to-pattern map is left out.
    assert repr(TraceTable(np.zeros((1, 2)), np.array([0, 1, 1]))) == (
        "TraceTable(strength=[[0.0, 0.0]])"
    )
    trace = run(build_linear(2, 1, 1.0, 0.5), Schedule((1, 2)), 1)
    assert repr(trace) == "TraceTable(strength=[[1.0, 0.0]])"


def test_trace_table_checks_its_map():
    with pytest.raises(WrongShape):
        TraceTable(np.zeros((1, 2)), np.array([0, 0]))


# The value classes of ``counter`` and ``energy``.
HOP = "HopSpec(distance=0.0, attenuation=0.0, threshold=2.0, impulse=1.0)"
CHAIN_VALUES = {
    "counter-spec": (lambda: CounterSpec(3), "CounterSpec(depth=3)"),
    "counter-state": (
        lambda: CounterState(Phase.CASCADING, 1, 1, range(1, 2)),
        "CounterState(phase=<Phase.CASCADING: 'cascading'>, level=1, tick=1,"
        " counted=range(1, 2))",
    ),
    "hop": (lambda: HopSpec(0.0, 0.0, 2.0, 1.0), HOP),
    "chain": (lambda: ChainSpec([HopSpec(0.0, 0.0, 2.0, 1.0)]), f"ChainSpec(hops=({HOP},))"),
    "weights": (lambda: WeightChain([5, 2.0]), "WeightChain(weights=(5, 2))"),
    "route": (lambda: Route(2.0), "Route(length=2.0, reinforcement=0.0)"),
    "routes": (
        lambda: RouteSet([Route(2.0, 1.5)]),
        "RouteSet(routes=(Route(length=2.0, reinforcement=1.5),))",
    ),
}


@pytest.mark.parametrize("make, text", CHAIN_VALUES.values(), ids=CHAIN_VALUES.keys())
def test_chain_values_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == text


def test_chain_values_differ_by_field():
    assert CounterSpec(3) != CounterSpec(4)
    assert HopSpec(0.0, 0.0, 2.0, 1.0) != HopSpec(0.0, 0.0, 2.0, 2.0)
    assert WeightChain((5, 2)) != WeightChain((2, 5))
    assert Route(2.0) != Route(2.0, 1.0)
    assert RouteSet([Route(2.0)]) != RouteSet([Route(3.0)])
    # Not equal to a tuple of the same fields, nor to another class.
    assert CounterSpec(3) != (3,)
    assert start(CounterSpec(1)) != CounterSpec(1)


def test_chain_values_keyword_and_default_constructors():
    assert CounterSpec(depth=3) == CounterSpec(3)
    state = CounterState(phase=Phase.IDLE, level=None, tick=0, counted=range(1, 1))
    assert state == CounterState(Phase.IDLE, None, 0, range(1, 1))
    hop = HopSpec(impulse=1.0, threshold=2.0, attenuation=0.0, distance=0.0)
    assert hop == HopSpec(0.0, 0.0, 2.0, 1.0)
    assert ChainSpec(hops=[hop]) == ChainSpec((hop,))
    assert WeightChain(weights=[5, 2]) == WeightChain((5, 2))
    assert Route(length=2.0) == Route(2.0, 0.0)
    assert Route(2.0, reinforcement=1.0).reinforcement == 1.0
    assert RouteSet(routes=[Route(2.0)]) == RouteSet((Route(2.0),))
    group = GroupLayout(nodes=[[0.0, 0.0], [1.0, 0.0]], terminal=1)
    assert group.terminal == 1 and group.nodes == ((0.0, 0.0), (1.0, 0.0))
    assert LayoutSpec(group_a=group, group_b=group).group_b is group


@pytest.mark.parametrize(
    "make",
    [
        lambda: CounterSpec(),
        lambda: CounterSpec(1, 2),
        lambda: CounterSpec(depth=1, size=2),
        lambda: CounterSpec(1, depth=1),
        lambda: Route(2.0, length=3.0),
        lambda: Route(),
        lambda: HopSpec(0.0, 0.0, 1.0),
    ],
    ids=["missing", "too-many", "unknown-keyword", "twice", "twice-with-default", "no-length", "short"],
)
def test_chain_values_reject_bad_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_chain_values_coerce_fields():
    hop = HopSpec(0.0, 0.0, 2.0, 1.0)
    assert type(ChainSpec([hop]).hops) is tuple
    weights = WeightChain([5, 2.0, np.int64(3)]).weights
    assert weights == (5, 2, 3) and all(type(w) is int for w in weights)
    assert type(RouteSet([Route(1.0)]).routes) is tuple
    nodes = GroupLayout([[0, 0], [1, np.int64(0)]], 0).nodes
    assert nodes == ((0.0, 0.0), (1.0, 0.0))
    assert type(nodes) is tuple and all(type(v) is float for node in nodes for v in node)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HopSpec(-1.0, 0.0, 1.0, 1.0), "distance must be finite and >= 0, got -1.0"),
        (lambda: HopSpec(0.0, -0.5, 1.0, 1.0), "attenuation must be finite and >= 0, got -0.5"),
        (lambda: HopSpec(0.0, 0.0, 0.0, 1.0), "threshold must be finite and > 0, got 0.0"),
        (lambda: HopSpec(0.0, 0.0, 1.0, 0.0), "impulse must be finite and > 0, got 0.0"),
        (lambda: HopSpec(math.nan, math.inf, 1.0, 1.0), "distance must be finite and >= 0, got nan"),
        (lambda: HopSpec(0.0, 0.0, 1.0, math.inf), "impulse must be finite and > 0, got inf"),
        (lambda: ChainSpec(()), "a chain needs at least one hop"),
        (lambda: WeightChain([]), "a weight chain needs at least one hop"),
        (lambda: WeightChain([2, 0]), "weight 2 of 2 must be >= 1, got 0"),
        (lambda: WeightChain([2, math.nan]), "weight 2 of 2 must be a whole number, got nan"),
        (lambda: Route(0.0), "length must be finite and > 0, got 0.0"),
        (lambda: Route(length=1.0, reinforcement=-1.0), "reinforcement must be finite and >= 0, got -1.0"),
        (lambda: Route(math.inf), "length must be finite and > 0, got inf"),
        (lambda: Route(1.0, math.nan), "reinforcement must be finite and >= 0, got nan"),
        (
            lambda: GroupLayout([[0.0, 0.0, 0.0]], 0),
            r"nodes must be \(x, y\) pairs, got \[\[0.0, 0.0, 0.0\]\]",
        ),
        (lambda: GroupLayout([], 0), "a group needs at least one node"),
        (lambda: GroupLayout([[math.nan, 0.0]], 0), "node positions must be finite"),
        (lambda: GroupLayout([[0.0, 0.0]], 1), r"terminal 1 not in 0\.\.0"),
        (
            lambda: stigmergy_reinforce(RouteSet([Route(1.0)]), 1, 0.0),
            "energy_per_cycle must be finite and > 0, got 0.0",
        ),
        (
            lambda: random_mirrored_layout(random.Random(0), radius=0),
            "radius must be finite and > 0, got 0",
        ),
        (
            lambda: random_mirrored_layout(random.Random(0), separation=math.inf),
            "separation must be finite and > 0, got inf",
        ),
    ],
    ids=[
        "negative-distance",
        "negative-attenuation",
        "zero-threshold",
        "zero-impulse",
        "nan-distance",
        "infinite-impulse",
        "no-hops",
        "no-weights",
        "zero-weight",
        "nan-weight",
        "zero-length",
        "negative-reinforcement",
        "infinite-length",
        "nan-reinforcement",
        "three-columns",
        "no-nodes",
        "nan-node",
        "terminal",
        "zero-energy",
        "zero-radius",
        "infinite-separation",
    ],
)
def test_chain_values_validate_on_construction(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def _chain_objects():
    group = GroupLayout([[0.0, 0.0], [1.0, 0.0]], 1)
    return {
        "counter-spec": (CounterSpec(3), "depth"),
        "counter-state": (start(CounterSpec(2)), "phase"),
        "hop": (HopSpec(0.0, 0.0, 2.0, 1.0), "impulse"),
        "chain": (ChainSpec([HopSpec(0.0, 0.0, 2.0, 1.0)]), "hops"),
        "weights": (WeightChain((5, 2)), "weights"),
        "group": (group, "terminal"),
        "layout": (LayoutSpec(group, group), "group_a"),
        "route": (Route(2.0), "reinforcement"),
        "routes": (RouteSet([Route(2.0)]), "routes"),
    }


@pytest.mark.parametrize("kind", _chain_objects().keys())
def test_chain_value_assignment_is_rejected(kind):
    obj, field = _chain_objects()[kind]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'no_such_field'"):
        obj.no_such_field = 1


def test_layouts_compare_and_hash_by_value():
    group = GroupLayout([[0.0, 0.0], [1.0, 0.0]], 1)
    twin = GroupLayout(((0, 0), (1, 0)), 1)
    assert group == twin and hash(group) == hash(twin)
    assert group != GroupLayout(group.nodes, 0) and group != GroupLayout([(0.0, 0.0)], 0)
    layout, other = LayoutSpec(group, twin), LayoutSpec(twin, group)
    assert layout == other and hash(layout) == hash(other)
    assert layout != LayoutSpec(group, GroupLayout(group.nodes, 0))
    assert len({layout, other, LayoutSpec(group, group)}) == 1
    assert repr(group) == "GroupLayout(nodes=((0.0, 0.0), (1.0, 0.0)), terminal=1)"
    assert repr(layout) == f"LayoutSpec(group_a={group!r}, group_b={group!r})"


def test_reinforcement_builds_new_routes():
    routes = RouteSet([Route(2.0), Route(4.0, 1.0)])
    after = stigmergy_reinforce(routes, 3, 2.0)
    assert after == RouteSet([Route(2.0, 3.0), Route(4.0, 2.5)])
    assert routes == RouteSet([Route(2.0), Route(4.0, 1.0)])
