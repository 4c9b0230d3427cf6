"""Public value semantics of the spec, schedule, state, trace and report
classes, and of the counter and energy value classes: repr text, equality
and hash, rejected assignment, keyword construction, coercion of fields, and
validation on construction."""

import math

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
    Schedule,
    SimState,
    TraceTable,
    ValidationError,
    WeightChain,
    WrongShape,
    build_linear,
    initial_state,
    run,
    start,
    stigmergy_reinforce,
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
    assert group.terminal == 1 and group.nodes.tolist() == [[0.0, 0.0], [1.0, 0.0]]
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
    nodes = GroupLayout([[0, 0], [1, 0]], 0).nodes
    assert type(nodes) is np.ndarray and nodes.dtype == float


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HopSpec(-1.0, 0.0, 1.0, 1.0), "distance must be >= 0, got -1.0"),
        (lambda: HopSpec(0.0, -0.5, 1.0, 1.0), "attenuation must be >= 0, got -0.5"),
        (lambda: HopSpec(0.0, 0.0, 0.0, 1.0), "threshold must be > 0, got 0.0"),
        (lambda: HopSpec(0.0, 0.0, 1.0, 0.0), "impulse must be > 0, got 0.0"),
        (lambda: HopSpec(math.nan, math.inf, 1.0, 1.0), "distance must be finite, got nan"),
        (lambda: HopSpec(0.0, 0.0, 1.0, math.inf), "impulse must be finite, got inf"),
        (lambda: ChainSpec(()), "a chain needs at least one hop"),
        (lambda: WeightChain([]), "a weight chain needs at least one hop"),
        (lambda: WeightChain([2, 0]), "all weights must be >= 1, got 0"),
        (lambda: WeightChain([2, math.nan]), "weight 1 must be a whole number, got nan"),
        (lambda: Route(0.0), "route length must be > 0, got 0.0"),
        (lambda: Route(length=1.0, reinforcement=-1.0), "reinforcement must be >= 0, got -1.0"),
        (lambda: Route(math.inf), "length must be finite, got inf"),
        (lambda: Route(1.0, math.nan), "reinforcement must be finite, got nan"),
        (
            lambda: GroupLayout([[0.0, 0.0, 0.0]], 0),
            r"nodes must be a \(k, 2\) array, got shape \(1, 3\)",
        ),
        (lambda: GroupLayout(np.zeros((0, 2)), 0), r"got shape \(0, 2\)"),
        (lambda: GroupLayout([[math.nan, 0.0]], 0), "node positions must be finite"),
        (lambda: GroupLayout([[0.0, 0.0]], 1), "terminal 1 not among the 1 nodes"),
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


def test_layouts_are_equal_only_to_themselves():
    group = GroupLayout([[0.0, 0.0], [1.0, 0.0]], 1)
    twin = GroupLayout([[0.0, 0.0], [1.0, 0.0]], 1)
    assert group == group and group != twin
    assert hash(group) == object.__hash__(group)
    layout, other = LayoutSpec(group, twin), LayoutSpec(group, twin)
    assert layout == layout and layout != other
    assert hash(layout) == object.__hash__(layout)
    assert repr(LayoutSpec(group, group)).startswith(
        "LayoutSpec(group_a=GroupLayout(nodes=array([[0., 0.],"
    )
    assert repr(group) == "GroupLayout(nodes=array([[0., 0.],\n       [1., 0.]]), terminal=1)"


def test_reinforcement_builds_new_routes():
    routes = RouteSet([Route(2.0), Route(4.0, 1.0)])
    after = stigmergy_reinforce(routes, 3, 2.0)
    assert after == RouteSet([Route(2.0, 3.0), Route(4.0, 2.5)])
    assert routes == RouteSet([Route(2.0), Route(4.0, 1.0)])
