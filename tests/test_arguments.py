"""Numeric arguments of the public entry points: a value that is no number
of the kind due raises the error the argument's range check raises, never a
bare builtin error, and no such value is accepted."""

import math
import random

import pytest

from nestfire import (
    CounterSpec,
    CounterState,
    EnsembleSpec,
    MODE_FREE_RUN,
    GroupLayout,
    HopSpec,
    InvalidDepth,
    InvalidDimension,
    OutOfRange,
    PatternSpec,
    Phase,
    Route,
    RouteSet,
    Schedule,
    UnknownPattern,
    ValidationError,
    WeightChain,
    ancestors,
    build_linear,
    centering_cost,
    compare_grids,
    first_zero_step,
    members,
    pattern_strength,
    random_mirrored_layout,
    required_output,
    run,
    stigmergy_reinforce,
    tick,
)
from nestfire.errors import _shown

SPEC = build_linear(3, 2, 1.0, 0.5)
TRACE = run(SPEC, Schedule.staggered(3), 4)
ROUTES = RouteSet((Route(2.0),))
GRID = [[1.0, 2.0, 3.0]]
HOP = HopSpec(1.0, 0.5, 1.0, 1.0)


def rng():
    return random.Random(0)


def with_parent(parent):
    return EnsembleSpec((PatternSpec(0, None, 1), PatternSpec(1, parent, 1)), 1.0, 0.5)


# Each takes the junk value in place of one argument, and names the error.
WHOLE = {
    "run-steps": (lambda n: run(SPEC, Schedule.staggered(3), n), ValidationError),
    "build_linear-depth": (lambda n: build_linear(n, 2, 1.0, 0.5), InvalidDimension),
    "build_linear-size": (lambda n: build_linear(2, n, 1.0, 0.5), InvalidDimension),
    "staggered-num_patterns": (lambda n: Schedule.staggered(n), ValidationError),
    "pattern_strength-pattern": (lambda n: pattern_strength(TRACE, n, 1), OutOfRange),
    "pattern_strength-step": (lambda n: pattern_strength(TRACE, 0, n), OutOfRange),
    "first_zero_step-pattern": (lambda n: first_zero_step(TRACE, n), OutOfRange),
    "ancestors-pattern": (lambda n: ancestors(SPEC, n), UnknownPattern),
    "members-pattern": (lambda n: members(SPEC, n), UnknownPattern),
    "offset-pattern": (lambda n: SPEC.offset(n), UnknownPattern),
    "counter-depth": (lambda n: CounterSpec(n), InvalidDepth),
    # The tick number of a state passed in from outside.
    "tick-state_tick": (
        lambda n: tick(CounterState(Phase.CASCADING, 1, n, range(1, 2)), CounterSpec(3)),
        ValidationError,
    ),
    "centering_cost-position": (lambda n: centering_cost(WeightChain((2, 3)), n), OutOfRange),
    "stigmergy-cycles": (lambda n: stigmergy_reinforce(ROUTES, n, 1.0), ValidationError),
    "layout-num_nodes": (lambda n: random_mirrored_layout(rng(), num_nodes=n), ValidationError),
    "group-terminal": (lambda n: GroupLayout([[0.0, 0.0], [1.0, 0.0]], n), ValidationError),
}
REAL = {
    **{
        f"hop-{field}": (
            lambda x, k=k: HopSpec(*[x if j == k else 1.0 for j in range(4)]),
            ValidationError,
        )
        for k, field in enumerate(["distance", "attenuation", "threshold", "impulse"])
    },
    "route-length": (lambda x: Route(x), ValidationError),
    "route-reinforcement": (lambda x: Route(1.0, x), ValidationError),
    "stigmergy-energy": (lambda x: stigmergy_reinforce(ROUTES, 1, x), ValidationError),
    "required_output-demand": (lambda x: required_output(HOP, x), ValidationError),
    "compare_grids-tolerance": (lambda x: compare_grids(GRID, GRID, x), ValidationError),
    "layout-radius": (lambda x: random_mirrored_layout(rng(), radius=x), ValidationError),
    "layout-separation": (lambda x: random_mirrored_layout(rng(), separation=x), ValidationError),
    "run-unit": (lambda x: run(build_linear(2, 1, x, 0.5), Schedule.staggered(2), 2), ValidationError),
}
JUNK = {"text": "1", "fraction": 1.5, "nan": math.nan, "none": None, "complex": 1j}


@pytest.mark.parametrize("junk", JUNK.values(), ids=JUNK.keys())
@pytest.mark.parametrize("call, error", WHOLE.values(), ids=WHOLE.keys())
def test_whole_number_arguments_refuse_junk(call, error, junk):
    with pytest.raises(Exception) as info:
        call(junk)
    assert type(info.value) is error, info.value


@pytest.mark.parametrize("junk", ["1", math.nan, 1j], ids=["text", "nan", "complex"])
def test_parents_that_ancestors_walks_refuse_junk(junk):
    with pytest.raises(ValidationError) as info:
        ancestors(with_parent(junk), 1)
    assert type(info.value) is ValidationError


# 10**5000 has more digits than Python converts to text, so a message must not print it.
@pytest.mark.parametrize(
    "junk", ["1", math.nan, None, 1j, 10**5000], ids=["text", "nan", "none", "complex", "huge"]
)
@pytest.mark.parametrize("call, error", REAL.values(), ids=REAL.keys())
def test_real_arguments_refuse_junk(call, error, junk):
    with pytest.raises(Exception) as info:
        call(junk)
    assert type(info.value) is error, info.value


@pytest.mark.parametrize(
    "value, shown",
    [
        ("x" * 20, repr("x" * 20)),
        ("x" * 100_000, f"{'x' * 20!r}... (100000 characters)"),
        (-999_999_999, "-999999999"),
        (-(10**9), "-(over 9 digits)"),
        (10**5000, "(over 9 digits)"),
        (list(range(10)), "[0, 1, 2, 3, 4, 5, 6... (30 characters)"),
        ((1, 10**5000), "a tuple with no repr"),
    ],
    ids=["str-20", "str-100000", "int-9-digits", "int-10-digits", "int-5001-digits", "list",
         "tuple-of-5001-digits"],
)
def test_messages_quote_input_by_one_bounded_rule(value, shown):
    assert _shown(value) == shown


def test_whole_floats_still_count():
    # A float with no fraction part is the integer it equals.
    assert pattern_strength(TRACE, 1.0, 2.0) == pattern_strength(TRACE, 1, 2)
    assert members(SPEC, 2.0) == [4, 5] and ancestors(with_parent(0.0), 1) == [0]
    assert CounterSpec(3.0).depth == 3 and type(CounterSpec(3.0).depth) is int
    assert run(SPEC, Schedule.staggered(3.0), 2.0).num_steps == 2
    off = [run(SPEC, Schedule.staggered(3), 4, MODE_FREE_RUN, d).strength for d in (2, 2.0)]
    assert off[0] == off[1] != run(SPEC, Schedule.staggered(3), 4, MODE_FREE_RUN).strength


# ``None``, the default, keeps the drive on: every other junk value is refused.
DRIVE_JUNK = {**{k: v for k, v in JUNK.items() if k != "none"}, "negative": -1}


@pytest.mark.parametrize("junk", DRIVE_JUNK.values(), ids=DRIVE_JUNK.keys())
def test_run_drive_refuses_junk(junk):
    with pytest.raises(ValidationError, match="drive must be") as info:
        run(SPEC, Schedule.staggered(3), 4, MODE_FREE_RUN, drive=junk)
    assert type(info.value) is ValidationError
