"""Nesting structure: chain construction, ancestor/member queries, validation."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nestfire.counter  # loaded, so that Frozen.__subclasses__() lists their value classes
import nestfire.energy
from nestfire import (
    EnsembleSpec,
    InvalidDimension,
    PatternSpec,
    TraceTable,
    UnknownPattern,
    ValidationError,
    ancestors,
    build_linear,
    members,
    validate,
)
from nestfire.topology import Frozen
from oracles import reaches_root


@st.composite
def parent_links(draw):
    """Parent links of 1..60 patterns: roots, self-loops, links to any index
    in or just outside 0..P-1, and long chains with a few links redrawn."""
    n = draw(st.integers(1, 60))
    link = st.one_of(st.none(), st.integers(-2, n + 1), st.just("self"))
    if draw(st.booleans()):
        parents = [None, *range(n - 1)]
        edits = draw(st.lists(st.tuples(st.integers(0, n - 1), link), max_size=3))
    else:
        parents = [None] * n
        edits = list(enumerate(draw(st.lists(link, min_size=n, max_size=n))))
    for k, parent in edits:
        parents[k] = k if parent == "self" else parent
    return parents


class TestBuildLinear:
    def test_standard_chain_dimensions(self):
        spec = build_linear(5, 5, 1.0, 0.5)
        assert spec.num_patterns == 5
        assert spec.num_neurons == 25
        assert [p.parent for p in spec.patterns] == [None, 0, 1, 2, 3]

    def test_single_pattern_has_no_nesting(self):
        spec = build_linear(1, 5, 1.0, 0.5)
        assert spec.num_neurons == 5
        assert ancestors(spec, 0) == []

    def test_small_chain_ancestors(self):
        spec = build_linear(3, 2, 1.0, 0.5)
        assert spec.num_neurons == 6
        assert ancestors(spec, 2) == [1, 0]

    @pytest.mark.parametrize("depth,size", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimensions_rejected(self, depth, size):
        with pytest.raises(InvalidDimension):
            build_linear(depth, size, 1.0, 0.5)


class TestAncestors:
    def test_deepest_pattern_inhibits_all_outer(self):
        spec = build_linear(5, 5, 1.0, 0.5)
        assert ancestors(spec, 4) == [3, 2, 1, 0]

    def test_root_has_none(self):
        spec = build_linear(5, 5, 1.0, 0.5)
        assert ancestors(spec, 0) == []

    def test_middle_of_short_chain(self):
        spec = build_linear(3, 2, 1.0, 0.5)
        assert ancestors(spec, 1) == [0]

    def test_out_of_range(self):
        spec = build_linear(3, 2, 1.0, 0.5)
        with pytest.raises(UnknownPattern):
            ancestors(spec, 3)
        with pytest.raises(UnknownPattern):
            ancestors(spec, -1)


class TestMembers:
    def test_outermost_block(self):
        spec = build_linear(5, 5, 1.0, 0.5)
        assert members(spec, 0) == [0, 1, 2, 3, 4]

    def test_innermost_block(self):
        spec = build_linear(5, 5, 1.0, 0.5)
        assert members(spec, 4) == [20, 21, 22, 23, 24]

    def test_singleton_pattern(self):
        spec = build_linear(2, 1, 1.0, 0.5)
        assert members(spec, 1) == [1]

    def test_blocks_follow_unequal_sizes(self):
        spec = EnsembleSpec(
            (PatternSpec(0, None, 2), PatternSpec(1, 0, 3), PatternSpec(2, 0, 1)), 1.0, 0.5
        )
        assert [members(spec, p) for p in range(3)] == [[0, 1], [2, 3, 4], [5]]
        assert spec.num_neurons == 6

    def test_out_of_range(self):
        spec = build_linear(2, 1, 1.0, 0.5)
        with pytest.raises(UnknownPattern):
            members(spec, 2)
        with pytest.raises(UnknownPattern):
            members(spec, -1)
        with pytest.raises(UnknownPattern):
            spec.offset(2)


class TestValidate:
    def test_standard_chain_is_ok(self):
        assert validate(build_linear(5, 5, 1.0, 0.5)) == []

    def test_self_parent_is_a_cycle(self):
        spec = EnsembleSpec((PatternSpec(0, 0, 3),), 1.0, 0.5)
        assert any("cycle" in v for v in validate(spec))

    def test_empty_pattern(self):
        spec = EnsembleSpec((PatternSpec(0, None, 0),), 1.0, 0.5)
        assert any("empty pattern" in v for v in validate(spec))

    def test_dangling_parent(self):
        spec = EnsembleSpec((PatternSpec(0, 7, 3),), 1.0, 0.5)
        assert any("does not exist" in v for v in validate(spec))

    def test_bad_signal_parameters(self):
        violations = validate(EnsembleSpec((PatternSpec(0, None, 3),), 0.0, -0.1))
        assert any("excitatory_unit" in v for v in violations)
        assert any("inhibitory_weight" in v for v in violations)

    @pytest.mark.parametrize(
        "patterns, unit, weight, violation",
        [
            ((PatternSpec(0, None, 1.5),), 1.0, 0.5, "pattern 0 needs integer id, parent and size"),
            ((PatternSpec(0, None, float("nan")),), 1.0, 0.5, "pattern 0 needs integer id"),
            ((PatternSpec(0, None, 1), PatternSpec(1, "0", 1)), 1.0, 0.5, "pattern 1 needs"),
            ((PatternSpec(0, None, 1),), "1", 0.5, "excitatory_unit must be finite and > 0, got '1'"),
            ((PatternSpec(0, None, 1),), 10**400, 0.5, "got 1000000000000000000000000000000000000000..."),
            ((PatternSpec(0, None, 1),), 1.0, 0.5j, "inhibitory_weight must be finite and >= 0"),
            ((), 1.0, 0.5, "ensemble has no patterns"),
            ((PatternSpec(0, None, 1), PatternSpec(2, 0, 1)), 1.0, 0.5, "position 1 has id 2"),
        ],
        ids=["size-fraction", "size-nan", "parent-text", "unit-text", "unit-huge", "weight-complex",
             "no-patterns", "id-out-of-place"],
    )
    def test_reports_fields_of_the_wrong_type(self, patterns, unit, weight, violation):
        violations = validate(EnsembleSpec(patterns, unit, weight))
        assert len(violations) == 1 and violation in violations[0]

    def test_all_violations_reported_not_just_first(self):
        spec = EnsembleSpec((PatternSpec(0, 0, 0),), 0.0, 0.5)
        violations = validate(spec)
        assert len(violations) >= 3  # cycle + empty + excitatory_unit

    def test_general_tree_is_ok(self):
        spec = EnsembleSpec(
            (
                PatternSpec(0, None, 2),
                PatternSpec(1, 0, 2),
                PatternSpec(2, 0, 3),  # sibling of 1, also nested in 0
            ),
            1.0,
            0.5,
        )
        assert validate(spec) == []
        assert ancestors(spec, 2) == [0]

    @given(parent_links())
    def test_flags_exactly_the_patterns_that_never_reach_a_root(self, parents):
        spec = EnsembleSpec(tuple(PatternSpec(k, p, 1) for k, p in enumerate(parents)), 1.0, 0.5)
        violations = validate(spec)
        flagged = {int(re.search(r"pattern (\d+)", v)[1]) for v in violations}
        assert len(flagged) == len(violations)
        assert flagged == {k for k in range(len(parents)) if not reaches_root(parents, k)}
        for k in range(len(parents)):
            if k in flagged:
                with pytest.raises(ValidationError):
                    ancestors(spec, k)
            else:
                assert len(ancestors(spec, k)) < len(parents)

    def test_every_pattern_of_a_long_ring_is_flagged(self):
        ring = [PatternSpec(k, k - 1 if k else 4999, 1) for k in range(5000)]
        violations = validate(EnsembleSpec(tuple(ring), 1.0, 0.5))
        assert len(violations) == 5000 and all("cycle" in v for v in violations)


@given(depth=st.integers(1, 8), size=st.integers(1, 6))
def test_linear_chain_properties(depth, size):
    spec = build_linear(depth, size, 1.0, 0.5)
    assert validate(spec) == []
    seen = []
    for k in range(depth):
        # ancestors(k) has length exactly k and is strictly shorter than P
        chain = ancestors(spec, k)
        assert chain == list(range(k - 1, -1, -1))
        assert len(chain) < spec.num_patterns or spec.num_patterns == 0
        seen.extend(members(spec, k))
    # membership partitions the neurons
    assert seen == list(range(spec.num_neurons))


# The value classes of every module, and the one that names its fields itself:
# its ``strength`` is a view, not an annotated field.
VALUE_CLASSES = [cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("nestfire.")]
OWN_FIELDS = {TraceTable: ("strength",)}


class TestFieldRule:
    """A Frozen subclass's fields are the names its own body annotates, in
    order, unless it sets ``_fields``."""

    @pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
    def test_fields_are_the_annotated_names(self, cls):
        annotated = tuple(vars(cls).get("__annotations__", ()))
        assert cls._fields == OWN_FIELDS.get(cls, annotated) != ()

    def test_there_are_twelve_value_classes(self):
        assert len(VALUE_CLASSES) == 12

    def test_fields_set_by_the_class_are_kept(self):
        class Pair(Frozen):
            _fields = ("second", "first")
            first: int
            second: int = 2

        assert Pair._fields == ("second", "first")
        assert repr(Pair(1, 3)).endswith("Pair(second=1, first=3)")
        assert Pair(first=3) == Pair(2, 3)

    def test_annotated_fields_bind_in_order_with_defaults(self):
        class Pair(Frozen):
            first: int
            second: int = 2

        assert Pair._fields == ("first", "second")
        assert Pair(1) == Pair(1, 2) == Pair(second=2, first=1) == Pair(1, second=2)
        assert repr(Pair(1)).endswith("Pair(first=1, second=2)")
        message = r"^Pair\(\) takes the arguments first, second$"
        for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})]:
            with pytest.raises(TypeError, match=message):
                Pair(*args, **kwargs)

    def test_a_class_that_annotates_nothing_has_no_fields(self):
        class Empty(Frozen):
            size = 3

        assert Empty._fields == () and Empty() == Empty() and Empty().size == 3
        with pytest.raises(TypeError, match=r"^Empty\(\) takes the arguments $"):
            Empty(3)
