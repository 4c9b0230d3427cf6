"""Nesting structure: chain construction, ancestor/member queries, validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestfire import (
    EnsembleSpec,
    InvalidDimension,
    PatternSpec,
    UnknownPattern,
    ancestors,
    build_linear,
    members,
    validate,
)


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
