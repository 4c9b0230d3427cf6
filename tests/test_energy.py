"""Signal-chain economics: attenuation, hop firings, the product rule and its
event oracle, centering costs, layout distances, stigmergic reinforcement."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestfire import (
    AttenuatedOut,
    ChainSpec,
    DegenerateLayout,
    GroupLayout,
    HopSpec,
    LayoutSpec,
    NestfireError,
    OutOfRange,
    Route,
    RouteSet,
    ValidationError,
    WeightChain,
    best_center,
    centering_cost,
    chain_source_firings,
    event_oracle,
    firings_per_hop,
    hops_from_weights,
    layout_distances,
    most_reinforced,
    random_mirrored_layout,
    required_output,
    stigmergy_reinforce,
)
from oracles import brute_force_chain_firings, reference_centering_cost

weight_lists = st.lists(st.integers(1, 5), min_size=1, max_size=6)


class TestRequiredOutput:
    def test_distance_excess(self):
        assert required_output(HopSpec(4.0, 0.25, 1.0, 1.0), 1.0) == 2.0

    def test_zero_distance_identity(self):
        assert required_output(HopSpec(0.0, 0.75, 1.0, 1.0), 3.25) == 3.25

    def test_long_hop(self):
        assert required_output(HopSpec(10.0, 0.1, 1.0, 1.0), 2.5) == 3.5

    @given(
        d=st.floats(0, 100, allow_nan=False),
        a=st.floats(0, 10, allow_nan=False),
        demand=st.floats(0, 100, allow_nan=False),
    )
    def test_affine_in_distance(self, d, a, demand):
        hop = HopSpec(d, a, 1.0, 1.0)
        assert required_output(hop, demand) == demand + d * a


class TestFiringsPerHop:
    def test_exact_single_firing(self):
        assert firings_per_hop(HopSpec(0.0, 0.0, 1.0, 1.0)) == 1

    def test_double_firing(self):
        assert firings_per_hop(HopSpec(0.0, 0.0, 2.0, 1.0)) == 2

    def test_attenuated_out(self):
        with pytest.raises(AttenuatedOut):
            firings_per_hop(HopSpec(2.0, 0.5, 1.0, 1.0))
        with pytest.raises(AttenuatedOut):
            firings_per_hop(HopSpec(3.0, 0.5, 1.0, 1.0))

    def test_partial_arrival_rounds_up(self):
        # arriving = 0.75, threshold 2.0 -> ceil(2.6...) = 3
        assert firings_per_hop(HopSpec(1.0, 0.25, 2.0, 1.0)) == 3

    def test_monotone_in_threshold_and_distance(self):
        base = HopSpec(1.0, 0.25, 2.0, 1.0)
        assert firings_per_hop(HopSpec(1.0, 0.25, 3.0, 1.0)) >= firings_per_hop(base)
        assert firings_per_hop(HopSpec(2.0, 0.25, 2.0, 1.0)) >= firings_per_hop(base)
        # nonincreasing in impulse
        assert firings_per_hop(HopSpec(1.0, 0.25, 2.0, 2.0)) <= firings_per_hop(base)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            HopSpec(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HopSpec(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            HopSpec(0.0, 0.0, 1.0, 0.0)


class TestChainFirings:
    def test_two_double_hops_need_four(self):
        assert chain_source_firings(WeightChain((2, 2))) == 4

    def test_unit_chain(self):
        assert chain_source_firings(WeightChain((1, 1, 1))) == 1

    def test_mixed_chain(self):
        # 6 = brute-force charge replay over [2, 3]
        assert chain_source_firings(WeightChain((2, 3))) == 6
        assert brute_force_chain_firings([2, 3]) == 6

    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError):
            WeightChain((2, 0))
        with pytest.raises(ValueError):
            WeightChain(())


class TestEventOracle:
    def test_double_double_chain_needs_four(self):
        assert event_oracle(hops_from_weights(WeightChain((2, 2)))) == 4

    def test_single_unit_hop(self):
        assert event_oracle(hops_from_weights(WeightChain((1,)))) == 1

    def test_weight_beyond_float_range_is_a_validation_error(self):
        # 10**400 has no float threshold; before, float() raised a bare OverflowError.
        with pytest.raises(ValidationError, match="beyond the range of a float"):
            hops_from_weights(WeightChain((2, 10**400)))

    def test_longer_chain(self):
        # 12 = this oracle on [3, 2, 2]; cross-check = product rule
        assert event_oracle(hops_from_weights(WeightChain((3, 2, 2)))) == 12
        assert chain_source_firings(WeightChain((3, 2, 2))) == 12

    def test_attenuation_propagates(self):
        chain = hops_from_weights(WeightChain((2, 2)))
        dead = chain.hops[:1] + (HopSpec(4.0, 0.5, 1.0, 1.0),)
        with pytest.raises(AttenuatedOut):
            event_oracle(ChainSpec(dead))

    def test_fractional_arrivals_match_per_hop_counts(self):
        # arriving 0.6 and 0.75: thresholds need 2 and 4 firings -> product 8
        chain = ChainSpec(
            (
                HopSpec(1.0, 0.4, 1.2, 1.0),
                HopSpec(0.5, 0.5, 2.9, 1.0),
            )
        )
        per_hop = [firings_per_hop(h) for h in chain.hops]
        assert per_hop == [2, 4]
        assert event_oracle(chain) == math.prod(per_hop)

    def test_oracle_equals_product_on_seeded_random_chains(self):
        rng = random.Random(424242)
        for _ in range(120):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
            chain = WeightChain(tuple(weights))
            assert event_oracle(hops_from_weights(chain)) == chain_source_firings(chain)

    @given(weight_lists)
    def test_oracle_equals_product_and_brute_force(self, weights):
        chain = WeightChain(tuple(weights))
        product = chain_source_firings(chain)
        assert event_oracle(hops_from_weights(chain)) == product
        assert brute_force_chain_firings(weights) == product

    # The last product has 4501 digits, more than Python converts to text by default.
    @pytest.mark.parametrize(
        "weights", [(1001, 1000), (1000, 1000, 1000), (10**6 + 1,), (1000,) * 1500]
    )
    def test_replays_over_a_million_firings_are_refused(self, weights):
        with pytest.raises(ValidationError, match="source firings"):
            event_oracle(hops_from_weights(WeightChain(weights)))

    # Rounded running sums part the replay from the per-hop count either way:
    # 0.1 + 0.1 + 0.1 reaches 0.30000000000000004, and seven 0.1s fall short
    # of 0.7000000000000001.
    @pytest.mark.parametrize(
        "threshold, per_hop, replayed", [(0.30000000000000004, 4, 3), (0.7000000000000001, 7, 8)]
    )
    def test_float_hops_can_disagree_with_the_per_hop_count(self, threshold, per_hop, replayed):
        hop = HopSpec(0, 0, threshold, 0.1)
        assert (firings_per_hop(hop), event_oracle(ChainSpec((hop,)))) == (per_hop, replayed)


class TestCenteringCost:
    CHAIN = WeightChain((5, 2, 2, 2, 10, 10))

    def test_cluster_centre_costs_more(self):
        assert centering_cost(self.CHAIN, 2) == 410  # N3

    def test_region_centre_costs_less(self):
        assert centering_cost(self.CHAIN, 4) == 140  # N5

    def test_edge_position(self):
        assert centering_cost(self.CHAIN, 0) == 4000  # N1: empty left side

    def test_full_cost_list(self):
        costs = [centering_cost(self.CHAIN, p) for p in range(self.CHAIN.num_positions)]
        assert costs == [4000, 805, 410, 220, 140, 410, 4000]

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            centering_cost(self.CHAIN, 7)
        with pytest.raises(OutOfRange):
            centering_cost(self.CHAIN, -1)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    def test_matches_the_slice_product_formula(self, weights):
        chain = WeightChain(tuple(weights))
        for pos in range(chain.num_positions):
            assert centering_cost(chain, pos) == reference_centering_cost(weights, pos)

    @given(weight_lists, st.integers(1, 5))
    def test_appending_a_hop_never_cheapens_existing_positions(self, weights, extra):
        chain = WeightChain(tuple(weights))
        extended = WeightChain(tuple(weights) + (extra,))
        for pos in range(chain.num_positions):
            assert centering_cost(extended, pos) >= centering_cost(chain, pos)

    @given(weight_lists)
    def test_reversal_symmetry(self, weights):
        chain = WeightChain(tuple(weights))
        reversed_chain = WeightChain(tuple(reversed(weights)))
        n = chain.num_positions
        for pos in range(n):
            assert centering_cost(chain, pos) == centering_cost(reversed_chain, n - 1 - pos)


class TestBestCenter:
    def test_prefers_region_centre(self):
        assert best_center(WeightChain((5, 2, 2, 2, 10, 10))) == 4  # N5

    def test_single_hop_tie_breaks_low(self):
        assert best_center(WeightChain((1,))) == 0

    def test_flat_costs_tie_break_low(self):
        chain = WeightChain((2, 2))
        costs = [centering_cost(chain, p) for p in range(3)]
        assert costs == [4, 4, 4]
        assert best_center(chain) == 0

    @given(weight_lists)
    def test_palindrome_centre(self, weights):
        palindrome = tuple(weights) + tuple(reversed(weights))
        chain = WeightChain(palindrome)
        middle = len(weights)
        interior = [
            centering_cost(chain, pos) for pos in range(1, chain.num_positions - 1)
        ]
        # the exact middle attains the interior minimum (left/right products
        # balance there), and the global argmin never costs more
        assert centering_cost(chain, middle) == min(interior)
        best = best_center(chain)
        assert centering_cost(chain, best) <= centering_cost(chain, middle)
        # mirror position ties by symmetry, so the tie-break keeps best low
        assert best <= chain.num_positions - 1 - best

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    def test_matches_the_cheapest_position_by_cost(self, weights):
        chain = WeightChain(tuple(weights))
        positions = range(chain.num_positions)
        cheapest = min(positions, key=lambda pos: reference_centering_cost(weights, pos))
        assert best_center(chain) == cheapest


class TestLayout:
    def collinear_layout(self, separation):
        a = GroupLayout(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), 0)
        nodes_b = ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        b = GroupLayout([(x + separation, y) for x, y in nodes_b], 0)
        return LayoutSpec(a, b)

    def test_facing_edges(self):
        inward, outward = layout_distances(self.collinear_layout(4.0))
        assert inward == 2.0
        assert outward == 6.0

    def test_wider_separation(self):
        inward, outward = layout_distances(self.collinear_layout(10.0))
        assert inward == 8.0
        assert outward == 12.0

    def test_coincident_groups_rejected(self):
        a = GroupLayout(((1.0, 0.0), (-1.0, 0.0)), 0)
        with pytest.raises(DegenerateLayout):
            layout_distances(LayoutSpec(a, a))

    def test_terminal_must_exist(self):
        with pytest.raises(ValueError):
            GroupLayout(((0.0, 0.0),), 3)

    def test_mirrored_layouts_prefer_inward(self):
        # numpy's Generator has the two draws a layout needs, as random.Random does.
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(90210)
        for _ in range(50):
            radius = float(rng.uniform(0.5, 3.0))
            layout = random_mirrored_layout(
                rng,
                num_nodes=int(rng.integers(2, 16)),
                radius=radius,
                separation=float(rng.uniform(2.2 * radius, 10.0 * radius)),
            )
            inward, outward = layout_distances(layout)
            assert inward < outward

    def test_mirrored_layout_geometry(self):
        layout = random_mirrored_layout(random.Random(3), num_nodes=7, radius=1.5, separation=5.0)
        assert layout.separation == pytest.approx(5.0)
        # group b is group a point-reflected through the midpoint between centers
        (ax, ay), (bx, by) = layout.group_a.center, layout.group_b.center
        nodes_a, nodes_b = layout.group_a.nodes, layout.group_b.nodes
        assert len(nodes_a) == len(nodes_b) == 7
        for (xa, ya), (xb, yb) in zip(nodes_a, nodes_b):
            assert (xa + xb, ya + yb) == pytest.approx((ax + bx, ay + by))

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_nodes=st.integers(2, 16),
        radius=st.floats(0.01, 100.0),
        ratio=st.floats(2.2, 20.0),
    )
    def test_distances_follow_the_closed_form(self, seed, num_nodes, radius, ratio):
        # The closed form of ``layout_distances``' docstring, from group a alone.
        separation = ratio * radius
        layout = random_mirrored_layout(random.Random(seed), num_nodes, radius, separation)
        group = layout.group_a
        (cx, cy), (tx, ty) = group.center, group.terminal_position
        dx, dy = tx - cx, ty - cy
        inward, outward = layout_distances(layout)
        assert inward == pytest.approx(2 * math.hypot(separation / 2 - dx, dy), rel=1e-9)
        assert outward == pytest.approx(2 * math.hypot(separation / 2 + dx, dy), rel=1e-9)
        assert (inward < outward) == (dx > 0)
        # the terminal is the node of largest x, so it is never left of the center
        assert dx >= 0


class TestStigmergy:
    def test_deposit_formula(self):
        routes = RouteSet((Route(2.0), Route(6.0)))
        after = stigmergy_reinforce(routes, 10, 1.0)
        assert after.routes[0].reinforcement == 5.0
        assert after.routes[1].reinforcement == pytest.approx(5.0 / 3.0)

    def test_equal_lengths_equal_trace(self):
        routes = RouteSet((Route(3.0), Route(3.0), Route(3.0)))
        after = stigmergy_reinforce(routes, 7, 2.0)
        traces = {r.reinforcement for r in after.routes}
        assert len(traces) == 1

    def test_zero_cycles_identity(self):
        routes = RouteSet((Route(2.0, 1.5), Route(6.0)))
        assert stigmergy_reinforce(routes, 0, 1.0) == routes

    def test_shorter_route_wins(self):
        routes = RouteSet((Route(4.0), Route(2.5), Route(9.0)))
        after = stigmergy_reinforce(routes, 5, 1.0)
        assert most_reinforced(after) == 1
        ordered = sorted(after.routes, key=lambda r: r.length)
        assert [r.reinforcement for r in ordered] == sorted(
            (r.reinforcement for r in after.routes), reverse=True
        )

    @given(
        lengths=st.lists(st.integers(1, 500), min_size=1, max_size=8, unique=True),
        scale=st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_argmax_invariant_under_energy_scaling(self, lengths, scale):
        routes = RouteSet(tuple(Route(float(length)) for length in lengths))
        base = stigmergy_reinforce(routes, 3, 1.0)
        scaled = stigmergy_reinforce(routes, 3, scale)
        for r_base, r_scaled in zip(base.routes, scaled.routes):
            assert r_scaled.reinforcement == pytest.approx(scale * r_base.reinforcement)
        assert most_reinforced(base) == most_reinforced(scaled)

    def test_invalid_inputs(self):
        routes = RouteSet((Route(2.0),))
        with pytest.raises(ValueError):
            stigmergy_reinforce(routes, -1, 1.0)
        with pytest.raises(ValueError):
            stigmergy_reinforce(routes, 1, 0.0)
        with pytest.raises(ValueError):
            Route(0.0)


NAN = float("nan")
INF = float("inf")

INVALID_ENERGY_INPUTS = {
    "hop-nan-distance": lambda: HopSpec(NAN, 0.25, 2.0, 1.0),
    "hop-nan-attenuation": lambda: HopSpec(1.0, NAN, 2.0, 1.0),
    "hop-nan-threshold": lambda: HopSpec(1.0, 0.25, NAN, 1.0),
    "hop-nan-impulse": lambda: HopSpec(1.0, 0.25, 2.0, NAN),
    "hop-inf-distance": lambda: HopSpec(INF, 0.25, 2.0, 1.0),
    "hop-inf-attenuation": lambda: HopSpec(1.0, INF, 2.0, 1.0),
    "hop-inf-threshold": lambda: HopSpec(1.0, 0.25, INF, 1.0),
    "hop-inf-impulse": lambda: HopSpec(1.0, 0.25, 2.0, INF),
    "hop-negative-distance": lambda: HopSpec(-1.0, 0.0, 1.0, 1.0),
    "hop-negative-attenuation": lambda: HopSpec(0.0, -1.0, 1.0, 1.0),
    "hop-zero-threshold": lambda: HopSpec(0.0, 0.0, 0.0, 1.0),
    "hop-zero-impulse": lambda: HopSpec(0.0, 0.0, 1.0, 0.0),
    "hop-too-many-firings": lambda: firings_per_hop(HopSpec(0.0, 0.0, 1e300, 1e-300)),
    "empty-chain": lambda: ChainSpec(()),
    "empty-weight-chain": lambda: WeightChain(()),
    "weight-below-one": lambda: WeightChain((2, 0)),
    "weight-fraction": lambda: WeightChain([2.5]),
    "weight-nan": lambda: WeightChain([2, NAN]),
    "weight-inf": lambda: WeightChain([INF]),
    "weight-text": lambda: WeightChain(["x"]),
    "group-wrong-shape": lambda: GroupLayout([(0.0, 0.0, 0.0)] * 3, 0),
    "group-bad-terminal": lambda: GroupLayout([(0.0, 0.0)] * 3, 3),
    "layout-one-node": lambda: random_mirrored_layout(random.Random(0), num_nodes=1),
    "layout-zero-radius": lambda: random_mirrored_layout(random.Random(0), radius=0.0),
    "group-nan-node": lambda: GroupLayout([(0.0, NAN), (1.0, 0.0)], 0),
    "layout-nan-radius": lambda: random_mirrored_layout(random.Random(0), radius=NAN),
    "layout-inf-separation": lambda: random_mirrored_layout(random.Random(0), separation=INF),
    "route-nan-length": lambda: Route(NAN),
    "route-inf-reinforcement": lambda: Route(1.0, INF),
    "route-zero-length": lambda: Route(0.0),
    "route-negative-reinforcement": lambda: Route(1.0, -1.0),
    "reinforce-negative-cycles": lambda: stigmergy_reinforce(RouteSet((Route(2.0),)), -1, 1.0),
    "reinforce-zero-energy": lambda: stigmergy_reinforce(RouteSet((Route(2.0),)), 1, 0.0),
    "reinforce-nan-energy": lambda: stigmergy_reinforce(RouteSet((Route(2.0),)), 1, NAN),
    "empty-route-set": lambda: most_reinforced(RouteSet(())),
}


@pytest.mark.parametrize("make", INVALID_ENERGY_INPUTS.values(), ids=INVALID_ENERGY_INPUTS.keys())
def test_invalid_energy_input_raises_nestfire_error(make):
    with pytest.raises(NestfireError):
        make()
