"""Signal-chain economics: attenuation over distance, capacitor-style
multi-hop firing counts, the multiplicative centering cost with its argmin
placement rule, and the inward-vs-outward layout comparison with a
pheromone-style reinforcement model.

A hop loses ``distance * attenuation`` signal units, so a feeder must emit
the downstream demand plus that excess. When one impulse is too weak to
fire the next neuron, the receiver accumulates charge across firings and
fires once its threshold is reached, resetting to zero; the source firings
needed to push one activation across a whole chain is then the product of
the per-hop requirements. ``event_oracle`` replays that accumulation
event-by-event as an independent check on the product rule.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import AttenuatedOut, DegenerateLayout, OutOfRange, ValidationError
from .topology import Frozen, _real, _shown, _whole, brief

__all__ = [
    "HopSpec",
    "ChainSpec",
    "WeightChain",
    "GroupLayout",
    "LayoutSpec",
    "Route",
    "RouteSet",
    "required_output",
    "firings_per_hop",
    "chain_source_firings",
    "event_oracle",
    "hops_from_weights",
    "centering_cost",
    "best_center",
    "layout_distances",
    "random_mirrored_layout",
    "stigmergy_reinforce",
    "most_reinforced",
]

_MAX_ORACLE_FIRINGS = 10**6  # event_oracle replays a million in about half a second


class HopSpec(Frozen):
    """One feeder-to-target link.

    ``impulse`` signal units leave the feeder per firing, ``attenuation``
    units are lost per unit ``distance``, and the target fires once
    ``threshold`` units have accumulated.
    """

    distance: float
    attenuation: float
    threshold: float
    impulse: float

    def _check(self) -> None:
        _check_finite(**vars(self))
        if self.distance < 0:
            raise ValidationError(f"distance must be >= 0, got {self.distance}")
        if self.attenuation < 0:
            raise ValidationError(f"attenuation must be >= 0, got {self.attenuation}")
        if self.threshold <= 0:
            raise ValidationError(f"threshold must be > 0, got {self.threshold}")
        if self.impulse <= 0:
            raise ValidationError(f"impulse must be > 0, got {self.impulse}")

    @property
    def arriving(self) -> float:
        """Signal delivered per upstream firing after distance loss."""
        return self.impulse - self.distance * self.attenuation


class ChainSpec(Frozen):
    """A line of neurons; hop h connects neuron h to neuron h+1."""

    hops: tuple[HopSpec, ...]

    def _check(self) -> None:
        object.__setattr__(self, "hops", tuple(self.hops))
        if not self.hops:
            raise ValidationError("a chain needs at least one hop")


class WeightChain(Frozen):
    """Per-hop required firing counts along a line of neurons."""

    weights: tuple[int, ...]

    def _check(self) -> None:
        weights = tuple(_whole(w, f"weight {k}") for k, w in enumerate(self.weights))
        object.__setattr__(self, "weights", weights)
        if not self.weights:
            raise ValidationError("a weight chain needs at least one hop")
        if any(w < 1 for w in self.weights):
            raise ValidationError(f"all weights must be >= 1, got {brief(min(self.weights))}")

    @property
    def num_positions(self) -> int:
        """Neuron positions along the line (= hops + 1)."""
        return len(self.weights) + 1

    @cached_property
    def _costs(self) -> list[int]:
        """Every position's centering cost, from prefix and suffix products."""
        left = [0, *accumulate(self.weights, mul)]
        right = [*accumulate(reversed(self.weights), mul)][::-1] + [0]
        return [a + b for a, b in zip(left, right)]


def required_output(hop: HopSpec, downstream_demand: float) -> float:
    """Output the feeder must emit so ``downstream_demand`` survives the hop."""
    _check_finite(downstream_demand=downstream_demand)
    return downstream_demand + hop.distance * hop.attenuation


def firings_per_hop(hop: HopSpec) -> int:
    """Upstream firings needed to push the target over threshold once.

    The target accumulates ``arriving`` units per firing, so the count is
    ceil(threshold / arriving). Raises AttenuatedOut when nothing arrives.
    """
    arriving = hop.arriving
    if arriving <= 0:
        raise AttenuatedOut(
            f"impulse {hop.impulse} cannot cover distance {hop.distance}"
            f" at loss {hop.attenuation}/unit"
        )
    firings = hop.threshold / arriving
    if not math.isfinite(firings):
        raise ValidationError(f"threshold {hop.threshold} needs too many firings at {arriving}")
    return math.ceil(firings)


def chain_source_firings(chain: WeightChain) -> int:
    """Source firings needed for one activation at the chain's far end:
    the product of the per-hop requirements."""
    return math.prod(chain.weights)


def event_oracle(chain: ChainSpec) -> int:
    """Count source firings by replaying the chain as accumulate-and-fire
    cells: each cell stores arriving charge, fires once on reaching its
    threshold, and resets its accumulator to zero.

    Independent of the product rule; the two must agree exactly whenever
    every hop delivers positive charge. A chain that needs more than a
    million source firings raises ValidationError instead.
    """
    firings = math.prod(firings_per_hop(hop) for hop in chain.hops)
    if firings > _MAX_ORACLE_FIRINGS:
        # The count is left out: a long chain's product can be too long to print.
        raise ValidationError("event replay needs more than 10**6 source firings")
    arriving = [h.arriving for h in chain.hops]
    thresholds = [h.threshold for h in chain.hops]
    charge = [0.0] * len(chain.hops)
    source_firings = 0
    while True:
        source_firings += 1
        charge[0] += arriving[0]
        cell = 0
        while charge[cell] >= thresholds[cell]:
            charge[cell] = 0.0
            cell += 1
            if cell == len(chain.hops):
                return source_firings
            charge[cell] += arriving[cell]


def hops_from_weights(chain: WeightChain, impulse: float = 1.0) -> ChainSpec:
    """Zero-distance chain whose per-hop requirement equals each weight."""
    _check_finite(impulse=impulse)  # before it multiplies: 2 * "x" is "xx"
    try:
        thresholds = [w * impulse for w in chain.weights]
    except OverflowError:
        raise ValidationError("a weight is beyond the range of a float") from None
    hops = (HopSpec(distance=0.0, attenuation=0.0, threshold=t, impulse=impulse) for t in thresholds)
    return ChainSpec(tuple(hops))


def centering_cost(chain: WeightChain, position: int) -> int:
    """Additional firings to span the whole line from ``position``: the
    product of weights on each side, summed. An empty side costs 0, since
    zero hops need zero firings."""
    return chain._costs[_whole(position, "position", 0, chain.num_positions - 1, OutOfRange)]


def best_center(chain: WeightChain) -> int:
    """Lowest-index position of least centering cost."""
    return chain._costs.index(min(chain._costs))


class GroupLayout(Frozen):
    """Planar node positions of one group, as ``(x, y)`` floats, plus its
    designated terminal node."""

    nodes: tuple[tuple[float, float], ...]
    terminal: int

    def _check(self) -> None:
        try:
            nodes = tuple((_real(x), _real(y)) for x, y in self.nodes)
        except (TypeError, ValueError):  # no sequence, or a node that is no pair
            raise ValidationError(f"nodes must be (x, y) pairs, got {_shown(self.nodes)}") from None
        if not nodes:
            raise ValidationError("a group needs at least one node")
        if not all(math.isfinite(v) for node in nodes for v in node):
            raise ValidationError("node positions must be finite")
        object.__setattr__(self, "nodes", nodes)
        terminal = _whole(self.terminal, "terminal")
        object.__setattr__(self, "terminal", terminal)
        if not 0 <= terminal < len(nodes):
            raise ValidationError(f"terminal {brief(terminal)} not among the {len(nodes)} nodes")

    @property
    def center(self) -> tuple[float, float]:
        xs, ys = zip(*self.nodes)
        return math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)

    @property
    def terminal_position(self) -> tuple[float, float]:
        return self.nodes[self.terminal]

    @property
    def mirrored_terminal(self) -> tuple[float, float]:
        """Terminal reflected through the group center, onto the far edge."""
        (cx, cy), (tx, ty) = self.center, self.terminal_position
        return 2.0 * cx - tx, 2.0 * cy - ty


class LayoutSpec(Frozen):
    """Two node groups whose terminals face (or shun) each other."""

    group_a: GroupLayout
    group_b: GroupLayout

    @property
    def separation(self) -> float:
        """Center-to-center distance between the two groups."""
        return math.dist(self.group_a.center, self.group_b.center)


def layout_distances(layout: LayoutSpec) -> tuple[float, float]:
    """(inward, outward) terminal-to-terminal distances.

    ``inward`` uses the terminals where they sit (on the facing edges of a
    mirrored layout); ``outward`` mirrors each terminal through its group
    center onto the far edge. Shorter inward distance is what makes the
    facing arrangement cheaper to wire and quicker to reinforce.

    A mirrored layout has a closed form. Group b is group a reflected
    through m = c + (s/2, 0), for group a's center c and the separation s,
    so b's terminal is 2m - t and b's center 2m - c. With (dx, dy) = t - c:

        inward  = |(2m - t) - t|                      = 2 |(s/2 - dx, -dy)|
        outward = |(2(2m - c) - (2m - t)) - (2c - t)| = 2 |(s/2 + dx, dy)|

    so outward**2 - inward**2 = 8 s dx, and inward < outward exactly when
    dx > 0. The terminal is the node of largest x, so dx > 0 unless every
    node has the same x.
    """
    if layout.separation < 1e-12:
        raise DegenerateLayout("the two groups coincide")
    inward = math.dist(layout.group_a.terminal_position, layout.group_b.terminal_position)
    outward = math.dist(layout.group_a.mirrored_terminal, layout.group_b.mirrored_terminal)
    return inward, outward


def random_mirrored_layout(
    rng,
    num_nodes: int = 8,
    radius: float = 1.0,
    separation: float = 4.0,
) -> LayoutSpec:
    """Random facing pair: group_b is group_a point-reflected through the
    midpoint between centers, so the terminals sit on the facing edges.

    Group a's nodes are uniform on a disc of ``radius``, and its terminal is
    the node of largest x. ``rng`` needs ``uniform(a, b)`` and ``random()``,
    as ``random.Random`` and numpy's ``Generator`` both have."""
    num_nodes = _whole(num_nodes, "num_nodes", 2)
    if not (0 < _real(radius) and 0 < _real(separation)):  # false for NaN and non-numbers
        raise ValidationError("radius and separation must be > 0")
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(num_nodes)]
    radii = [radius * math.sqrt(rng.random()) for _ in range(num_nodes)]
    nodes_a = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    terminal = max(range(num_nodes), key=lambda k: nodes_a[k][0])
    group_a = GroupLayout(nodes_a, terminal)
    cx, cy = group_a.center
    mx, my = cx + separation / 2.0, cy
    group_b = GroupLayout([(2.0 * mx - x, 2.0 * my - y) for x, y in group_a.nodes], terminal)
    return LayoutSpec(group_a, group_b)


class Route(Frozen):
    """One candidate path with its accumulated reinforcement trace."""

    length: float
    reinforcement: float = 0.0

    def _check(self) -> None:
        _check_finite(**vars(self))
        if self.length <= 0:
            raise ValidationError(f"route length must be > 0, got {self.length}")
        if self.reinforcement < 0:
            raise ValidationError(f"reinforcement must be >= 0, got {self.reinforcement}")


class RouteSet(Frozen):
    """Competing routes between the same two endpoints."""

    routes: tuple[Route, ...]

    def _check(self) -> None:
        object.__setattr__(self, "routes", tuple(self.routes))


def stigmergy_reinforce(routes: RouteSet, cycles: int, energy_per_cycle: float) -> RouteSet:
    """Deposit ``energy_per_cycle / length`` on every route per cycle.

    Equal energy reaches each route per cycle, so shorter routes accumulate
    trace faster, exactly as pheromone trails favour shorter paths.
    """
    cycles = _whole(cycles, "cycles", 0)
    _check_finite(energy_per_cycle=energy_per_cycle)
    if energy_per_cycle <= 0:
        raise ValidationError(f"energy_per_cycle must be > 0, got {energy_per_cycle}")
    return RouteSet(
        tuple(
            Route(r.length, r.reinforcement + cycles * energy_per_cycle / r.length)
            for r in routes.routes
        )
    )


def most_reinforced(routes: RouteSet) -> int:
    """Index of the route with the strongest trace; ties to the lowest index."""
    if not routes.routes:
        raise ValidationError("empty route set")
    return max(
        range(len(routes.routes)),
        key=lambda i: (routes.routes[i].reinforcement, -i),
    )


def _check_finite(**values: float) -> None:
    """Reject inputs that are not finite real numbers, naming the first one found."""
    for name, value in values.items():
        if not math.isfinite(_real(value)):
            raise ValidationError(f"{name} must be finite, got {_shown(value)}")
