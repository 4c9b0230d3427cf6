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
from typing import TYPE_CHECKING

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

# numpy is imported inside the layout code that uses it, so the chain and
# centering code loads without it.
if TYPE_CHECKING:
    import numpy as np

_MAX_ORACLE_FIRINGS = 10**6  # event_oracle replays a million in about half a second


class HopSpec(Frozen):
    """One feeder-to-target link.

    ``impulse`` signal units leave the feeder per firing, ``attenuation``
    units are lost per unit ``distance``, and the target fires once
    ``threshold`` units have accumulated.
    """

    _fields = ("distance", "attenuation", "threshold", "impulse")
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

    _fields = ("hops",)
    hops: tuple[HopSpec, ...]

    def _check(self) -> None:
        object.__setattr__(self, "hops", tuple(self.hops))
        if not self.hops:
            raise ValidationError("a chain needs at least one hop")


class WeightChain(Frozen):
    """Per-hop required firing counts along a line of neurons."""

    _fields = ("weights",)
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
    """Planar node positions of one group plus its designated terminal node.
    Layouts, like the arrays they hold, are equal only to themselves."""

    _fields = ("nodes", "terminal")
    nodes: np.ndarray
    terminal: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _check(self) -> None:
        import numpy as np

        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 1:
            raise ValidationError(f"nodes must be a (k, 2) array, got shape {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValidationError("node positions must be finite")
        object.__setattr__(self, "terminal", _whole(self.terminal, "terminal"))
        if not 0 <= self.terminal < nodes.shape[0]:
            raise ValidationError(f"terminal {self.terminal} not among the {nodes.shape[0]} nodes")

    @property
    def center(self) -> np.ndarray:
        return self.nodes.mean(axis=0)

    @property
    def terminal_position(self) -> np.ndarray:
        return self.nodes[self.terminal]

    @property
    def mirrored_terminal(self) -> np.ndarray:
        """Terminal reflected through the group center, onto the far edge."""
        return 2.0 * self.center - self.terminal_position


class LayoutSpec(Frozen):
    """Two node groups whose terminals face (or shun) each other."""

    _fields = ("group_a", "group_b")
    group_a: GroupLayout
    group_b: GroupLayout

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def separation(self) -> float:
        """Center-to-center distance between the two groups."""
        import numpy as np

        return float(np.linalg.norm(self.group_b.center - self.group_a.center))


def layout_distances(layout: LayoutSpec) -> tuple[float, float]:
    """(inward, outward) terminal-to-terminal distances.

    ``inward`` uses the terminals where they sit (on the facing edges of a
    mirrored layout); ``outward`` mirrors each terminal through its group
    center onto the far edge. Shorter inward distance is what makes the
    facing arrangement cheaper to wire and quicker to reinforce.
    """
    import numpy as np

    if layout.separation < 1e-12:
        raise DegenerateLayout("the two groups coincide")
    inward = float(
        np.linalg.norm(layout.group_b.terminal_position - layout.group_a.terminal_position)
    )
    outward = float(
        np.linalg.norm(layout.group_b.mirrored_terminal - layout.group_a.mirrored_terminal)
    )
    return inward, outward


def random_mirrored_layout(
    rng: np.random.Generator,
    num_nodes: int = 8,
    radius: float = 1.0,
    separation: float = 4.0,
) -> LayoutSpec:
    """Random facing pair: group_b is group_a point-reflected through the
    midpoint between centers, so the terminals sit on the facing edges."""
    import numpy as np

    num_nodes = _whole(num_nodes, "num_nodes", 2)
    if not (0 < _real(radius) and 0 < _real(separation)):  # false for NaN and non-numbers
        raise ValidationError("radius and separation must be > 0")
    angles = rng.uniform(0.0, 2.0 * np.pi, size=num_nodes)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=num_nodes))
    nodes_a = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    terminal = int(np.argmax(nodes_a[:, 0]))
    group_a = GroupLayout(nodes=nodes_a, terminal=terminal)
    midpoint = group_a.center + np.array([separation / 2.0, 0.0])
    group_b = GroupLayout(nodes=2.0 * midpoint - nodes_a, terminal=terminal)
    return LayoutSpec(group_a=group_a, group_b=group_b)


class Route(Frozen):
    """One candidate path with its accumulated reinforcement trace."""

    _fields = ("length", "reinforcement")
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

    _fields = ("routes",)
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
