"""Independent reference implementations used as test oracles.

Deliberately written without numpy and without touching the library's
update code: plain per-pattern loops over a linear chain or a forest,
exploiting the symmetry that all members of one pattern share the same
strength, a per-neuron trace formatter, a step-by-step walk up the parent
links and the slice-product centering cost. ``reference_firing_run``
recomputes every step from zero in the library's pinned order of float
operations, so its strengths must match the engine's bit for bit;
``reference_firings`` names the patterns that fire at each step. Expected
values frozen into the tests were computed with these functions.
"""

from __future__ import annotations

import math


def reference_run(
    depth: int,
    size: int,
    unit: float,
    weight: float,
    activation: list[int],
    steps: int,
) -> list[list[float]]:
    """Per-pattern strengths after each step of a scheduled linear-chain run.

    Pattern k fires at step t iff t >= activation[k]. A firing pattern adds
    unit*size to each of its members and weight*unit*size to the inhibition
    of every enclosing pattern (indices < k in the chain). Strengths clamp
    at zero.
    """
    strength = [0.0] * depth
    rows = []
    for t in range(1, steps + 1):
        firing = [k for k in range(depth) if t >= activation[k]]
        delta = [0.0] * depth
        for k in firing:
            delta[k] += unit * size
        for q in firing:
            for a in range(q):
                delta[a] -= weight * unit * size
        strength = [max(0.0, s + d) for s, d in zip(strength, delta)]
        rows.append(list(strength))
    return rows


def reference_firing_run(
    sizes: list[int],
    parents: list[int | None],
    unit: float,
    weight: float,
    activation: list[int],
    steps: int,
    mode: str,
    drive: int | None = None,
) -> list[list[float]]:
    """Per-pattern strengths after each step of a run on a forest whose
    pattern k has ``sizes[k]`` neurons and encloses ``parents[k]``'s, in
    either mode, with every step computed from zero.

    Pattern k may fire at step t iff t >= activation[k]. In ``free_run`` it
    must also hold a positive strength or never have fired, and its parent
    must have fired at step t-1; a root has the drive instead, on through
    step ``drive`` (every step if ``drive`` is None) and off after it.
    A firing pattern inhibits every pattern met walking up its parent links.
    Each target's inhibition is summed over the firing patterns in ascending
    order, starting from 0.0; the update is ``(s + exc) - inh``, clamped at
    zero, with ``exc`` 0.0 for a pattern that does not fire.
    """
    pairs = _reference_steps(sizes, parents, unit, weight, activation, steps, mode, drive)
    return [row for _, row in pairs]


def reference_firings(*run_args) -> list[list[int]]:
    """The patterns firing at each step of ``reference_firing_run(*run_args)``."""
    return [firing for firing, _ in _reference_steps(*run_args)]


def _reference_steps(sizes, parents, unit, weight, activation, steps, mode, drive=None):
    """``(firing, strengths)`` after each step of a ``reference_firing_run``."""
    num = len(sizes)
    excitation = [unit * size for size in sizes]
    inhibition = [weight * unit * size for size in sizes]
    strength = [0.0] * num
    fired = [False] * num
    ever = [False] * num
    rows = []
    for t in range(1, steps + 1):
        firing = []
        for k in range(num):
            due = t >= activation[k]
            if mode == "free_run":
                alive = strength[k] > 0 or not ever[k]
                gate = (drive is None or t <= drive) if parents[k] is None else fired[parents[k]]
                due = due and alive and gate
            if due:
                firing.append(k)
        inh = [0.0] * num
        for q in firing:
            enclosing = parents[q]
            while enclosing is not None:
                inh[enclosing] += inhibition[q]
                enclosing = parents[enclosing]
        exc = [excitation[k] if k in firing else 0.0 for k in range(num)]
        strength = [max((s + e) - i, 0.0) for s, e, i in zip(strength, exc, inh)]
        fired = [k in firing for k in range(num)]
        ever = [e or f for e, f in zip(ever, fired)]
        rows.append((firing, list(strength)))
    return rows


def expand_to_neurons(rows: list[list[float]], size: int) -> list[list[float]]:
    """Per-pattern rows -> per-neuron rows (members share their pattern value)."""
    return [[value for value in row for _ in range(size)] for row in rows]


def reference_write_trace(trace) -> str:
    """Trace CSV text formatted one f-string per (step, neuron).

    The plain writer the library's run-based writer must match byte for
    byte. It expands each step's per-pattern strengths to one per neuron
    itself, through the table's neuron-to-pattern map.
    """
    return reference_csv(neuron_rows(trace), trace.pattern_of)


def neuron_rows(trace) -> list[list[float]]:
    """A table's per-pattern rows expanded to one strength per neuron,
    through its neuron-to-pattern map."""
    pattern_of = trace.pattern_of
    return [[row[pattern] for pattern in pattern_of] for row in trace.strength]


def reference_csv(rows: list[list[float]], pattern_of: list[int]) -> str:
    """Trace CSV text of per-neuron ``rows``, formatted one f-string per
    (step, neuron); ``pattern_of`` gives each neuron's 0-based pattern."""
    lines = ["step,neuron,pattern,strength\n"]
    for t, row in enumerate(rows, start=1):
        for neuron, (pattern, value) in enumerate(zip(pattern_of, row), start=1):
            lines.append(f"{t},{neuron},{pattern + 1},{value!r}\n")
    return "".join(lines)


def brute_force_chain_firings(weights: list[int]) -> int:
    """Source firings to drive one activation across the chain, counted by
    simulating integer charge cells one source firing at a time."""
    charge = [0] * len(weights)
    firings = 0
    while True:
        firings += 1
        pulse = 1
        for cell, need in enumerate(weights):
            if pulse == 0:
                break
            charge[cell] += pulse
            pulse = 0
            if charge[cell] >= need:
                charge[cell] = 0
                pulse = 1
        if pulse == 1:
            return firings


def reaches_root(parents: list[int | None], pattern: int) -> bool:
    """Whether following parent links up from ``pattern`` ends at a root.

    A walk that meets a parent outside 0..P-1, or takes P steps without
    reaching a root (so it has gone round a cycle), does not."""
    current = pattern
    for _ in range(len(parents)):
        parent = parents[current]
        if parent is None:
            return True
        if not 0 <= parent < len(parents):
            return False
        current = parent
    return False


def reference_centering_cost(weights: list[int], position: int) -> int:
    """Product of the weights on each side of ``position``, summed; an empty
    side costs 0."""
    left, right = weights[:position], weights[position:]
    return (math.prod(left) if left else 0) + (math.prod(right) if right else 0)
