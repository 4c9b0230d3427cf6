"""Independent reference implementations used as test oracles.

Deliberately written without numpy and without touching the library's
update code: plain per-pattern loops over a linear chain, exploiting the
symmetry that all members of one pattern share the same strength, and a
per-neuron trace formatter. Expected values frozen into the tests were
computed with these functions.
"""

from __future__ import annotations


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


def expand_to_neurons(rows: list[list[float]], size: int) -> list[list[float]]:
    """Per-pattern rows -> per-neuron rows (members share their pattern value)."""
    return [[value for value in row for _ in range(size)] for row in rows]


def reference_write_trace(trace) -> str:
    """Trace CSV text formatted one f-string per (step, neuron).

    The plain writer the library's run-based writer must match byte for
    byte; numpy appears only in the ``.tolist()`` calls that turn the
    table into Python numbers.
    """
    pattern_of = trace.pattern_of.tolist()
    lines = ["step,neuron,pattern,strength\n"]
    for t, row in enumerate(trace.values.tolist(), start=1):
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
