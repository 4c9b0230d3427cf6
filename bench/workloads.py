"""Seeded inputs for the nestfire benchmark.

A workload is an endless sequence of rounds. Every round of a workload
holds the same cells -- the input properties that set what an invocation
costs, such as chain depth, pattern size, schedule spacing, mode and trace
size -- in a seeded order, and the seed draws every other input: excitatory
unit, inhibitory weight where it does not set the cost, the order of
explicit activation steps, counter, chain and layout arguments. Fixing the
cells keeps the mix of invocation costs, and with it the medians, the same
from seed to seed; drawing the rest keeps the inputs varied.

Paths in argv are relative to the directory the inputs are written to, so
the same seed gives byte-identical files wherever they are written.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("paper-cli", "deep-scheduled", "deep-freerun", "wide-trace")

DELTAS = (0.25, 0.3, 0.5)
UNITS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Invocation:
    """One `python -m nestfire` call and what its output must be."""

    name: str
    args: tuple[str, ...]
    expect: dict
    scenario: str | None = None
    out: str | None = None


def round_inputs(workload: str, seed: int, index: int) -> list[Invocation]:
    """The invocations of round ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cells = list(_CELLS[workload])
    rng.shuffle(cells)
    make = _MAKERS[workload]
    return [make(cell, rng, f"r{index:04d}-{k:02d}") for k, cell in enumerate(cells)]


def write_round(invocations: list[Invocation], directory: Path) -> None:
    """Write the scenario files and the argv list of one round."""
    for inv in invocations:
        if inv.scenario is not None:
            (directory / f"{inv.name}.scenario").write_text(inv.scenario)
    stem = invocations[0].name.split("-")[0]
    lines = [json.dumps({"name": inv.name, "argv": list(inv.args)}) for inv in invocations]
    (directory / f"{stem}.argv.jsonl").write_text("\n".join(lines) + "\n")


def simulate(
    name: str,
    depth: int,
    size: int,
    unit: float,
    delta: float,
    schedule: dict,
    steps: int,
    mode: str,
    to_file: bool = True,
) -> Invocation:
    """A `simulate` invocation of a linear chain, its trace written to a file
    or, with ``to_file`` false, to stdout."""
    if schedule["type"] == "staggered":
        activation = [1 + k * schedule["interval"] for k in range(depth)]
    else:
        activation = list(schedule["steps"])
    doc = {
        "ensemble": {
            "depth": depth,
            "pattern_size": size,
            "excitatory_unit": unit,
            "inhibitory_weight": delta,
            "nesting": "linear",
        },
        "schedule": schedule,
        "steps": steps,
        "mode": mode,
    }
    args = ["simulate", "--scenario", f"{name}.scenario"]
    out = f"{name}.csv" if to_file else None
    if out:
        args += ["--out", out]
    expect = {
        "kind": "simulate",
        "depth": depth,
        "size": size,
        "unit": unit,
        "delta": delta,
        "activation": activation,
        "steps": steps,
        "mode": mode,
    }
    return Invocation(name, tuple(args), expect, json.dumps(doc, indent=2) + "\n", out)


def _schedule(rng: random.Random, kind: str, depth: int) -> dict:
    """``staggered-k`` is a staggered schedule of interval k; ``explicit-k``
    lists the same activation steps, shuffled within each run of four
    neighbouring patterns. As many patterns are active at every step, and
    each at about the depth it has under the staggered schedule, so the cost
    of the run hardly depends on the seed."""
    form, interval = kind.split("-")
    if form == "staggered":
        return {"type": "staggered", "interval": int(interval)}
    steps = [1 + k * int(interval) for k in range(depth)]
    for start in range(0, depth, 4):
        block = steps[start : start + 4]
        rng.shuffle(block)
        steps[start : start + 4] = block
    return {"type": "explicit", "steps": steps}


# paper-cli: every subcommand at the sizes of the paper. The traffic is
# start-up bound (about 170 ms of a 190 ms invocation is interpreter start
# and import), so an engine change should leave it alone and a start-up or
# import regression shows here first.
_PAPER_CELLS = (
    ("verify-table1",),
    ("simulate", "scheduled", "staggered", False),
    ("simulate", "scheduled", "explicit", True),
    ("simulate", "free_run", "staggered", True),
    ("simulate", "free_run", "explicit", False),
    ("counter",),
    ("chain",),
    ("center",),
    ("layout",),
)


def _paper_cli(cell: tuple, rng: random.Random, name: str) -> Invocation:
    kind = cell[0]
    if kind == "verify-table1":
        return Invocation(name, ("verify-table1",), {"kind": "verify-table1"})
    if kind == "simulate":
        _, mode, schedule_type, to_file = cell
        depth, size, steps = rng.randint(2, 10), rng.randint(1, 10), rng.randint(3, 10)
        if schedule_type == "staggered":
            schedule = {"type": "staggered", "interval": rng.randint(1, 2)}
        else:
            schedule = {"type": "explicit", "steps": [rng.randint(1, steps) for _ in range(depth)]}
        return simulate(
            name, depth, size, rng.choice(UNITS), rng.choice(DELTAS), schedule, steps, mode, to_file
        )
    if kind == "counter":
        depth = rng.randint(1, 10)
        return Invocation(name, ("counter", "--depth", str(depth)), {"kind": "counter", "depth": depth})
    if kind == "chain":
        weights = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        text = ",".join(map(str, weights))
        return Invocation(name, ("chain", "--hops", text), {"kind": "chain", "weights": weights})
    if kind == "center":
        weights = [rng.randint(1, 10) for _ in range(rng.randint(1, 8))]
        text = ",".join(map(str, weights))
        return Invocation(name, ("center", "--weights", text), {"kind": "center", "weights": weights})
    trials, seed = rng.randint(10, 50), rng.randrange(2**31)
    return Invocation(
        name,
        ("layout", "--trials", str(trials), "--seed", str(seed)),
        {"kind": "layout", "trials": trials, "seed": seed},
    )


# deep-scheduled: scheduled runs of long chains. The step loop and the
# topology queries it makes (O(P^3) per step) take most of the wall time and
# every trace stays under 1 MB, so output I/O stays small.
# The cells vary depth, pattern size and schedule but cost about the same
# (within a tenth or so at this commit), so the median and the tail
# percentile read a dense part of the distribution of invocation times, not
# the boundary between two unlike cells, and host noise moves them little.
_DEEP_SCHEDULED_CELLS = (
    (120, "staggered-2", 1),
    (120, "explicit-2", 2),
    (110, "staggered-2", 3),
    (115, "explicit-2", 1),
    (75, "staggered-1", 2),
    (75, "explicit-1", 3),
    (72, "staggered-1", 1),
    (72, "explicit-1", 2),
    (75, "staggered-1", 3),
)


def _deep_scheduled(cell: tuple, rng: random.Random, name: str) -> Invocation:
    depth, kind, size = cell
    return simulate(
        name,
        depth,
        size,
        rng.choice(UNITS),
        rng.choice(DELTAS),
        _schedule(rng, kind, depth),
        depth,
        "scheduled",
    )


# deep-freerun: free-run chains run for twice their depth, past shutdown,
# through the gated path scheduled mode never takes; interleaved with deep
# counters, the only traffic that measures the counter beyond depth 10. The
# inhibitory weight is part of a cell here because it decides how long gating
# keeps patterns firing, and the pattern size because it sets the trace size.
# Runnable by name but left out of BENCHMARK.json: its rounds take about 14 s,
# so a run completes only two, and over ten seeds its tail percentile spread
# wider than any bound the benchmark may set.
_DEEP_FREERUN_CELLS = (
    ("simulate", 150, 0.5, 2),
    ("simulate", 200, 0.5, 3),
    ("simulate", 250, 0.3, 1),
    ("simulate", 250, 0.25, 2),
    ("simulate", 250, 0.3, 3),
    ("counter", 4000),
    ("counter", 8000),
    ("counter", 12000),
    ("counter", 15900),
)


def _deep_freerun(cell: tuple, rng: random.Random, name: str) -> Invocation:
    if cell[0] == "counter":
        depth = rng.randint(cell[1], cell[1] + 100)
        return Invocation(name, ("counter", "--depth", str(depth)), {"kind": "counter", "depth": depth})
    _, depth, delta, size = cell
    schedule = {"type": "staggered", "interval": 1}
    return simulate(name, depth, size, rng.choice(UNITS), delta, schedule, 2 * depth, "free_run")


# wide-trace: few, wide patterns for few steps, each trace a file of about
# 6 MB (300 000 rows). Serializing the trace is about 40% of the wall time
# and the step loop little, so trace writing and per-neuron costs show here.
# Trace length sets the cost, and it depends on the shape, the mode, the
# schedule and the inhibitory weight (how many strengths are zero, how many
# digits the others take), so all of these are part of a cell; the seed draws
# the excitatory unit, a power of two that scales every strength exactly.
# Every cell writes about as many rows, as in deep-scheduled.
_WIDE_CELLS = (
    (3, 4000, 25, "free_run", "staggered-1", 0.25),
    (6, 2500, 20, "scheduled", "staggered-2", 0.5),
    (8, 1500, 25, "free_run", "explicit-2", 0.3),
    (5, 3000, 20, "scheduled", "staggered-1", 0.3),
    (4, 3000, 25, "free_run", "staggered-2", 0.5),
    (7, 2000, 21, "scheduled", "explicit-1", 0.25),
    (3, 3500, 28, "scheduled", "explicit-1", 0.3),
    (8, 2500, 15, "free_run", "staggered-1", 0.25),
    (5, 2000, 30, "free_run", "explicit-1", 0.5),
)


def _wide_trace(cell: tuple, rng: random.Random, name: str) -> Invocation:
    depth, size, steps, mode, kind, delta = cell
    return simulate(
        name, depth, size, rng.choice(UNITS), delta, _schedule(rng, kind, depth), steps, mode
    )


_CELLS = {
    "paper-cli": _PAPER_CELLS,
    "deep-scheduled": _DEEP_SCHEDULED_CELLS,
    "deep-freerun": _DEEP_FREERUN_CELLS,
    "wide-trace": _WIDE_CELLS,
}
_MAKERS = {
    "paper-cli": _paper_cli,
    "deep-scheduled": _deep_scheduled,
    "deep-freerun": _deep_freerun,
    "wide-trace": _wide_trace,
}
