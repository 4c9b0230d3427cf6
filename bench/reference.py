"""Independent checker for the output of every benchmark invocation.

Plain Python without numpy and without importing nestfire. The expected
trace of a `simulate` call is rebuilt per pattern from the firing rules in
the docstring of ``nestfire.dynamics``:

* a firing pattern p adds ``unit * size`` to each of its members;
* every pattern strictly enclosing a firing pattern q loses
  ``delta * unit * size`` per such q;
* strengths clamp at zero;
* in free-run mode a pattern that has reached its activation step fires
  only while it is positive (or has never fired) and its parent fired on the
  previous step; the root's drive is always on.

Sums follow the library's order -- the excitation, then the inhibition added
in ascending descendant order starting from 0.0, then
``max(0, s + exc - inh)`` -- so the expected CSV is byte-identical to the
library's even when delta is not dyadic. Scheduled runs are also checked
against ``tests/oracles.reference_run`` within the golden tolerance.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

TRACE_HEADER = "step,neuron,pattern,strength\n"

# Equal to nestfire.scenario.GOLDEN_TOLERANCE; the benchmark's tests check it.
GOLDEN_TOLERANCE = 1e-9


def load_oracles(root: Path):
    """The repository's test oracles module, loaded from ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pattern_run(
    depth: int,
    size: int,
    unit: float,
    delta: float,
    activation: list[int],
    steps: int,
    mode: str,
) -> list[list[float]]:
    """Per-pattern strengths after each step of a linear chain run.

    Pattern k+1 sits directly inside pattern k, so the strict descendants
    of pattern a are a+1..depth-1. All patterns have the same size, so the
    inhibition a pattern receives depends only on how many of its
    descendants fire: ``folds[n]`` is that sum, accumulated one term at a
    time as the library does.
    """
    excitation = unit * size
    per_descendant = delta * unit * size
    folds = [0.0]
    for _ in range(depth):
        folds.append(folds[-1] + per_descendant)
    strength = [0.0] * depth
    ever = [False] * depth
    fired = [False] * depth
    rows = []
    for t in range(1, steps + 1):
        fires = [t >= activation[p] for p in range(depth)]
        if mode == "free_run":
            for p in range(depth):
                alive = strength[p] > 0 or not ever[p]
                gate = True if p == 0 else fired[p - 1]
                fires[p] = fires[p] and alive and gate
        below = 0
        new = [0.0] * depth
        for p in range(depth - 1, -1, -1):
            value = strength[p] + (excitation if fires[p] else 0.0) - folds[below]
            new[p] = value if value > 0.0 else 0.0
            if fires[p]:
                below += 1
                ever[p] = True
        strength, fired = new, fires
        rows.append(strength)
    return rows


def trace_csv(rows: list[list[float]], size: int) -> bytes:
    """The long-form CSV of a per-pattern run, each pattern expanded to its
    ``size`` neurons, values as shortest round-trip decimals."""
    labels = [
        [f"{p * size + i + 1},{p + 1}," for i in range(size)] for p in range(len(rows[0]))
    ]
    parts = [TRACE_HEADER]
    for t, row in enumerate(rows, start=1):
        step = f"{t},"
        for p, value in enumerate(row):
            tail = f"{value!r}\n"
            parts.extend([step + label + tail for label in labels[p]])
    return "".join(parts).encode()


def expected_stdout(expect: dict, oracles) -> str:
    """Exact stdout of a non-simulate invocation (verify-table1 aside)."""
    kind = expect["kind"]
    if kind == "counter":
        depth = expect["depth"]
        counts = "".join(f"count level={k} tick={k}\n" for k in range(1, depth + 1))
        return counts + f"quiescent tick={depth + 2}\n"
    if kind == "chain":
        firings = oracles.brute_force_chain_firings(expect["weights"])
        return f"product={firings} oracle={firings}\n"
    if kind == "center":
        weights = expect["weights"]
        costs = []
        for pos in range(len(weights) + 1):
            left = math.prod(weights[:pos]) if pos > 0 else 0
            right = math.prod(weights[pos:]) if pos < len(weights) else 0
            costs.append(left + right)
        best = costs.index(min(costs)) + 1
        return "costs=" + ",".join(map(str, costs)) + f"\nbest={best}\n"
    if kind == "layout":
        trials = expect["trials"]
        return f"seed={expect['seed']} trials={trials}\npass={trials} fail=0\n"
    raise ValueError(f"unknown invocation kind {kind!r}")


def check(
    expect: dict,
    returncode: int,
    stdout: bytes,
    stderr: bytes,
    trace: bytes | None,
    oracles,
) -> str | None:
    """None when an invocation's output is right, otherwise the reason.

    ``trace`` holds the trace file a `simulate --out` call wrote.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    kind = expect["kind"]
    if kind == "verify-table1":
        text = stdout.decode()
        if not (text.startswith("pass max_abs_error=") and text.count("\n") == 1):
            return f"verify-table1 printed {text[:80]!r}"
        return None
    if kind != "simulate":
        want = expected_stdout(expect, oracles)
        return None if stdout == want.encode() else f"{kind} stdout differs from the reference"
    if trace is None:
        trace, stdout = stdout, b""
    if stdout:
        return "simulate --out also wrote to stdout"
    rows = pattern_run(
        expect["depth"],
        expect["size"],
        expect["unit"],
        expect["delta"],
        expect["activation"],
        expect["steps"],
        expect["mode"],
    )
    if expect["mode"] == "scheduled":
        oracle_rows = oracles.reference_run(
            expect["depth"],
            expect["size"],
            expect["unit"],
            expect["delta"],
            expect["activation"],
            expect["steps"],
        )
        worst = max(abs(a - b) for row, other in zip(rows, oracle_rows) for a, b in zip(row, other))
        if worst > GOLDEN_TOLERANCE:
            return f"reference disagrees with tests/oracles.reference_run by {worst}"
    if trace != trace_csv(rows, expect["size"]):
        return "trace differs from the reference"
    return None
