"""Declarative scenario files, trace serialization, and golden comparison.

Scenario documents are JSON with a fixed schema; parsing is strict, so an
unknown or missing key is an error rather than a silent default. Traces
serialize to CSV with 1-based neuron/pattern labels and shortest
round-trip decimal numbers, which makes repeated runs byte-identical and
the files human-checkable. A trace holds one strength per pattern; the CSV
lists it once per member neuron, and reading collapses it back.

Structural problems (bad JSON, wrong keys, wrong types) raise ParseError;
documents that parse but violate a domain invariant raise ValidationError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, TextIO

import numpy as np

from .dynamics import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, TraceTable, golden_table
from .errors import AsymmetricPattern, ParseError, ValidationError, WrongShape
from .topology import EnsembleSpec, build_linear, check_rows, validate

__all__ = [
    "Scenario",
    "GoldenReport",
    "parse_scenario",
    "write_scenario",
    "standard_scenario",
    "write_trace",
    "read_trace",
    "compare_grids",
    "compare_golden",
    "read_golden_fixture",
    "table1_fixture",
    "GOLDEN_TOLERANCE",
]

GOLDEN_TOLERANCE = 1e-9

TRACE_HEADER = "step,neuron,pattern,strength"
FIXTURE_HEADER = "neuron,t3,t4,t5"
_TRACE_ROW = np.dtype([("step", "i8"), ("neuron", "i8"), ("pattern", "i8"), ("strength", "f8")])
_FIXTURE_ROW = np.dtype([("neuron", "i8"), ("t3", "f8"), ("t4", "f8"), ("t5", "f8")])

_MODES = (MODE_SCHEDULED, MODE_FREE_RUN)


class Scenario(NamedTuple):
    ensemble: EnsembleSpec
    schedule: Schedule
    steps: int
    mode: str


@dataclass(frozen=True)
class GoldenReport:
    """Element-wise comparison result against a golden grid.

    ``mismatches`` holds (neuron, t, expected, actual) tuples with 1-based
    neuron labels and actual step numbers; ``passed`` is true exactly when
    no element differs by more than the tolerance.
    """

    max_abs_error: float
    mismatches: tuple[tuple[int, int, float, float], ...]
    passed: bool


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Returns (ensemble, schedule, steps, mode). The ensemble passes
    topology validation; the schedule covers every pattern.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_keys(doc, "", {"ensemble", "schedule", "steps", "mode"})

    ens = _get(doc, "ensemble", dict)
    _check_keys(
        ens,
        "ensemble.",
        {"depth", "pattern_size", "excitatory_unit", "inhibitory_weight", "nesting"},
    )
    depth = _get(ens, "depth", int, "ensemble.")
    pattern_size = _get(ens, "pattern_size", int, "ensemble.")
    excitatory_unit = float(_get(ens, "excitatory_unit", (int, float), "ensemble."))
    inhibitory_weight = float(_get(ens, "inhibitory_weight", (int, float), "ensemble."))
    nesting = _get(ens, "nesting", str, "ensemble.")
    if nesting != "linear":
        raise ParseError(f'ensemble.nesting must be "linear", got {nesting!r}')

    sched = _get(doc, "schedule", dict)
    if "type" not in sched:
        raise ParseError("missing key 'schedule.type'")
    sched_type = _get(sched, "type", str, "schedule.")
    if sched_type == "staggered":
        _check_keys(sched, "schedule.", {"type", "interval"})
        interval = _get(sched, "interval", int, "schedule.")
    elif sched_type == "explicit":
        _check_keys(sched, "schedule.", {"type", "steps"})
        explicit = _get(sched, "steps", list, "schedule.")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in explicit):
            raise ParseError("schedule.steps must be a list of integers")
    else:
        raise ParseError(f'schedule.type must be "staggered" or "explicit", got {sched_type!r}')

    steps = _get(doc, "steps", int)
    mode = _get(doc, "mode", str)
    if mode not in _MODES:
        raise ParseError(f"mode must be one of {_MODES}, got {mode!r}")

    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    # Refused before the ensemble is built, not only before it runs.
    check_rows("steps x depth x pattern_size", steps, depth, pattern_size)
    spec = build_linear(depth, pattern_size, excitatory_unit, inhibitory_weight)
    violations = validate(spec)
    if violations:
        raise ValidationError("; ".join(violations))
    if sched_type == "staggered":
        schedule = Schedule.staggered(spec.num_patterns, interval)
    else:
        if len(explicit) != spec.num_patterns:
            raise ValidationError(
                f"schedule.steps lists {len(explicit)} patterns, ensemble has"
                f" {spec.num_patterns}"
            )
        schedule = Schedule(tuple(explicit))
    return Scenario(spec, schedule, steps, mode)


def write_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to a document; parse(write(s)) == s.

    Only linear chains with uniform pattern size are representable in the
    file schema; anything else raises ValidationError.
    """
    spec = scenario.ensemble
    sizes = {p.size for p in spec.patterns}
    parents = [p.parent for p in spec.patterns]
    linear = parents == [None] + list(range(spec.num_patterns - 1))
    if len(sizes) != 1 or not linear:
        raise ValidationError("only linear chains with uniform pattern size serialize")
    doc = {
        "ensemble": {
            "depth": spec.num_patterns,
            "pattern_size": spec.patterns[0].size,
            "excitatory_unit": spec.excitatory_unit,
            "inhibitory_weight": spec.inhibitory_weight,
            "nesting": "linear",
        },
        "schedule": {"type": "explicit", "steps": list(scenario.schedule.activation_step)},
        "steps": scenario.steps,
        "mode": scenario.mode,
    }
    return json.dumps(doc, indent=2) + "\n"


def standard_scenario() -> Scenario:
    """The built-in reference run: linear chain of 5 patterns x 5 neurons,
    unit excitation, half-weight inhibition, staggered schedule, 5 steps."""
    return Scenario(
        ensemble=build_linear(5, 5, 1.0, 0.5),
        schedule=Schedule.staggered(5, 1),
        steps=5,
        mode=MODE_SCHEDULED,
    )


def write_trace(trace: TraceTable, out: TextIO | None = None) -> str | None:
    """Long-form CSV: one row per (step, neuron), 1-based labels, shortest
    round-trip decimals, deterministic bytes. Each block of neighbouring
    neurons in one pattern has its strength formatted once per step.

    With a text handle ``out``, the header and then each step's rows go to it
    one write at a time, so memory holds one step's text, and None is
    returned. Without one, the whole text is returned as a string."""
    blocks = [
        (p, [f"{i},{p + 1}," for i, _ in members])
        for p, members in groupby(enumerate(trace.pattern_of.tolist(), start=1), key=itemgetter(1))
    ]
    parts: list[str] = []
    write = parts.append if out is None else out.write
    write(TRACE_HEADER + "\n")
    for t, row in enumerate(map(np.ndarray.tolist, trace.strength), start=1):
        head, chunks = f"{t},", []
        for p, labels in blocks:
            tail = f"{row[p]!r}\n"
            chunks += (head, (tail + head).join(labels), tail)
        write("".join(chunks))
    return "".join(parts) if out is None else None


def read_trace(text: str) -> TraceTable:
    """Inverse of :func:`write_trace` for rows in canonical order. The members of a
    pattern must agree bit for bit at every step, ``0.0`` and ``-0.0`` included
    (else AsymmetricPattern), and pattern labels must run 1..P (else WrongShape)."""
    step, neuron, pattern, strength = _read_rows(text, TRACE_HEADER, _TRACE_ROW)
    num_steps, num_neurons = int(step.max(initial=0)), int(neuron.max(initial=0))
    if len(step) != num_steps * num_neurons:
        raise ParseError(f"expected {num_steps * num_neurons} rows, got {len(step)}")
    labels = np.stack([step, neuron, pattern])
    expected = np.indices((num_steps, num_neurons)).reshape(2, -1) + 1
    expected = np.vstack([expected, np.tile(pattern[:num_neurons], num_steps)])
    misplaced = (labels != expected).any(axis=0)
    if misplaced.any():
        i = int(misplaced.argmax())
        want, got = expected[:, i].tolist(), labels[:, i].tolist()
        raise ParseError(f"line {i + 2}: expected step, neuron, pattern {want}, got {got}")
    values = strength.reshape(num_steps, num_neurons)
    pattern_of = pattern[:num_neurons] - 1
    first_member = np.unique(pattern_of, return_index=True)[1]
    trace = TraceTable(strength=values[:, first_member], pattern_of=pattern_of)
    differs = values.view(np.uint64) != trace.values.view(np.uint64)
    if differs.any():
        t, i = divmod(int(differs.argmax()), num_neurons)
        raise AsymmetricPattern(f"pattern {pattern_of[i] + 1} members disagree at step {t + 1}")
    return trace


def compare_grids(actual, expected, tolerance: float = GOLDEN_TOLERANCE) -> GoldenReport:
    """Element-wise comparison of two golden-layout grids (rows are neurons
    1.., columns are steps t=3,4,5). ``tolerance`` must be finite and >= 0."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or actual.ndim != 2:
        raise WrongShape(f"grid shapes disagree: {actual.shape} vs {expected.shape}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    diff = np.abs(actual - expected)
    mismatches = tuple(
        (int(i) + 1, int(j) + 3, float(expected[i, j]), float(actual[i, j]))
        for i, j in zip(*np.nonzero(diff > tolerance))
    )
    return GoldenReport(
        max_abs_error=float(diff.max()) if diff.size else 0.0,
        mismatches=mismatches,
        passed=not mismatches,
    )


def compare_golden(
    trace: TraceTable, fixture, tolerance: float = GOLDEN_TOLERANCE
) -> GoldenReport:
    """Compare a trace's golden grid (neurons 1..25 at t=3,4,5) against a
    25 x 3 fixture grid."""
    return compare_grids(golden_table(trace), fixture, tolerance)


def read_golden_fixture(text: str) -> np.ndarray:
    """Parse the golden fixture CSV (header neuron,t3,t4,t5) into a grid."""
    neuron, *columns = _read_rows(text, FIXTURE_HEADER, _FIXTURE_ROW)
    misnumbered = neuron != np.arange(1, len(neuron) + 1)
    if misnumbered.any():
        i = int(misnumbered.argmax())
        raise ParseError(f"line {i + 2}: expected neuron {i + 1}, got {neuron[i]}")
    return np.column_stack(columns)


def table1_fixture() -> np.ndarray:
    """The shipped 25 x 3 golden grid, exactly as printed in the reference
    strength table."""
    text = (resources.files("nestfire") / "data" / "table1_fixture.csv").read_text()
    return read_golden_fixture(text)


def _check_keys(obj: dict, prefix: str, allowed: set[str]) -> None:
    unknown = sorted(set(obj) - allowed)
    missing = sorted(allowed - set(obj))
    if unknown:
        raise ParseError(f"unknown key '{prefix}{unknown[0]}'")
    if missing:
        raise ParseError(f"missing key '{prefix}{missing[0]}'")


def _get(obj: dict, key: str, types, prefix: str = ""):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        type_names = types.__name__ if isinstance(types, type) else "number"
        raise ParseError(f"{prefix}{key} must be {type_names}, got {type(value).__name__}")
    return value


def _read_rows(text: str, header: str, row: np.dtype) -> list[np.ndarray]:
    """Parse CSV ``text`` below ``header`` into one array per field of ``row``,
    in one C-level pass; blank lines are skipped. A row that does not parse
    raises ParseError naming its line, found by bisection."""
    lines = list(filter(None, text.splitlines()))
    if not lines or lines[0] != header:
        raise ParseError(f"expected header {header!r}")
    rows = lines[1:]
    parse = partial(np.loadtxt, dtype=row, delimiter=",", comments=None, ndmin=1)
    try:
        table = parse(rows) if rows else np.zeros(0, row)  # loadtxt warns on no rows
    except ValueError:
        lo, hi = 0, len(rows)  # rows[lo:hi] do not parse together
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        raise ParseError(f"line {lo + 2}: expected fields {header}, got {rows[lo]!r}") from None
    return [table[name] for name in row.names]

