"""Declarative scenario files, trace serialization, and golden comparison.

Scenario documents are JSON with a fixed schema; parsing is strict, so an
unknown or missing key is an error rather than a silent default. Traces
serialize to CSV with 1-based neuron/pattern labels and shortest
round-trip decimal numbers, which makes repeated runs byte-identical and
the files human-checkable. The writer formats one ``repr`` per run of equal
neighbouring values rather than one per neuron; the text is the same.

Structural problems (bad JSON, wrong keys, wrong types) raise ParseError;
documents that parse but violate a domain invariant raise ValidationError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .dynamics import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, TraceTable, golden_table
from .errors import InvalidDimension, ParseError, ValidationError, WrongShape
from .topology import EnsembleSpec, build_linear, validate

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
        if interval < 1:
            raise ValidationError(f"schedule.interval must be >= 1, got {interval}")
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
    try:
        spec = build_linear(depth, pattern_size, excitatory_unit, inhibitory_weight)
    except InvalidDimension as exc:
        raise ValidationError(str(exc)) from exc
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


def write_trace(trace: TraceTable) -> str:
    """Long-form CSV: one row per (step, neuron), 1-based labels,
    shortest round-trip decimals. Deterministic byte output.

    Each step is split into runs of neighbouring neurons whose values have
    identical bits, and each run's value is formatted once. Members of a
    pattern share one value, so an engine trace has at most one run per
    pattern per step; a table with no equal neighbours falls back to one
    run per neuron. The text is the same either way.
    """
    labels = [f"{i},{p + 1}," for i, p in enumerate(trace.pattern_of.tolist(), start=1)]
    values = trace.values
    # Bits, not ==: -0.0 == 0.0 but the two print differently.
    size = values.itemsize
    bits = values.view(f"u{size}" if size in (1, 2, 4, 8) else f"V{size}")
    run_starts = np.ones(values.shape, dtype=bool)
    run_starts[:, 1:] = bits[:, 1:] != bits[:, :-1]
    chunks = [TRACE_HEADER + "\n"]
    for t, (row, starts) in enumerate(zip(values, run_starts), start=1):
        cuts = np.flatnonzero(starts).tolist()
        head = f"{t},"
        for a, b, value in zip(cuts, cuts[1:] + [len(row)], row[cuts].tolist()):
            tail = f"{value!r}\n"
            chunks += (head, (tail + head).join(labels[a:b]), tail)
    return "".join(chunks)


def read_trace(text: str) -> TraceTable:
    """Inverse of :func:`write_trace`; rows must be in canonical order."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError(f"trace must start with header {TRACE_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            rows.append((int(fields[0]), int(fields[1]), int(fields[2]), float(fields[3])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        return TraceTable(values=np.zeros((0, 0)), pattern_of=np.zeros(0, dtype=int))
    num_neurons = max(r[1] for r in rows)
    num_steps = rows[-1][0]
    if len(rows) != num_steps * num_neurons:
        raise ParseError(f"expected {num_steps * num_neurons} rows, got {len(rows)}")
    values = np.zeros((num_steps, num_neurons))
    pattern_of = np.zeros(num_neurons, dtype=int)
    for index, (t, neuron, pattern, value) in enumerate(rows):
        expect_t, expect_neuron = divmod(index, num_neurons)
        if t != expect_t + 1 or neuron != expect_neuron + 1:
            raise ParseError(
                f"row {index + 2}: expected step {expect_t + 1} neuron"
                f" {expect_neuron + 1}, got step {t} neuron {neuron}"
            )
        values[t - 1, neuron - 1] = value
        if t == 1:
            pattern_of[neuron - 1] = pattern - 1
        elif pattern_of[neuron - 1] != pattern - 1:
            raise ParseError(
                f"row {index + 2}: neuron {neuron} changed pattern mid-trace"
            )
    return TraceTable(values=values, pattern_of=pattern_of)


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
    fixture = np.asarray(fixture, dtype=float)
    if fixture.shape != (25, 3):
        raise WrongShape(f"fixture must be 25 x 3, got {fixture.shape}")
    return compare_grids(golden_table(trace), fixture, tolerance)


def read_golden_fixture(text: str) -> np.ndarray:
    """Parse the golden fixture CSV (header neuron,t3,t4,t5) into a grid."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != FIXTURE_HEADER:
        raise ParseError(f"fixture must start with header {FIXTURE_HEADER!r}")
    grid = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            neuron = int(fields[0])
            row = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if neuron != lineno - 1:
            raise ParseError(f"line {lineno}: expected neuron {lineno - 1}, got {neuron}")
        grid.append(row)
    return np.array(grid)


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
