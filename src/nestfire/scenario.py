"""Declarative scenario files, trace serialization, and golden comparison.

Scenario documents are JSON with a fixed schema; parsing is strict, so an
unknown or missing key is an error rather than a silent default. Traces
serialize to CSV with 1-based neuron/pattern labels and shortest
round-trip decimal numbers, which makes repeated runs byte-identical and
the files human-checkable. A trace holds one strength per pattern; the CSV
lists it once per member neuron, and reading collapses it back. Writing
to a stream holds one write's text, at most ``WRITE_ROWS`` rows, however
many neurons the trace has. Golden comparison works on plain lists, so it
needs no numpy; only reading a trace and the array-valued fixture
functions import it.

Structural problems (bad JSON, wrong keys, wrong types) raise ParseError;
documents that parse but violate a domain invariant raise ValidationError.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .dynamics import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, TraceTable, _golden_rows
from .errors import AsymmetricPattern, ParseError, ValidationError, WrongShape
from .topology import EnsembleSpec, brief, build_linear, check_rows, validate

if TYPE_CHECKING:
    import numpy as np

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
# The trace CSV columns as numpy record fields: name and type.
_TRACE_ROW = [("step", "i8"), ("neuron", "i8"), ("pattern", "i8"), ("strength", "f8")]

_MODES = (MODE_SCHEDULED, MODE_FREE_RUN)

# The most rows in one write of a streamed trace. On one step of 10**6
# neurons and on traces of 2500-4000-neuron patterns, 4096 ran within 3% of
# 8192 and 16384 in less memory; 1000 was 5-9% slower, 65536 up to 2.4
# times slower.
WRITE_ROWS = 4096


class Scenario(NamedTuple):
    ensemble: EnsembleSpec
    schedule: Schedule
    steps: int
    mode: str


class GoldenReport(NamedTuple):
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
    except ValueError:  # from int(): a literal longer than Python converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal has more than {limit} digits") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
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
    excitatory_unit = _get_float(ens, "excitatory_unit", "ensemble.")
    inhibitory_weight = _get_float(ens, "inhibitory_weight", "ensemble.")
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
        raise ValidationError(f"steps must be >= 1, got {brief(steps)}")
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
    round-trip decimals, deterministic bytes. Each pattern has its strength
    formatted once per step.

    With a text handle ``out``, the header and then the rows go to it one
    write at a time, each write at most ``WRITE_ROWS`` rows of one step, so
    memory holds one write's text, and None is returned. Without one, the
    whole text is returned as a string."""
    # One step's rows as writes, each a list of (pattern, k, names) pieces:
    # up to 1000 neighbouring neurons of one pattern, labelled prefixes[k]
    # and one of the names. Neuron i below 1000 is str(i) after the empty
    # prefix; above, str(i // 1000) and one of 1000 three-digit tails that
    # every piece shares, so a full piece copies nothing.
    neurons = trace.num_neurons
    tails = [f"{r:03d}" for r in range(1000)] if neurons >= 1000 else []
    writes, size, first = [], WRITE_ROWS, 1
    for p, count in trace._blocks:
        end = first + count
        while first < end:
            k, r = divmod(first, 1000)
            n = min(end - first, 1000 - r)
            if not k:
                names = list(map(str, range(first, first + n)))
            else:
                names = tails if n == 1000 else tails[r : r + n]
            if size + n > WRITE_ROWS:  # true for the first piece
                writes.append([])
                size = 0
            writes[-1].append((p, k, names))
            size += n
            first += n
    prefixes = ["", *map(str, range(1, neurons // 1000 + 1))]
    rows, num = trace._rows, trace.num_patterns
    labels = [f",{p}," for p in range(1, num + 1)]
    parts: list[str] = []
    write = parts.append if out is None else out.write
    write(TRACE_HEADER + "\n")
    for t in range(trace.num_steps):
        head = f"{t + 1},"
        leads = [head + prefix for prefix in prefixes]
        ends = [f"{label}{v!r}\n" for label, v in zip(labels, rows[t * num : (t + 1) * num])]
        for pieces in writes:
            chunks = []
            for p, k, names in pieces:
                lead, tail = leads[k], ends[p]
                chunks += (lead, (tail + lead).join(names), tail)
            write("".join(chunks))
    return "".join(parts) if out is None else None


def read_trace(text: str) -> TraceTable:
    """Inverse of :func:`write_trace` for rows in canonical order. The members of a
    pattern must agree bit for bit at every step, ``0.0`` and ``-0.0`` included
    (else AsymmetricPattern), and pattern labels must run 1..P (else WrongShape)."""
    import numpy as np

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
        message = f"expected step, neuron, pattern {want}, got {got}"
        raise ParseError(f"line {_line_of(text, i)}: {message}")
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
    1.., columns are steps t=3,4,5), each an array or a sequence of rows.
    Every cell whose difference is not <= ``tolerance`` is a mismatch, NaN
    included. ``tolerance`` must be finite and >= 0."""
    (shape, actual), (other, expected) = _grid(actual), _grid(expected)
    if shape != other or len(shape) != 2:
        raise WrongShape(f"grid shapes disagree: {shape} vs {other}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    errors, mismatches = [], []
    for i, (row_a, row_e) in enumerate(zip(actual, expected)):
        for j, (a, e) in enumerate(zip(row_a, row_e)):
            errors.append(abs(a - e))
            if not errors[-1] <= tolerance:
                mismatches.append((i + 1, j + 3, e, a))
    return GoldenReport(
        max_abs_error=math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0),
        mismatches=tuple(mismatches),
        passed=not mismatches,
    )


def compare_golden(
    trace: TraceTable, fixture, tolerance: float = GOLDEN_TOLERANCE
) -> GoldenReport:
    """Compare a trace's golden grid (neurons 1..25 at t=3,4,5) against a
    25 x 3 fixture grid."""
    return compare_grids(_golden_rows(trace), fixture, tolerance)


def read_golden_fixture(text: str) -> np.ndarray:
    """Parse the golden fixture CSV (header neuron,t3,t4,t5) into a grid."""
    import numpy as np

    return np.array(_fixture_rows(text)).reshape(-1, 3)


def table1_fixture() -> np.ndarray:
    """The shipped 25 x 3 golden grid, exactly as printed in the reference
    strength table."""
    import numpy as np

    return np.array(_table1_rows())


def _table1_rows() -> list[list[float]]:
    """:func:`table1_fixture` as one list of floats per neuron, without numpy."""
    from importlib import resources

    return _fixture_rows((resources.files("nestfire") / "data" / "table1_fixture.csv").read_text())


def _fixture_rows(text: str) -> list[list[float]]:
    """The golden fixture CSV as one list of floats per neuron. Blank lines
    are skipped; the neurons must be numbered 1, 2, ... in order."""
    lines = list(filter(None, text.splitlines()))
    if not lines or lines[0] != FIXTURE_HEADER:
        raise ParseError(f"expected header {FIXTURE_HEADER!r}")
    neurons, rows = [], []
    for i, line in enumerate(lines[1:]):
        try:
            neuron, t3, t4, t5 = line.split(",")
            neurons.append(int(neuron))
            rows.append([float(t3), float(t4), float(t5)])
        except ValueError:
            message = f"line {_line_of(text, i)}: expected fields {FIXTURE_HEADER}, got {line!r}"
            raise ParseError(message) from None
    for i, neuron in enumerate(neurons):
        if neuron != i + 1:
            message = f"line {_line_of(text, i)}: expected neuron {i + 1}, got {brief(neuron)}"
            raise ParseError(message)
    return rows


def _grid(grid) -> tuple[tuple[int, ...], list[list[float]]]:
    """The shape of ``grid``, an array or a sequence of rows, and its rows
    as floats. An array is read through ``tolist``."""
    rows = grid.tolist() if hasattr(grid, "tolist") else grid
    try:
        rows = [list(map(float, row)) for row in rows]
    except TypeError:  # a row that is a number, or a cell that is not
        raise WrongShape("a grid must be a sequence of rows of numbers") from None
    except ValueError:
        raise ValidationError("grid cells must be numbers") from None
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise WrongShape(f"grid rows differ in length: {min(widths)} to {max(widths)}")
    return getattr(grid, "shape", (len(rows), *widths)), rows


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


def _get_float(obj: dict, key: str, prefix: str) -> float:
    try:
        return float(_get(obj, key, (int, float), prefix))
    except OverflowError:  # an integer literal beyond float range
        raise ValidationError(f"{prefix}{key} is beyond the range of a float") from None


def _read_rows(text: str, header: str, fields: list[tuple[str, str]]) -> list[np.ndarray]:
    """Parse CSV ``text`` below ``header`` into one array per field of
    ``fields``, in one C-level pass; blank lines are skipped. A row that does
    not parse raises ParseError naming its line, found by bisection."""
    import numpy as np

    row = np.dtype(fields)
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
        message = f"line {_line_of(text, lo)}: expected fields {header}, got {rows[lo]!r}"
        raise ParseError(message) from None
    return [table[name] for name in row.names]


def _line_of(text: str, row: int) -> int:
    """The line number in ``text`` of CSV data row ``row`` (0-based), the
    header and blank lines counted."""
    numbers = (n for n, line in enumerate(text.splitlines(), start=1) if line)
    return next(islice(numbers, row + 1, None))
