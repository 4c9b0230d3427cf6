"""Reading traces and fixtures back: per-pattern queries and golden comparison.

``read_trace`` inverts ``scenario.write_trace`` in plain Python. It walks
the text line by line and collapses each step to one strength per pattern
as it goes, so memory holds the table and a few thousand rows' text, never
a row per neuron. The queries, the golden grids and their comparison work
on plain lists too: a grid is one list of three floats per neuron, and
nothing here imports numpy. ``simulate`` loads none of this module, and its
public names also resolve through ``scenario``.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import namedtuple
from struct import pack

from .dynamics import TraceTable
from .errors import OutOfRange, ParseError, ValidationError, WrongShape, _shown
from .scenario import TRACE_HEADER
from .topology import _finite, _whole

__all__ = [
    "GoldenReport",
    "read_trace",
    "pattern_strength",
    "first_zero_step",
    "golden_table",
    "compare_grids",
    "compare_golden",
    "read_golden_fixture",
    "table1_fixture",
    "GOLDEN_TOLERANCE",
]

GOLDEN_TOLERANCE = 1e-9

FIXTURE_HEADER = "neuron,t3,t4,t5"
# The labels a trace may hold: signed 64-bit integers.
_INT64 = range(-(1 << 63), 1 << 63)
# In step 1, where no block's length is known yet, runs start at this many
# rows and stop below it.
_RUN = 16
# Neuron i >= 1000 is written as str(i // 1000) and _TAILS[i % 1000]. A run
# checked at once is at most one thousand, so that it shares a prefix.
_TAILS = [f"{r:03d}" for r in range(1000)]


GoldenReport = namedtuple("GoldenReport", "max_abs_error mismatches passed")
GoldenReport.__doc__ = """Element-wise comparison result against a golden grid.

    ``mismatches`` holds (neuron, t, expected, actual) tuples with 1-based
    neuron labels and actual step numbers; ``passed`` is true exactly when
    no element differs by more than the tolerance.
    """


def read_trace(text: str) -> TraceTable:
    """Inverse of :func:`write_trace` for rows in canonical order. The members of a
    pattern must agree bit for bit at every step, ``0.0`` and ``-0.0`` included
    (else ParseError at the row that disagrees), and pattern labels must run
    1..P (else WrongShape)."""
    # Step 1 lays out the neurons, and later steps must repeat its blocks:
    # ``starts`` holds them as (pattern, first neuron, label text). After each
    # row, the rows that repeat it but for the neuron, its ending included, are
    # checked a run at a time against the text, which must not go on with the
    # "\n" of a "\r\n"; the run doubles while it matches and halves when not.
    rows, values, starts = array("d"), {}, []
    step, neuron, size, block, limit, label = 1, 0, 0, 0, 0, 0
    step_text, pattern_text = "1", None
    number, pos = _header(text, TRACE_HEADER)
    while pos < len(text):
        (line, pos), number, start = _line(text, pos), number + 1, pos
        if not line:
            continue
        fields, neuron = _split(line, number, TRACE_HEADER), neuron + 1
        t, i, p, v = fields
        if not size and neuron > 1 and t != step_text and _field(fields, 0, number) != 1:
            size, limit, block = neuron - 1, neuron, -1  # step 1 has ended
            starts.append((0, limit, None))
        if neuron == limit:  # the next block of step 1's layout, or the next step
            block = (block + 1) % (len(starts) - 1)
            if not block:
                rows.extend(map(values.pop, sorted(values)))
                step, step_text, neuron = step + 1, str(step + 1), 1
            (label, _, pattern_text), limit = starts[block], starts[block + 1][1]
        if not (t == step_text and p == pattern_text and i == str(neuron)):
            got = [_field(fields, k, number) for k in range(3)]
            if not size and (not starts or starts[-1][0] != got[2]):
                label, pattern_text = got[2], p
                starts.append((label, neuron, p))
            if got != [step, neuron, label]:
                want = [step, neuron, label]
                raise ParseError(f"line {number}: expected step, neuron, pattern {want}, got {got}")
        strength = _field(fields, 3, number)
        first = values.setdefault(label, strength)
        if first is not strength and pack("d", first) != pack("d", strength):
            raise ParseError(f"line {number}: pattern {label} members disagree at step {step}")
        run, ending = len(_TAILS) if size else _RUN, text[start + len(line) : pos]
        while (many := min(run, limit - 1 - neuron) if size else run) >= (1 if size else _RUN):
            (k, r), tail = divmod(neuron + 1, len(_TAILS)), f",{pattern_text},{v}{ending}"
            many, lead = min(many, len(_TAILS) - r), f"{step_text},{k or ''}"
            names = _TAILS[r : r + many] if k else map(str, range(r, r + many))
            expected = lead + (tail + lead).join(names) + tail
            if text.startswith(expected, pos) and not text.startswith("\r\n", pos + len(expected) - 1):
                pos, number, neuron = pos + len(expected), number + many, neuron + many
                run = min(2 * run, len(_TAILS))
            else:
                run //= 2
    if not size:  # one step, or no rows
        size, step = neuron, min(step, neuron)
        starts.append((0, neuron + 1, None))
    elif neuron != size:
        raise ParseError(f"expected {step * size} rows, got {(step - 1) * size + neuron}")
    rows.extend(map(values.pop, sorted(values)))
    blocks = [(q - 1, end - first) for (q, first, _), (_, end, _) in zip(starts, starts[1:])]
    return object.__new__(TraceTable)._hold(rows, step, blocks)


def pattern_strength(trace: TraceTable, pattern: int, t: int) -> float:
    """The strength every member of ``pattern`` holds after step ``t`` (1-based)."""
    t = _whole(t, "step", 1, trace.num_steps, OutOfRange)
    pattern = _whole(pattern, "pattern", 0, trace.num_patterns - 1, OutOfRange)
    return float(trace._rows[(t - 1) * trace.num_patterns + pattern])


def first_zero_step(trace: TraceTable, pattern: int) -> int | None:
    """Earliest step at which ``pattern`` returns to 0 after being positive, else None."""
    pattern = _whole(pattern, "pattern", 0, trace.num_patterns - 1, OutOfRange)
    was_positive = False
    for t, value in enumerate(map(float, trace._rows[pattern :: trace.num_patterns]), 1):
        if was_positive and value == 0.0:
            return t
        if value > 0.0:
            was_positive = True
    return None


def compare_grids(actual, expected, tolerance: float = GOLDEN_TOLERANCE) -> GoldenReport:
    """Element-wise comparison of two golden-layout grids (rows are neurons
    1.., columns are steps t=3,4,5), each an array or a sequence of rows.
    Every cell whose difference is not <= ``tolerance`` is a mismatch, NaN
    included. ``tolerance`` must be finite and >= 0."""
    (shape, actual), (other, expected) = _grid(actual), _grid(expected)
    if shape != other:
        raise WrongShape(f"grid shapes disagree: {shape} vs {other}")
    if len(shape) != 2:
        raise WrongShape(f"a grid must be 2-D, got shape {shape}")
    _finite(tolerance, "tolerance", 0)
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


def compare_golden(trace: TraceTable, fixture, tolerance: float = GOLDEN_TOLERANCE) -> GoldenReport:
    """Compare a trace's golden grid (neurons 1..25 at t=3,4,5) against a
    25 x 3 fixture grid."""
    return compare_grids(golden_table(trace), fixture, tolerance)


def golden_table(trace: TraceTable) -> list[list[float]]:
    """A trace's 25 x 3 grid for golden comparison: one list of its strengths
    at t = 3, 4, 5 per neuron, neurons 1..25 in order."""
    if trace.num_neurons != 25 or trace.num_steps < 5:
        raise WrongShape(
            f"need a 25-neuron trace of >= 5 steps, got {trace.num_neurons} neurons"
            f" x {trace.num_steps} steps"
        )
    rows, num = trace._rows, trace.num_patterns
    columns = [rows[t * num : (t + 1) * num] for t in (2, 3, 4)]
    return [[column[p] for column in columns] for p, count in trace._blocks for _ in range(count)]


def table1_fixture() -> list[list[float]]:
    """The shipped 25 x 3 golden grid, exactly as printed in the reference
    strength table."""
    # Through the package's own loader, which also reads from a zip.
    path = os.path.join(os.path.dirname(__file__), "data", "table1_fixture.csv")
    return read_golden_fixture(__spec__.loader.get_data(path).decode("utf-8"))


def read_golden_fixture(text: str) -> list[list[float]]:
    """Parse the golden fixture CSV (header neuron,t3,t4,t5) into a grid, one
    list of floats per neuron. Blank lines are skipped; the neurons must be
    numbered 1, 2, ... in order."""
    rows, misnumbered = [], None
    number, pos = _header(text, FIXTURE_HEADER)
    while pos < len(text):
        (line, pos), number = _line(text, pos), number + 1
        if not line:
            continue
        fields = _split(line, number, FIXTURE_HEADER)
        try:
            neuron = int(fields[0])
            rows.append([float(cell) for cell in fields[1:]])
        except ValueError:
            raise _unreadable(number, FIXTURE_HEADER, fields) from None
        if neuron != len(rows) and not misnumbered:
            misnumbered = ParseError(f"line {number}: expected neuron {len(rows)}, got {_shown(neuron)}")
    if misnumbered:
        raise misnumbered
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


def _header(text: str, header: str) -> tuple[int, int]:
    """The number of the first line of ``text`` that is not blank, which
    must be ``header``, and where the line after it starts."""
    number, pos, line = 0, 0, ""
    while not line and pos < len(text):
        (line, pos), number = _line(text, pos), number + 1
    if line != header:
        raise ParseError(f"expected header {header!r}")
    return number, pos


def _line(text: str, pos: int) -> tuple[str, int]:
    """The line of ``text`` that starts at ``pos``, cut where str.splitlines
    cuts it, and where the next line starts."""
    # Cut the first line of a chunk of the text. While that line fills the
    # chunk and the text goes on, the line may too (or its "\r" may have its
    # "\n" next): the chunk doubles.
    size = 64
    while len(line := text[pos : pos + size].splitlines(True)[0]) == size < len(text) - pos:
        size *= 2
    return line.splitlines()[0], pos + len(line)


def _split(line: str, number: int, header: str) -> list[str]:
    """The fields of CSV line ``number``: as many as ``header`` has."""
    fields = line.split(",")
    if len(fields) != header.count(",") + 1:
        raise _unreadable(number, header, fields)
    return fields


def _field(fields: list[str], k: int, number: int) -> float:
    """Field ``k`` of trace line ``number``: a label for k < 3, else a
    strength. A field is ASCII between whitespace, with no ``_``, and a
    label is a whole number within ``_INT64``."""
    field = fields[k].strip()
    try:
        value = int(field) if k < 3 else float(field)
        if field.isascii() and "_" not in field and (k == 3 or value in _INT64):
            return value
    except ValueError:
        pass
    raise _unreadable(number, TRACE_HEADER, fields)


def _unreadable(number: int, header: str, fields: list[str]) -> ParseError:
    return ParseError(f"line {number}: expected fields {header}, got {_shown(','.join(fields))}")
