"""Reading traces and fixtures back, and golden comparison.

``read_trace`` inverts ``scenario.write_trace`` in plain Python. It walks
the text line by line and collapses each step to one strength per pattern
as it goes, so memory holds the table and a few thousand rows' text, never
a row per neuron. Golden comparison works on plain lists too; only the
array-valued fixture functions import numpy. ``simulate`` loads none of
this module, and its public names also resolve through ``scenario``.
"""

from __future__ import annotations

import math
import re
from array import array
from struct import pack
from typing import TYPE_CHECKING, NamedTuple

from .dynamics import TraceTable, _golden_rows
from .errors import ParseError, ValidationError, WrongShape
from .scenario import TRACE_HEADER
from .topology import _real, _shown, brief

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GoldenReport",
    "read_trace",
    "compare_grids",
    "compare_golden",
    "read_golden_fixture",
    "table1_fixture",
    "GOLDEN_TOLERANCE",
]

GOLDEN_TOLERANCE = 1e-9

FIXTURE_HEADER = "neuron,t3,t4,t5"
# The labels a trace may hold: numpy's int64.
_INT64 = range(-(1 << 63), 1 << 63)
# In step 1, where no block's length is known yet, runs start at this many
# rows and stop below it.
_RUN = 16
# Neuron i >= 1000 is written as str(i // 1000) and _TAILS[i % 1000]. A run
# checked at once is at most one thousand, so that it shares a prefix.
_TAILS = [f"{r:03d}" for r in range(1000)]
# What str.splitlines ends a line with.
_BREAK = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


class GoldenReport(NamedTuple):
    """Element-wise comparison result against a golden grid.

    ``mismatches`` holds (neuron, t, expected, actual) tuples with 1-based
    neuron labels and actual step numbers; ``passed`` is true exactly when
    no element differs by more than the tolerance.
    """

    max_abs_error: float
    mismatches: tuple[tuple[int, int, float, float], ...]
    passed: bool


def read_trace(text: str) -> TraceTable:
    """Inverse of :func:`write_trace` for rows in canonical order. The members of a
    pattern must agree bit for bit at every step, ``0.0`` and ``-0.0`` included
    (else ParseError at the row that disagrees), and pattern labels must run
    1..P (else WrongShape)."""
    # Step 1 lays out the neurons, and later steps must repeat its blocks:
    # ``starts`` holds them as (pattern, first neuron, label text). After each
    # row, the rows that repeat it but for the neuron are checked a run at a
    # time, written out as write_trace writes them and compared with the text;
    # the run doubles while it matches and halves when it does not.
    rows, values, starts = array("d"), {}, []
    step, neuron, size, block, limit, label = 1, 0, 0, 0, 0, 0
    step_text, pattern_text = "1", None
    number, pos = _header(text, TRACE_HEADER)
    while pos < len(text):
        (line, pos), number = _line(text, pos), number + 1
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
        run = len(_TAILS) if size else _RUN
        while (many := min(run, limit - 1 - neuron) if size else run) >= (1 if size else _RUN):
            (k, r), tail = divmod(neuron + 1, len(_TAILS)), f",{pattern_text},{v}\n"
            many, lead = min(many, len(_TAILS) - r), f"{step_text},{k or ''}"
            names = _TAILS[r : r + many] if k else map(str, range(r, r + many))
            expected = lead + (tail + lead).join(names) + tail
            if text.startswith(expected, pos):
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
    patterns = {q for q, _, _ in starts[:-1]}
    if patterns != set(range(1, len(patterns) + 1)):
        raise WrongShape(f"pattern_of must name each pattern of strength{(step, len(patterns))}")
    blocks = [(q - 1, end - first) for (q, first, _), (_, end, _) in zip(starts, starts[1:])]
    return object.__new__(TraceTable)._hold(rows, (step, len(patterns)), blocks)


def compare_grids(actual, expected, tolerance: float = GOLDEN_TOLERANCE) -> GoldenReport:
    """Element-wise comparison of two golden-layout grids (rows are neurons
    1.., columns are steps t=3,4,5), each an array or a sequence of rows.
    Every cell whose difference is not <= ``tolerance`` is a mismatch, NaN
    included. ``tolerance`` must be finite and >= 0."""
    (shape, actual), (other, expected) = _grid(actual), _grid(expected)
    if shape != other or len(shape) != 2:
        raise WrongShape(f"grid shapes disagree: {shape} vs {other}")
    if not 0 <= _real(tolerance) < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {_shown(tolerance)}")
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
            got = brief(neuron)
            misnumbered = ParseError(f"line {number}: expected neuron {len(rows)}, got {got}")
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
    found = _BREAK.search(text, pos)
    return (text[pos : found.start()], found.end()) if found else (text[pos:], len(text))


def _split(line: str, number: int, header: str) -> list[str]:
    """The fields of CSV line ``number``: as many as ``header`` has."""
    fields = line.split(",")
    if len(fields) != header.count(",") + 1:
        raise _unreadable(number, header, fields)
    return fields


def _field(fields: list[str], k: int, number: int) -> float:
    """Field ``k`` of trace line ``number``: a label for k < 3, else a
    strength. As numpy read them: ASCII between whitespace, with no ``_``,
    and labels within int64."""
    field = fields[k].strip()
    try:
        value = int(field) if k < 3 else float(field)
        if field.isascii() and "_" not in field and (k == 3 or value in _INT64):
            return value
    except ValueError:
        pass
    raise _unreadable(number, TRACE_HEADER, fields)


def _unreadable(number: int, header: str, fields: list[str]) -> ParseError:
    return ParseError(f"line {number}: expected fields {header}, got {','.join(fields)!r}")
