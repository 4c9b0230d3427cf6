"""``read_trace`` reads any line ending as it reads ``"\\n"``, at the same speed.

A trace is read a run of rows at a time: after each row, the rows that repeat
it but for the neuron are written out and compared with the text in one go.
Each run repeats the line ending of the row it follows, so a trace written with
``"\\r"`` or ``"\\r\\n"`` reads in about as few steps as one with ``"\\n"``,
and a corrupted row is reported at its own line number whatever the endings.
A free run in which patterns stop firing reads back to the text it was
written as, and each pattern's return to zero is a step where its strength
drops to 0.0. This module imports no numpy.
"""

import pytest

from nestfire import (
    ParseError,
    Schedule,
    build_linear,
    first_zero_step,
    pattern_strength,
    read_trace,
    run,
    write_trace,
)
from nestfire import readback
from oracles import reference_firings

ENDINGS = ["\n", "\r", "\r\n"]
MIXED = ["\n", "\r", "\r\n", "\r", "\r", "\r\n", "\n"]


def trace_text(depth: int, size: int, steps: int) -> str:
    """The ``"\\n"``-ended trace of a staggered chain of ``depth`` patterns."""
    return write_trace(run(build_linear(depth, size, 1.0, 0.5), Schedule.staggered(depth), steps))


def with_endings(text: str, endings: list[str], last: bool = True) -> str:
    """``text`` with its k-th line ended by ``endings[k % len(endings)]``,
    and with no ending on the last line unless ``last``."""
    lines = text.splitlines()
    ended = "".join(line + endings[k % len(endings)] for k, line in enumerate(lines))
    return ended if last else ended[: -len(endings[(len(lines) - 1) % len(endings)])]


SHAPES = {
    "table1": (5, 5, 5),
    "one-neuron-patterns": (40, 1, 45),
    "wide-patterns": (2, 1100, 2),
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
@pytest.mark.parametrize("endings", [["\r"], ["\r\n"], MIXED], ids=["cr", "crlf", "mixed"])
@pytest.mark.parametrize("last", [True, False], ids=["ended", "unended"])
def test_any_line_ending_reads_as_newline(shape, endings, last):
    text = trace_text(*shape)
    want, got = read_trace(text), read_trace(with_endings(text, endings, last))
    assert (got.num_steps, got.num_patterns) == (want.num_steps, want.num_patterns)
    assert got.strength == want.strength and got.pattern_of == want.pattern_of
    assert write_trace(got) == text


@pytest.mark.parametrize(
    "endings",
    [*([e] for e in ENDINGS), MIXED, ["\r"] * 5 + ["\r\n"]],
    ids=["lf", "cr", "crlf", "mixed", "cr-then-crlf"],
)
@pytest.mark.parametrize("line", [3, 7, 1204, 2700, 4000, 6601])
@pytest.mark.parametrize("corrupt", ["label", "strength"])
def test_a_corrupted_row_names_its_own_line(endings, line, corrupt):
    # Line 1 is the header; 3 x 1100 neurons make 3300 rows a step. No line
    # chosen starts a block, whose members a wrong strength would disagree with.
    lines = trace_text(3, 1100, 2).splitlines()
    t, i, p, v = lines[line - 1].split(",")
    lines[line - 1] = f"{t},{int(i) + 1},{p},{v}" if corrupt == "label" else f"{t},{i},{p},9.5"
    text = with_endings("\n".join(lines), endings)
    with pytest.raises(ParseError, match=f"^line {line}: "):
        read_trace(text)


def test_a_last_step_cut_short_is_refused():
    # Two steps of one 2-neuron pattern, less the last row.
    text = trace_text(1, 2, 2)
    with pytest.raises(ParseError, match=r"^expected 4 rows, got 3$"):
        read_trace(text[: text.rindex("2,2,1,")])


@pytest.mark.parametrize("ending", ENDINGS, ids=["lf", "cr", "crlf"])
def test_runs_read_most_rows(monkeypatch, ending):
    # Each step's four blocks of 1000 neurons are read in a few runs, not row by row.
    text = with_endings(trace_text(4, 1000, 4), [ending])
    calls = []

    def counted(text, pos):
        calls.append(pos)
        return line(text, pos)

    line = readback._line
    monkeypatch.setattr(readback, "_line", counted)
    table = read_trace(text)
    rows = table.num_steps * table.num_neurons
    assert rows == 16000 and len(calls) < rows // 100


def test_a_shrinking_free_run_reads_back():
    # At weight 0.3 the outer patterns are inhibited to zero and stop firing,
    # so on some steps the firing list is no prefix of the step before's and
    # the kernel sums its inhibition anew.
    depth, steps = 20, 40
    chain = [2] * depth, [None, *range(depth - 1)], 1.0, 0.3, [*range(1, depth + 1)]
    firings = reference_firings(*chain, steps, "free_run")
    assert any(now[: len(last)] != last for last, now in zip(firings, firings[1:]))
    spec, schedule = build_linear(depth, 2, 1.0, 0.3), Schedule.staggered(depth)
    text = write_trace(run(spec, schedule, steps, "free_run"))
    table = read_trace(text)
    assert write_trace(table) == text
    zeros = [first_zero_step(table, k) for k in range(depth)]
    assert any(zeros)
    for k, t in enumerate(zeros):
        assert t is None or pattern_strength(table, k, t) == 0.0 < pattern_strength(table, k, t - 1)
