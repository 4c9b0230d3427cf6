"""Fuzzed scenario documents through ``parse_scenario`` and ``nestfire simulate``,
and fuzzed argument lists through the front door of every command.

Each document is the shipped scenario, with a staggered or an explicit
schedule and in either mode, with a few fields (or whole objects) replaced by
NaN, +-Infinity, integers of up to about 5 000 digits, bools, strings, null or
small numbers. Raw files also get bytes that are not UTF-8. Parsing may only
return a Scenario or raise a NestfireError; the command may only exit 0, 1 or
2, with at most a one-line diagnostic and never an escaping exception.
Integers drawn in range are at most 8, so a document that does parse runs in
a few steps of a few small patterns; larger ones are beyond the row budget.
Argument lists draw their numbers from a small set, and weights of at most
9, so that no drawn case runs a large counter, chain or layout.
"""

import contextlib
import io
import json
import os
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestfire import NestfireError, Scenario, cli, parse_scenario, topology
from nestfire.cli import dispatch

SHIPPED = (resources.files("nestfire") / "data" / "table1.scenario").read_text()


def base_documents() -> list[dict]:
    staggered = json.loads(SHIPPED)
    explicit = json.loads(SHIPPED)
    explicit["schedule"] = {"type": "explicit", "steps": [1, 1, 2, 3, 5]}
    return [
        {**doc, "mode": mode} for doc in (staggered, explicit) for mode in ("scheduled", "free_run")
    ]


def places(doc, path=()):
    """Every path into ``doc``: the document, its objects, lists and leaves."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from places(value, (*path, key))


# JSON literals, as text: json.dumps cannot write an integer of over 4 300 digits.
HUGE_INTEGERS = st.builds(
    lambda sign, lead, fill, length: f"{sign}{lead}{fill * length}",
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.sampled_from("0379"),
    st.integers(18, 5000),
)
LITERALS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "false", "null", "1e400", "-0.0"]),
    st.sampled_from(['"linear"', '"explicit"', '"free_run"', '""', "[]", "{}", "[1]"]),
    st.integers(-2, 8).map(str),
    HUGE_INTEGERS,
    st.sampled_from([str(2**63), str(2**64), str(2**1024), "1" + "0" * 400]),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
)


def put(doc, path: tuple, value):
    """``doc`` with ``value`` at ``path``; unchanged where ``path`` no longer
    leads anywhere, because an earlier replacement took its place."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(doc, dict) and key in doc:
        return {**doc, key: put(doc[key], rest, value)}
    if isinstance(doc, list) and isinstance(key, int) and key < len(doc):
        return [*doc[:key], put(doc[key], rest, value), *doc[key + 1 :]]
    return doc


@st.composite
def scenario_texts(draw) -> str:
    doc = draw(st.sampled_from(base_documents()))
    paths = st.sampled_from(list(places(doc)))
    literals = draw(st.lists(st.tuples(paths, LITERALS), min_size=1, max_size=3))
    for index, (path, _) in enumerate(literals):
        doc = put(doc, path, f"@{index}")
    text = json.dumps(doc)
    for index, (_, literal) in enumerate(literals):
        text = text.replace(f'"@{index}"', literal)
    return text


def simulate(workdir, data: bytes) -> tuple[int, str, str]:
    scenario = workdir / "fuzzed.scenario"
    scenario.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["simulate", "--scenario", str(scenario)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(scenario_texts())
def test_parse_returns_a_scenario_or_raises_a_nestfire_error(text):
    try:
        scenario = parse_scenario(text)
    except NestfireError:
        return
    assert isinstance(scenario, Scenario)


@settings(max_examples=150, deadline=None)
@given(text=scenario_texts())
def test_simulate_exits_0_1_or_2_without_a_traceback(workdir, text):
    code, out, err = simulate(workdir, text.encode())
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("nestfire: error:") and err.count("\n") == 1
    else:
        assert out.startswith("step,neuron,pattern,strength\n") and err == ""


# Sequences no UTF-8 decoder accepts: a stray continuation byte, a truncated
# two-byte sequence, an encoded surrogate, an overlong encoding, a byte never used.
NOT_UTF8 = st.sampled_from([b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(SHIPPED.encode()), scenario_texts().map(str.encode), st.binary(max_size=64)),
    st.integers(0, 10**4),
    NOT_UTF8,
)
def test_simulate_refuses_a_file_that_is_not_utf8(workdir, data, position, garbage):
    position %= len(data) + 1
    code, out, err = simulate(workdir, data[:position] + garbage + data[position:])
    assert code == 2
    assert out == ""
    assert err.startswith("nestfire: error:") and err.count("\n") == 1


# The real commands and flags, numbers that are invalid, tiny or over a
# budget, short weight lists, the shipped and a missing scenario, and junk.
FLAGS = sorted({flag for _, _, flags in cli._COMMANDS.values() for flag in flags} | {"help", "version"})
VALUES = st.one_of(
    st.sampled_from(["-1", "0", "1", "3", str(topology.MAX_ROWS + 1), "9" * 401]),
    st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(lambda ws: ",".join(map(str, ws))),
    st.sampled_from(["table1.scenario", "no.scenario"]),  # relative to the work directory
    st.sampled_from(["", "-", "--", "-x", "x", "=", "1.5", "nan", "a\nb", "\u00e9", "out.csv"]),
)
TOKENS = st.one_of(
    st.sampled_from([f"--{flag}" for flag in FLAGS] + ["-h", *cli._COMMANDS]),
    st.builds(lambda flag, value: f"--{flag}={value}", st.sampled_from(FLAGS), VALUES),
    VALUES,
)


@st.composite
def argument_lists(draw) -> list[str]:
    """A command (now and then a stray token instead), a few of its flags,
    each by name or prefix with its value after it or after ``=``, then a few
    stray tokens."""
    command = draw(st.sampled_from([*cli._COMMANDS, None])) or draw(TOKENS)
    flags = list(cli._COMMANDS[command][2]) if command in cli._COMMANDS else FLAGS
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        name, value = f"--{flag[: draw(st.integers(1, len(flag)))]}", draw(VALUES)
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return argv + draw(st.lists(TOKENS, max_size=3))


@settings(max_examples=400, deadline=None)
@given(argument_lists())
def test_every_command_exits_0_1_or_2_without_a_traceback(workdir, argv):
    # Run in the work directory, where a drawn --out lands, with a fresh copy
    # of the shipped scenario that an earlier --out may have overwritten.
    (workdir / "table1.scenario").write_text(SHIPPED)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("nestfire: error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
