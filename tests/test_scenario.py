"""Scenario documents, trace serialization, and golden comparison."""

import json
import math
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nestfire import (
    MODE_FREE_RUN,
    MODE_SCHEDULED,
    EnsembleSpec,
    NestfireError,
    ParseError,
    PatternSpec,
    Scenario,
    Schedule,
    TraceTable,
    ValidationError,
    WrongShape,
    build_linear,
    compare_golden,
    compare_grids,
    first_zero_step,
    parse_scenario,
    pattern_strength,
    read_golden_fixture,
    read_trace,
    run,
    standard_scenario,
    table1_fixture,
    topology,
    write_scenario,
    write_trace,
)
from nestfire.scenario import WRITE_ROWS
from oracles import expand_to_neurons, reference_run, reference_write_trace
from test_trace_digests import CASES as DIGEST_CASES


def shipped_scenario_text():
    return (resources.files("nestfire") / "data" / "table1.scenario").read_text()


def standard_doc():
    return json.loads(shipped_scenario_text())


class TestParseScenario:
    def test_shipped_file_is_the_standard_run(self):
        scenario = parse_scenario(shipped_scenario_text())
        assert scenario == standard_scenario()
        ensemble, schedule, steps, mode = scenario
        assert ensemble.num_patterns == 5
        assert ensemble.num_neurons == 25
        assert ensemble.excitatory_unit == 1.0
        assert ensemble.inhibitory_weight == 0.5
        assert schedule.activation_step == (1, 2, 3, 4, 5)
        assert steps == 5
        assert mode == MODE_SCHEDULED

    def test_explicit_schedule(self):
        doc = standard_doc()
        doc["schedule"] = {"type": "explicit", "steps": [1, 1, 2, 3, 5]}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.schedule.activation_step == (1, 1, 2, 3, 5)

    def test_negative_inhibition_fails_validation(self):
        doc = standard_doc()
        doc["ensemble"]["inhibitory_weight"] = -0.1
        with pytest.raises(ValidationError, match="inhibitory_weight"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("key", ["excitatory_unit", "inhibitory_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_fail_validation(self, key, value):
        doc = standard_doc()
        doc["ensemble"][key] = value  # json.dumps writes NaN / Infinity
        with pytest.raises(ValidationError, match=key):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("key", ["excitatory_unit", "inhibitory_weight"])
    def test_integer_beyond_float_range_fails_validation(self, key):
        doc = standard_doc()
        doc["ensemble"][key] = 10**400
        with pytest.raises(ValidationError, match=f"ensemble.{key} is beyond") as excinfo:
            parse_scenario(json.dumps(doc))
        assert "0" * 20 not in str(excinfo.value)

    def test_overlong_integer_literal_is_a_parse_error(self):
        text = json.dumps(standard_doc())
        assert '"steps": 5' in text
        text = text.replace('"steps": 5', '"steps": ' + "7" * 5000)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=f"more than {limit} digits") as excinfo:
            parse_scenario(text)
        assert "7777" not in str(excinfo.value)

    def test_deeply_nested_document_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_scenario("[" * 100_000 + "]" * 100_000)

    def test_unknown_key_rejected(self):
        doc = standard_doc()
        doc["foo"] = 1
        with pytest.raises(ParseError, match="foo"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_key_rejected(self):
        doc = standard_doc()
        doc["ensemble"]["colour"] = "blue"
        with pytest.raises(ParseError, match="ensemble.colour"):
            parse_scenario(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = standard_doc()
        del doc["steps"]
        with pytest.raises(ParseError, match="steps"):
            parse_scenario(json.dumps(doc))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario("{\n  broken\n}")

    def test_zero_depth_fails_validation(self):
        doc = standard_doc()
        doc["ensemble"]["depth"] = 0
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(doc))

    def test_zero_steps_fails_validation(self):
        doc = standard_doc()
        doc["steps"] = 0
        with pytest.raises(ValidationError, match="steps"):
            parse_scenario(json.dumps(doc))

    def test_row_budget_is_checked_before_building(self, monkeypatch):
        doc = standard_doc()  # 5 steps x 5 patterns x 5 neurons
        monkeypatch.setattr(topology, "MAX_ROWS", 125)
        assert parse_scenario(json.dumps(doc)) == standard_scenario()
        doc["ensemble"]["depth"] = 10**12  # would take hours to build
        with pytest.raises(ValidationError, match="steps x depth x pattern_size exceeds"):
            parse_scenario(json.dumps(doc))
        monkeypatch.setattr(topology, "MAX_ROWS", 124)
        with pytest.raises(ValidationError, match="budget of 124 rows"):
            parse_scenario(shipped_scenario_text())

    def test_schedule_without_type_is_a_parse_error(self):
        doc = standard_doc()
        del doc["schedule"]["type"]
        with pytest.raises(ParseError, match="^missing key 'schedule.type'$"):
            parse_scenario(json.dumps(doc))

    def test_schedule_length_must_match_depth(self):
        doc = standard_doc()
        doc["schedule"] = {"type": "explicit", "steps": [1, 2, 3]}
        with pytest.raises(ValidationError, match="patterns"):
            parse_scenario(json.dumps(doc))

    def test_activation_step_below_one_fails_validation(self):
        doc = standard_doc()
        doc["schedule"] = {"type": "explicit", "steps": [0, 1, 2, 3, 4]}
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("mode", "warp"),
            lambda d: d["ensemble"].__setitem__("nesting", "radial"),
            lambda d: d["schedule"].__setitem__("type", "fibonacci"),
            lambda d: d.__setitem__("steps", "five"),
            lambda d: d.__setitem__("steps", True),
            lambda d: d["ensemble"].__setitem__("depth", 2.5),
            lambda d: d["schedule"].__setitem__("steps", [1.5] * 5),
        ],
    )
    def test_schema_violations_are_parse_errors(self, mutate):
        doc = standard_doc()
        doc["schedule"] = {"type": "explicit", "steps": [1, 2, 3, 4, 5]}
        mutate(doc)
        with pytest.raises(ParseError):
            parse_scenario(json.dumps(doc))

    def test_parse_after_write_is_identity(self):
        original = standard_scenario()
        assert parse_scenario(write_scenario(original)) == original
        varied = original._replace(steps=9, schedule=Schedule((1, 1, 4, 4, 9)))
        assert parse_scenario(write_scenario(varied)) == varied

    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"steps": 0}, ValidationError, "steps must be >= 1, got 0"),
            (
                {"ensemble": build_linear(3, 5, 1.0, 0.5), "schedule": Schedule((1, 2))},
                ValidationError,
                "schedule.steps lists 2 patterns, ensemble has 3",
            ),
            (
                {"ensemble": build_linear(5, 5, math.nan, 0.5)},
                ValidationError,
                "excitatory_unit must be finite and > 0, got nan",
            ),
            ({"mode": "warp"}, ParseError, r"mode must be one of \('scheduled', 'free_run'\)"),
            (
                {
                    "ensemble": EnsembleSpec((PatternSpec(1, None, 5),), 1.0, 0.5),
                    "schedule": Schedule((1,)),
                },
                ValidationError,
                "the scenario reads back as another one",
            ),
            (
                {"ensemble": EnsembleSpec(standard_scenario().ensemble.patterns, 1.0, 0.5j)},
                ValidationError,
                "inhibitory_weight must be finite and >= 0",
            ),
            ({"mode": object()}, ParseError, "mode must be one of"),
            (
                {"ensemble": EnsembleSpec([PatternSpec(0, None, [5])], 1.0, 0.5),
                 "schedule": Schedule((1,))},
                ValidationError,
                r"pattern_size must be a whole number, got \[5\]",
            ),
        ],
        ids=[
            "zero-steps", "short-schedule", "nan-unit", "unknown-mode", "id-out-of-place",
            "complex-weight", "object-mode", "list-size",
        ],
    )
    def test_write_refuses_what_parse_refuses(self, change, error, message):
        with pytest.raises(error, match=message):
            write_scenario(standard_scenario()._replace(**change))

    @pytest.mark.parametrize(
        "change",
        [
            {"steps": np.int64(5)},
            {"ensemble": EnsembleSpec(standard_scenario().ensemble.patterns, np.float32(0.1), 0.5)},
            {"ensemble": EnsembleSpec([PatternSpec(0, None, np.int64(5))], 1.0, 0.5),
             "schedule": Schedule((1,))},
        ],
        ids=["int64-steps", "float32-unit", "int64-size"],
    )
    def test_write_takes_numpy_numbers(self, change):
        scenario = standard_scenario()._replace(**change)
        assert parse_scenario(write_scenario(scenario)) == scenario

    @given(
        data=st.data(),
        depth=st.integers(1, 4),
        size=st.integers(1, 3),
        unit=st.sampled_from([0.3, 1.0, 2.0, 1e300, math.nan]),
        weight=st.sampled_from([0.0, -0.0, 1 / 3, 0.5, 1.5, -0.5]),
        steps=st.integers(0, 6),
        mode=st.sampled_from([MODE_SCHEDULED, MODE_FREE_RUN, "warp"]),
    )
    def test_write_accepts_only_what_reads_back(self, data, depth, size, unit, weight, steps, mode):
        num = data.draw(st.sampled_from([depth, depth, depth, depth + 1]))
        schedule = Schedule(data.draw(st.lists(st.integers(1, 6), min_size=num, max_size=num)))
        scenario = Scenario(build_linear(depth, size, unit, weight), schedule, steps, mode)
        try:
            text = write_scenario(scenario)
        except NestfireError:
            return
        assert parse_scenario(text) == scenario

    def test_unrepresentable_ensemble_fails_validation(self):
        spec = EnsembleSpec((PatternSpec(0, None, 2), PatternSpec(1, 0, 3)), 1.0, 0.5)
        with pytest.raises(ValidationError):
            write_scenario(Scenario(spec, Schedule((1, 2)), 3, MODE_SCHEDULED))


@pytest.fixture(scope="module")
def trace():
    ensemble, schedule, steps, mode = standard_scenario()
    return run(ensemble, schedule, steps, mode)


class TestTraceSerialization:
    def test_header_and_standard_row(self, trace):
        text = write_trace(trace)
        lines = text.splitlines()
        assert lines[0] == "step,neuron,pattern,strength"
        assert "3,1,1,7.5" in lines

    def test_shortest_roundtrip_decimals(self, trace):
        lines = write_trace(trace).splitlines()
        assert "1,1,1,5.0" in lines  # not 5, not 5.00
        assert "3,1,1,7.5" in lines
        assert not any("e" in line or "E" in line for line in lines[1:])

    def test_empty_trace_is_header_only(self):
        empty = TraceTable(strength=np.zeros((0, 0)), pattern_of=np.zeros(0, dtype=int))
        assert write_trace(empty) == "step,neuron,pattern,strength\n"

    def test_round_trip_identity(self, trace):
        recovered = read_trace(write_trace(trace))
        assert np.array_equal(recovered.values, trace.values)
        assert np.array_equal(recovered.pattern_of, trace.pattern_of)

    def test_round_trip_free_run_tail(self):
        ensemble, schedule, _, _ = standard_scenario()
        trace = run(ensemble, schedule, 11, "free_run")
        recovered = read_trace(write_trace(trace))
        assert np.array_equal(recovered.values, trace.values)

    def test_byte_determinism(self, trace):
        assert write_trace(trace) == write_trace(trace)

    @pytest.mark.parametrize(
        "text",
        [
            "steps,neuron,pattern,strength\n1,1,1,0.0\n",  # wrong header
            "step,neuron,pattern,strength\n1,1,1\n",  # short row
            "step,neuron,pattern,strength\n1,1,1,x\n",  # bad number
            "step,neuron,pattern,strength\n1,2,1,0.0\n",  # wrong neuron order
            "step,neuron,pattern,strength\n1,1,1,0.0\n3,1,1,0.0\n",  # step gap
            "step,neuron,pattern,strength\n1,1,1,0.0\n2,1,2,0.0\n",  # pattern drift
        ],
    )
    def test_malformed_traces_rejected(self, text):
        with pytest.raises(ParseError):
            read_trace(text)

    @pytest.mark.parametrize(
        "bad_row, line",
        [
            ("1,3,1", 4),  # short row
            ("1,3,1,x", 4),  # bad number
            ("2,2,1,0.0,7", 6),  # five fields
            ("2,99999999999999999999,1,0.0", 6),  # label outside int64
            ("1,3,-99999999999999999999,0.0", 4),
            ("1,3,1,0.0", 5),  # out of order
            ("2,3,2,0.0", 7),  # pattern drift
        ],
    )
    def test_bad_row_names_its_line(self, bad_row, line):
        rows = [f"{t},{i},1,0.0" for t in (1, 2) for i in (1, 2, 3)]
        rows[line - 2] = bad_row
        text = "\n".join(["step,neuron,pattern,strength", *rows]) + "\n"
        with pytest.raises(ParseError, match=f"^line {line}: "):
            read_trace(text)
        # A blank line is a line: below one, the bad row is a line further down.
        with pytest.raises(ParseError, match=f"^line {line + 1}: "):
            read_trace(text.replace("\n", "\n\n", 1))

    @pytest.mark.parametrize(
        "first, second",
        [(0.0, 1.0), (0.0, -0.0)],
        ids=["unequal", "signed-zero"],
    )
    def test_members_of_a_pattern_must_agree(self, first, second):
        text = f"step,neuron,pattern,strength\n1,1,1,{first!r}\n1,2,1,{second!r}\n1,3,2,0.0\n"
        with pytest.raises(ParseError, match="^line 3: pattern 1 members disagree at step 1$"):
            read_trace(text)

    def test_pattern_labels_must_not_skip(self):
        with pytest.raises(WrongShape):
            read_trace("step,neuron,pattern,strength\n1,1,1,0.0\n1,2,3,0.0\n")

    @given(
        depth=st.integers(1, 6),
        size=st.integers(1, 4),
        unit=st.sampled_from([0.3, 1.0, 2.0]),
        weight=st.sampled_from([0.0, 0.3, 1 / 3, 0.5, 0.7, 1.5]),
        interval=st.integers(1, 3),
        steps=st.integers(1, 25),
        mode=st.sampled_from([MODE_SCHEDULED, MODE_FREE_RUN]),
    )
    def test_engine_traces_round_trip(self, depth, size, unit, weight, interval, steps, mode):
        spec = build_linear(depth, size, unit, weight)
        trace = run(spec, Schedule.staggered(depth, interval), steps, mode)
        text = write_trace(trace)
        recovered = read_trace(text)
        assert write_trace(recovered) == text
        assert recovered.strength.tobytes() == trace.strength.tobytes()
        assert np.array_equal(recovered.pattern_of, trace.pattern_of)


TRACE_LIKE_TEXT = st.lists(
    st.lists(
        st.sampled_from(
            ["1", "2", "3", "0", "-1", "1.5", "0.0", "-0.0", "nan", "inf", "x", "", " 2",
             "99999999999999999999"]
        ),
        min_size=2,
        max_size=5,
    ).map(",".join),
    max_size=12,
).map(lambda rows: "\n".join(["step,neuron,pattern,strength", *rows]))


@given(st.one_of(st.text(), TRACE_LIKE_TEXT))
def test_any_text_reads_as_trace_or_nestfire_error(text):
    try:
        trace = read_trace(text)
    except NestfireError:
        return
    assert isinstance(trace, TraceTable)


# A NaN whose payload differs from np.nan: other bits, same text.
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
TINY = 5e-324


def table(strength, pattern_of, dtype=float):
    return TraceTable(
        strength=np.array(strength, dtype=dtype), pattern_of=np.array(pattern_of, dtype=int)
    )


# Per-pattern tables: ``strength`` has one column per pattern.
WRITER_CASES = {
    "signed-zeros-in-one-pattern": table([[0.0], [-0.0], [0.0]], [0, 0, 0, 0]),
    "signed-zeros-side-by-side": table([[0.0, -0.0], [-0.0, 0.0]], [0, 0, 1, 1]),
    "nan-inf-subnormal": table(
        [[math.nan, OTHER_NAN, math.inf, -math.inf, TINY, 0.0]], [0, 0, 1, 2, 2, 3, 4, 4, 5]
    ),
    "interleaved-patterns": table([[1.0, 2.0, 1.0]], [0, 1, 0, 1, 2, 0]),
    "zero-steps": table(np.zeros((0, 2)), [0, 0, 1, 1]),
    "steps-without-neurons": table(np.zeros((3, 0)), []),
    "float32": table([[0.1, -0.0, 0.0, 1 / 3]], [0, 0, 1, 2, 3], dtype=np.float32),
    "integer": table([[1, 2], [0, -(2**62)]], [0, 0, 1], dtype=np.int64),
    "strided-view": TraceTable(
        strength=np.arange(12.0).reshape(2, 6)[:, ::2],
        pattern_of=np.array([0, 0, 1, 1, 2, 2]),
    ),
}

# Writer cases whose strengths would not read back: TraceTable refuses them
# where they are built, so neither writer ever sees them.
REFUSED_WRITER_CASES = {"complex": ([[1j, -0.0, 0.0]], [0, 0, 1, 2], np.complex128)}


def check_refused(name):
    strength, pattern_of, dtype = REFUSED_WRITER_CASES[name]
    with pytest.raises(WrongShape, match="strengths must be integers or floats, got dtype"):
        table(strength, pattern_of, dtype=dtype)

# Tables as ``(pattern, count)`` blocks, with blocks that start or end where
# a neuron label gains a digit, one pattern in two blocks apart, and a block
# that one write cannot hold.
BOUNDARY_BLOCKS = {
    "starts-at-999": [(0, 998), (1, 3)],
    "ends-at-999": [(0, 999), (1, 3)],
    "ends-at-1000": [(0, 1000), (1, 3)],
    "ends-at-1001": [(0, 1001), (1, 1000)],
    "neuron-1000-alone-and-last": [(0, 999), (1, 1)],
    "ends-at-9999": [(0, 9999), (1, 2)],
    "ends-at-10000": [(0, 10000), (1, 2)],
    "ends-at-99999": [(0, 99999), (1, 1), (2, 1)],
    "ends-at-100000": [(0, 100000), (1, 1)],
    "one-pattern-apart": [(0, 1500), (1, 2500), (0, 700)],
    "block-larger-than-a-write": [(0, 3), (1, 2 * WRITE_ROWS + 1001), (2, 2)],
}


def blocks_table(blocks, steps=2):
    """A table of ``(pattern, count)`` blocks, each pattern with its own
    strength at each step."""
    patterns, counts = zip(*blocks)
    width = max(patterns) + 1
    strength = np.arange(1.0, 1 + steps * width).reshape(steps, width) / 3
    return TraceTable(strength=strength, pattern_of=np.repeat(patterns, counts))


SAMPLE_FLOATS = [0.0, -0.0, math.nan, OTHER_NAN, math.inf, -math.inf, TINY, 0.1, 1 / 3, 7.5]
SAMPLE_INTS = [0, 1, -1, 2**62]


@st.composite
def trace_tables(draw, dtypes=(np.float64, np.float32, np.int64)):
    """Small per-pattern tables of any shape, dtype and layout, with the
    patterns' members interleaved or side by side."""
    steps = draw(st.integers(0, 4))
    labels = draw(st.lists(st.integers(0, 3), max_size=12))
    # Renumber the labels drawn as 0..P-1 so that every pattern has a member.
    pattern_of = np.unique(labels, return_inverse=True)[1].reshape(-1)
    width = len(set(labels))
    stride = draw(st.sampled_from([1, 2]))
    dtype = draw(st.sampled_from(dtypes))
    pool = SAMPLE_INTS if dtype is np.int64 else SAMPLE_FLOATS
    row = st.lists(st.sampled_from(pool), min_size=width * stride, max_size=width * stride)
    rows = draw(st.lists(row, min_size=steps, max_size=steps))
    strength = np.array(rows, dtype=dtype).reshape(steps, width * stride)[:, ::stride]
    return TraceTable(strength=strength, pattern_of=pattern_of.astype(int))


class TestWriterMatchesReference:
    @pytest.mark.parametrize("name", [*WRITER_CASES, *REFUSED_WRITER_CASES])
    def test_edge_case_tables(self, name):
        if name in REFUSED_WRITER_CASES:
            check_refused(name)
            return
        trace = WRITER_CASES[name]
        assert write_trace(trace) == reference_write_trace(trace)

    def test_engine_traces(self, trace):
        ensemble, schedule, _, _ = standard_scenario()
        free = run(ensemble, schedule, 11, "free_run")
        for each in (trace, free):
            assert write_trace(each) == reference_write_trace(each)

    @pytest.mark.parametrize("name", list(BOUNDARY_BLOCKS))
    def test_blocks_at_label_boundaries(self, name):
        trace = blocks_table(BOUNDARY_BLOCKS[name])
        assert write_trace(trace) == reference_write_trace(trace)

    @given(trace_tables())
    def test_any_table(self, trace):
        assert write_trace(trace) == reference_write_trace(trace)

    @given(trace_tables(dtypes=(np.float64, np.float32)))
    def test_float_tables_round_trip_as_text(self, trace):
        text = write_trace(trace)
        assert write_trace(read_trace(text)) == text

    @pytest.mark.parametrize("patterns, labels", [(3, 1), (1, 3), (0, 1)])
    def test_table_needs_one_pattern_per_neuron(self, patterns, labels):
        # pattern_of = 0..labels-1 must name exactly the patterns 0..patterns-1.
        with pytest.raises(WrongShape):
            TraceTable(strength=np.zeros((2, patterns)), pattern_of=np.arange(labels))

    @pytest.mark.parametrize(
        "strength, pattern_of",
        [(np.zeros(2), np.zeros(2, dtype=int)), (np.zeros((2, 1)), np.zeros((1, 2), dtype=int))],
        ids=["one-dimensional-strength", "two-dimensional-pattern-of"],
    )
    def test_table_needs_a_matrix_and_a_map(self, strength, pattern_of):
        with pytest.raises(WrongShape):
            TraceTable(strength=strength, pattern_of=pattern_of)

    @pytest.mark.parametrize(
        "strength",
        [[[1j, -0.0, 0.0]], [[True, False, True]], np.array([["a", "b", "c"]], dtype=object)],
        ids=["complex", "bool", "object"],
    )
    def test_table_strengths_must_be_integers_or_floats(self, strength):
        # Anything else would write a text that read_trace refuses, or no real strength.
        with pytest.raises(WrongShape, match="strengths must be integers or floats, got dtype"):
            TraceTable(strength=np.array(strength), pattern_of=np.array([0, 0, 1, 2]))

    @pytest.mark.parametrize(
        "query, args",
        [(pattern_strength, (0, 1)), (first_zero_step, (0,))],
        ids=["pattern_strength", "first_zero_step"],
    )
    def test_complex_table_queries_raise_wrong_shape(self, query, args):
        # A complex table is refused where it is built, before any query can read it.
        with pytest.raises(WrongShape, match="strengths must be integers or floats, got dtype"):
            query(table([[1j, -0.0, 0.0]], [0, 0, 1, 2], dtype=np.complex128), *args)


class Recorder:
    """A text handle that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class Discard:
    """A text handle that keeps nothing."""

    def write(self, text):
        return len(text)


def digest_trace(depth, size, unit, weight, schedule, steps, mode):
    """The trace behind one case of test_trace_digests.CASES."""
    if isinstance(schedule, int):
        activation = Schedule.staggered(depth, schedule)
    else:
        activation = Schedule(schedule)
    return run(build_linear(depth, size, unit, weight), activation, steps, mode)


class TestStreamingWriter:
    """A handle gets the same text as the string form: the header, then
    writes of at most WRITE_ROWS rows of one step each."""

    @staticmethod
    def check_streams(trace):
        handle = Recorder()
        assert write_trace(trace, handle) is None
        assert "".join(handle.writes) == write_trace(trace)
        assert handle.writes[0] == "step,neuron,pattern,strength\n"
        for text in handle.writes[1:]:
            rows = text.splitlines()
            assert 0 < len(rows) <= WRITE_ROWS, "a write of too many rows"
            assert len({row.split(",", 1)[0] for row in rows}) == 1, "one write, many steps"
        return handle.writes

    @pytest.mark.parametrize("case", list(DIGEST_CASES), ids=lambda case: "-".join(map(str, case)))
    def test_digest_scenarios(self, case):
        trace = digest_trace(*case)
        writes = self.check_streams(trace)
        # A piece has at most 1000 rows, so each write but a step's last holds more
        # than WRITE_ROWS - 1000.
        per_step = -(-trace.num_neurons // (WRITE_ROWS - 999))
        assert 1 + trace.num_steps <= len(writes) <= 1 + trace.num_steps * per_step

    @pytest.mark.parametrize("name", [*WRITER_CASES, *REFUSED_WRITER_CASES])
    def test_edge_case_tables(self, name):
        if name in REFUSED_WRITER_CASES:
            check_refused(name)
            return
        self.check_streams(WRITER_CASES[name])

    @pytest.mark.parametrize("name", list(BOUNDARY_BLOCKS))
    def test_blocks_at_label_boundaries(self, name):
        self.check_streams(blocks_table(BOUNDARY_BLOCKS[name]))

    def test_header_only_trace_writes_the_header(self):
        empty = TraceTable(strength=np.zeros((0, 0)), pattern_of=np.zeros(0, dtype=int))
        assert self.check_streams(empty) == ["step,neuron,pattern,strength\n"]

    def test_memory_holds_one_write_whatever_the_neurons(self):
        # A label string per neuron and a step's text in one string take about 108 MB at 10**6.
        peaks = []
        for neurons in (10**5, 10**6):
            trace = run(build_linear(1, neurons, 1.0, 0.5), Schedule((1,)), 1)
            tracemalloc.start()
            try:
                write_trace(trace, Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1_000_000, peaks
        assert peaks[1] < 3 * peaks[0], peaks


class TestStreamingReader:
    """read_trace holds the table and a few thousand rows' text, and stops at
    the first row out of place, naming its line."""

    def test_memory_holds_the_table_not_the_rows(self):
        # Holding every row would take tens of MB here: about 35 MB at 300 000 rows.
        peaks = []
        for neurons in (25_000, 250_000):
            # Two wide patterns for two steps: 10**5 and 10**6 rows.
            text = write_trace(run(build_linear(2, neurons, 1.0, 0.5), Schedule((1, 2)), 2))
            tracemalloc.start()
            try:
                recovered = read_trace(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert write_trace(recovered) == text
        assert peaks[1] < 1_000_000, peaks
        assert peaks[1] < 3 * peaks[0], peaks

    @given(data=st.data())
    def test_one_corrupted_row_is_refused_at_its_line(self, data):
        depth, size = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        steps = data.draw(st.integers(1, 4))
        weight = data.draw(st.sampled_from([0.3, 0.5, 1.5]))
        trace = run(build_linear(depth, size, 1.0, weight), Schedule.staggered(depth), steps)
        rows, n = write_trace(trace).splitlines()[1:], depth * size
        r = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "label", "flip"]))
        line = r + 2  # the header is line 1
        if kind == "drop":
            del rows[r]
            if r == len(rows):  # the last row: a trace one row short, unless a whole step
                assume(steps > 1 and n > 1)
                line = None
            elif steps > 1 and r == n - 1 and n > 1:
                line = 2 * n  # step 1 reads as n - 1 neurons, and step 2 runs over
        elif kind == "duplicate":
            rows.insert(r, rows[r])
            line = r + 3
        elif kind == "swap":
            k = data.draw(st.integers(0, len(rows) - 1).filter(lambda k: k != r))
            r, k = min(r, k), max(r, k)
            rows[r], rows[k] = rows[k], rows[r]
            # Step 2's first row, met inside step 1, reads as step 2 begun early.
            line = r + 3 if k == n and 0 < r < n else r + 2
        elif kind == "label":
            fields = rows[r].split(",")
            k = data.draw(st.integers(0, 2 if r >= n else 1))  # step 1 lays the patterns out
            fields[k] = str(int(fields[k]) + data.draw(st.sampled_from([-2, -1, 1, 2])))
            rows[r] = ",".join(fields)
        else:  # flip the sign bit of one strength
            t, neuron, pattern, value = rows[r].split(",")
            rows[r] = f"{t},{neuron},{pattern},{-float(value)!r}"
        text = "\n".join(["step,neuron,pattern,strength", *rows]) + "\n"
        if kind == "flip" and size == 1:  # no other member to disagree with
            got = pattern_strength(read_trace(text), int(pattern) - 1, int(t))
            assert math.copysign(1, got) == -math.copysign(1, float(value))
            return
        if kind == "flip":
            # A pattern's first member is refused on the next line, where the second disagrees.
            line += (int(neuron) - 1) % size == 0
            error = ParseError
            message = f"^line {line}: pattern {pattern} members disagree at step {t}$"
        elif line is None:
            error, message = ParseError, f"^expected {steps * n} rows, got {steps * n - 1}$"
        else:
            error, message = ParseError, f"^line {line}: expected step, neuron, pattern "
        with pytest.raises(error, match=message):
            read_trace(text)


class TestGoldenComparison:
    def test_standard_run_passes_exactly(self, trace):
        report = compare_golden(trace, table1_fixture(), tolerance=1e-9)
        assert report.passed
        assert report.max_abs_error == 0.0
        assert report.mismatches == ()

    def test_weaker_inhibition_fails_with_45_mismatches(self):
        # Derived with oracles.reference_run at weight 0.4: every cell of
        # patterns that have begun to feel inhibition moves, 45 in total.
        spec = build_linear(5, 5, 1.0, 0.4)
        trace = run(spec, Schedule.staggered(5), 5)
        report = compare_golden(trace, table1_fixture(), tolerance=1e-9)
        assert not report.passed
        assert len(report.mismatches) == 45
        reference = expand_to_neurons(reference_run(5, 5, 1.0, 0.4, [1, 2, 3, 4, 5], 5), 5)
        for neuron, t, expected, actual in report.mismatches:
            assert actual == reference[t - 1][neuron - 1]
            assert abs(expected - actual) > 1e-9

    def test_fixture_against_itself(self):
        fixture = table1_fixture()
        report = compare_grids(fixture, fixture, tolerance=0.0)
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_pass_fail_symmetric_under_swap(self, trace):
        from nestfire import golden_table

        grid = golden_table(trace)
        fixture = table1_fixture()
        shifted = fixture + 0.25
        assert compare_grids(grid, fixture).passed == compare_grids(fixture, grid).passed
        a = compare_grids(grid, shifted)
        b = compare_grids(shifted, grid)
        assert a.passed == b.passed is False
        assert a.max_abs_error == b.max_abs_error

    def test_wrong_shapes_rejected(self, trace):
        with pytest.raises(WrongShape):
            compare_golden(trace, np.zeros((24, 3)))
        with pytest.raises(WrongShape):
            compare_grids(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        fixture = table1_fixture()
        with pytest.raises(ValidationError):
            compare_grids(fixture + 1, fixture, tolerance)

    def test_mismatch_records_use_table_labels(self):
        fixture = table1_fixture()
        poked = fixture.copy()
        poked[12, 1] -= 1.0  # neuron 13 at t=4
        report = compare_grids(poked, fixture)
        assert report.mismatches == ((13, 4, 7.5, 6.5),)

    @pytest.mark.parametrize("where", ["actual", "expected", "both"])
    def test_nan_cell_is_a_mismatch(self, where):
        fixture = table1_fixture()
        poked = fixture.copy()
        poked[0, 0] = math.nan
        actual = poked if where in ("actual", "both") else fixture
        expected = poked if where in ("expected", "both") else fixture
        report = compare_grids(actual, expected, tolerance=0.5)
        assert not report.passed
        assert math.isnan(report.max_abs_error)
        assert [m[:2] for m in report.mismatches] == [(1, 3)]

    def test_grids_may_be_lists(self):
        fixture = table1_fixture()
        rows = fixture.tolist()
        assert compare_grids(rows, fixture) == compare_grids(fixture, fixture)
        rows[12][1] -= 1.0
        assert compare_grids(rows, fixture).mismatches == ((13, 4, 7.5, 6.5),)

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([[1, 2], [3]], WrongShape, "grid rows differ in length: 1 to 2"),
            ([1, 2], WrongShape, "sequence of rows"),
            ([[[1, 2]], [[3, 4]]], WrongShape, "sequence of rows"),
            ([["x", 2], [3, 4]], ValidationError, "grid cells must be numbers"),
        ],
        ids=["ragged", "one-axis", "three-axes", "non-numeric"],
    )
    def test_malformed_grids_raise_library_errors(self, grid, error, message):
        with pytest.raises(error, match=message):
            compare_grids(grid, [[1, 2], [3, 4]])
        with pytest.raises(error, match=message):
            compare_grids([[1, 2], [3, 4]], grid)


# What a fixture row that does not parse is reported as, before the row.
FIELDS = "expected fields neuron,t3,t4,t5, got"


class TestFixtureFile:
    def test_shipped_fixture_values(self):
        fixture = table1_fixture()
        assert fixture.shape == (25, 3)
        assert fixture[0].tolist() == [7.5, 5.0, 0.0]
        assert fixture[12].tolist() == [5.0, 7.5, 7.5]
        assert fixture[21].tolist() == [0.0, 0.0, 5.0]
        assert fixture[24].tolist() == [0.0, 0.0, 5.0]

    def test_fixture_matches_reference_loop(self):
        rows = expand_to_neurons(reference_run(5, 5, 1.0, 0.5, [1, 2, 3, 4, 5], 5), 5)
        expected = np.array(rows[2:5]).T
        assert np.array_equal(table1_fixture(), expected)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected header 'neuron,t3,t4,t5'"),
            ("bogus,header\n", "expected header 'neuron,t3,t4,t5'"),
            ("neuron,t3,t4,t5\n1,0.0,0.0\n", f"line 2: {FIELDS} '1,0.0,0.0'"),
            ("neuron,t3,t4,t5\n1,0,0,0,0\n", f"line 2: {FIELDS} '1,0,0,0,0'"),
            ("neuron,t3,t4,t5\n\n1,0,0,0\n2,x,0,0\n", f"line 4: {FIELDS} '2,x,0,0'"),
            ("neuron,t3,t4,t5\n1.5,0,0,0\n", f"line 2: {FIELDS} '1.5,0,0,0'"),
            ("neuron,t3,t4,t5\n1,0,0,0\n3,0,0,0\n", "line 3: expected neuron 2, got 3"),
            # A row that does not parse is reported before a misnumbered one.
            ("neuron,t3,t4,t5\n2,0,0,0\n1,0,0,y\n", f"line 3: {FIELDS} '1,0,0,y'"),
        ],
        ids=["empty", "header", "short", "long", "bad-float", "bad-int", "numbering", "order"],
    )
    def test_malformed_fixture_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            read_golden_fixture(text)
        assert str(info.value) == message

    def test_misnumbered_neuron_after_blank_lines_names_its_line(self):
        with pytest.raises(ParseError, match="^line 5: expected neuron 2, got 3$"):
            read_golden_fixture("\nneuron,t3,t4,t5\n1,0,0,0\n\n3,0,0,0\n")

    def test_fixture_parsing_skips_blank_lines_and_keeps_shape(self):
        grid = read_golden_fixture("neuron,t3,t4,t5\n\n1,7.5, 5.0,-0.0\n\n")
        assert grid.tolist() == [[7.5, 5.0, -0.0]] and grid.dtype == float
        assert read_golden_fixture("neuron,t3,t4,t5\n").shape == (0, 3)

    def test_malformed_fixture_rejected(self):
        with pytest.raises(ParseError):
            read_golden_fixture("bogus,header\n")
        with pytest.raises(ParseError):
            read_golden_fixture("neuron,t3,t4,t5\n2,0.0,0.0,0.0\n")
        with pytest.raises(ParseError):
            read_golden_fixture("neuron,t3,t4,t5\n1,0.0,0.0\n")
