"""Command-line behavior: output formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import nestfire
from nestfire import ValidationError, cli, table1_fixture, topology
from nestfire.cli import dispatch

# The environment of a child whose stdout is block-buffered, as on a terminal
# or a CI runner, even where the tests themselves run unbuffered.
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
TABLE1 = str(resources.files("nestfire") / "data" / "table1.scenario")

HUGE = -int("9" * 401)  # a 401-digit number: no message may print it
SHORT = "-(over 9 digits)"  # what messages print instead


def write_scenario_file(path, depth, size, steps, unit=1.0, mode="scheduled"):
    """A staggered linear-chain scenario document at ``path``."""
    ensemble = {
        "depth": depth,
        "pattern_size": size,
        "excitatory_unit": unit,
        "inhibitory_weight": 0.5,
        "nesting": "linear",
    }
    doc = {
        "ensemble": ensemble,
        "schedule": {"type": "staggered", "interval": 1},
        "steps": steps,
        "mode": mode,
    }
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def scenario_file(tmp_path):
    text = (resources.files("nestfire") / "data" / "table1.scenario").read_text()
    path = tmp_path / "table1.scenario"
    path.write_text(text)
    return path


class TestVerifyTable1:
    def test_passes_and_exits_zero(self, capsys):
        assert dispatch(["verify-table1"]) == 0
        out = capsys.readouterr().out
        assert out == "pass max_abs_error=0\n"

    def test_impossible_tolerance_fails_loudly(self, capsys):
        # tolerance below zero is invalid input, not a verification failure
        assert dispatch(["verify-table1", "--tolerance", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["nan", "inf"])
    def test_non_finite_tolerance_is_invalid_input(self, capsys, literal):
        assert dispatch(["verify-table1", "--tolerance", literal]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error:") and "tolerance" in err
        assert err.count("\n") == 1

    def test_never_exits_zero_on_mismatch(self, capsys, monkeypatch):
        from nestfire import readback

        poked = table1_fixture()
        poked[0][0] += 1.0
        monkeypatch.setattr(readback, "table1_fixture", lambda: poked)
        assert dispatch(["verify-table1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fail max_abs_error=1 mismatches=1\n")
        assert "mismatch neuron=1 t=3" in out


class TestSimulate:
    def test_writes_trace_to_stdout(self, capsys, scenario_file):
        assert dispatch(["simulate", "--scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "step,neuron,pattern,strength"
        assert len(lines) == 1 + 5 * 25
        assert "3,1,1,7.5" in lines

    def test_consecutive_runs_byte_identical(self, tmp_path, scenario_file):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(first)]) == 0
        assert dispatch(["simulate", "--scenario", str(scenario_file), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_missing_file_is_invalid_input(self, capsys, tmp_path):
        assert dispatch(["simulate", "--scenario", str(tmp_path / "nope.scenario")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--out", ""], ["--out="]], ids=["spaced", "equals"])
    def test_empty_out_path_is_invalid_input(self, capsys, scenario_file, flag):
        # An empty path names no file, as with --scenario; it does not mean stdout.
        assert dispatch(["simulate", "--scenario", str(scenario_file), *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error:") and err.endswith(": ''\n")
        assert err.count("\n") == 1

    def test_bad_scenario_is_invalid_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text('{"ensemble": {}}')
        assert dispatch(["simulate", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nestfire: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "1e308", pytest.param("1" + "0" * 400, id="int-beyond-float")],
    )
    def test_non_finite_parameter_is_invalid_input(self, capsys, tmp_path, scenario_file, literal):
        bad = tmp_path / "bad.scenario"
        bad.write_text(scenario_file.read_text().replace("1.0", literal))
        assert dispatch(["simulate", "--scenario", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error:") and "excitatory_unit" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "depth, size, steps, unit, mode",
        [
            (5, 5, 0, 1.0, "scheduled"),
            (5, 5, 5, 1.0, "sideways"),
            (2, 2, 3, 1e308, "scheduled"),
            (5, 10**12, 1, 1.0, "scheduled"),
        ],
        ids=["zero-steps", "unknown-mode", "overflow", "over-budget"],
    )
    def test_failed_run_leaves_no_out_file(self, capsys, tmp_path, depth, size, steps, unit, mode):
        scenario = write_scenario_file(tmp_path / "bad.scenario", depth, size, steps, unit, mode)
        out = tmp_path / "trace.csv"
        assert dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("nestfire: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "depth, size, steps",
        [(5, 10**12, 1), (10**9, 1, 1), (5, 5, 10**9), (1, 1, topology.MAX_ROWS + 1)],
        ids=["wide", "deep", "long", "one-row-over"],
    )
    def test_oversized_scenario_is_refused_before_it_is_built(
        self, capsys, tmp_path, depth, size, steps
    ):
        # Each of these would allocate gigabytes at least; refused, they allocate nothing.
        scenario = write_scenario_file(tmp_path / "big.scenario", depth, size, steps)
        assert dispatch(["simulate", "--scenario", str(scenario)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"nestfire: error: steps x depth x pattern_size exceeds the budget of"
            f" {topology.MAX_ROWS} rows\n"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("pattern_size", HUGE, f"depth and size must be >= 1, got depth=5 size={SHORT}"),
            ("depth", HUGE, f"depth and size must be >= 1, got depth={SHORT} size=5"),
            ("steps", HUGE, f"steps must be >= 1, got {SHORT}"),
            ("interval", HUGE, f"interval must be >= 1, got {SHORT}"),
            (
                "explicit",
                [1, HUGE, 3, 4, 5],
                f"activation step for pattern 1 must be >= 1, got {SHORT}",
            ),
        ],
        ids=["pattern_size", "depth", "steps", "interval", "explicit"],
    )
    def test_huge_number_is_not_printed(self, capsys, tmp_path, scenario_file, key, value, message):
        doc = json.loads(scenario_file.read_text())
        if key == "explicit":
            doc["schedule"] = {"type": "explicit", "steps": value}
        elif key == "interval":
            doc["schedule"] = {"type": "staggered", "interval": value}
        else:
            (doc["ensemble"] if key in doc["ensemble"] else doc)[key] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(doc))
        assert dispatch(["simulate", "--scenario", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"nestfire: error: {message}\n"

    def test_closed_stdout_stays_quiet(self, tmp_path):
        # 50 000 rows, far more than a pipe buffers: the reader leaves while
        # the writer still has most of the trace to send.
        scenario = write_scenario_file(tmp_path / "wide.scenario", 5, 1000, 10)
        child = subprocess.Popen(
            [sys.executable, "-m", "nestfire", "simulate", "--scenario", str(scenario)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.readline() == b"step,neuron,pattern,strength\n"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 0
        assert err == b""

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, scenario_file):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "run", exhausted)
        assert dispatch(["simulate", "--scenario", str(scenario_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "nestfire: error: out of memory: the input is too large for this process\n"

    def test_non_utf8_scenario_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.scenario"
        path.write_bytes(b'{"mode": "caf\xe9"}')
        assert dispatch(["simulate", "--scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error:") and err.count("\n") == 1


class TestCounter:
    def test_depth_three_output(self, capsys):
        assert dispatch(["counter", "--depth", "3"]) == 0
        assert capsys.readouterr().out == (
            "count level=1 tick=1\n"
            "count level=2 tick=2\n"
            "count level=3 tick=3\n"
            "quiescent tick=5\n"
        )

    def test_zero_depth_rejected(self, capsys):
        assert dispatch(["counter", "--depth", "0"]) == 2
        assert "depth" in capsys.readouterr().err

    def test_depth_over_budget_refused(self, capsys):
        depth = topology.MAX_ROWS + 1
        assert dispatch(["counter", "--depth", str(depth)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"nestfire: error: counter depth exceeds the budget of {depth - 1} rows\n"

    def test_huge_depth_is_not_printed(self, capsys):
        assert dispatch(["counter", "--depth", str(HUGE)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"nestfire: error: counter depth must be >= 1, got {SHORT}\n"


class TestChain:
    def test_product_and_oracle_agree(self, capsys):
        assert dispatch(["chain", "--hops", "2,2"]) == 0
        assert capsys.readouterr().out == "product=4 oracle=4\n"

    def test_longer_chain(self, capsys):
        assert dispatch(["chain", "--hops", "3,2,2"]) == 0
        assert capsys.readouterr().out == "product=12 oracle=12\n"

    def test_garbage_hops_rejected(self, capsys):
        assert dispatch(["chain", "--hops", "2,x"]) == 2
        assert "integers" in capsys.readouterr().err

    def test_zero_weight_rejected(self, capsys):
        assert dispatch(["chain", "--hops", "2,0"]) == 2
        capsys.readouterr()

    def test_a_million_firings_still_replayed(self, capsys):
        assert dispatch(["chain", "--hops", "1000,1000"]) == 0
        assert capsys.readouterr().out == "product=1000000 oracle=1000000\n"

    def test_unbounded_replay_refused(self, capsys):
        # 10**9 source firings: refused before the replay starts
        assert dispatch(["chain", "--hops", "1000,1000,1000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error:") and "source firings" in err
        assert err.count("\n") == 1

    def test_weight_beyond_float_range_is_one_error_line(self, capsys):
        assert dispatch(["chain", "--hops", "1" + "0" * 400]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "nestfire: error: a weight is beyond the range of a float\n")

    def test_product_too_long_to_print_names_the_flag(self, capsys):
        # 1000**1500 has 4501 digits, over the 4300 Python converts to text by default.
        assert dispatch(["chain", "--hops", ",".join(["1000"] * 1500)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error: --hops ") and "digits" in err
        assert err.count("\n") == 1


class TestCenter:
    def test_reference_line(self, capsys):
        assert dispatch(["center", "--weights", "5,2,2,2,10,10"]) == 0
        assert capsys.readouterr().out == (
            "costs=4000,805,410,220,140,410,4000\nbest=5\n"
        )

    def test_single_hop(self, capsys):
        assert dispatch(["center", "--weights", "7"]) == 0
        assert capsys.readouterr().out == "costs=7,7\nbest=1\n"

    @pytest.mark.parametrize(
        "weights",
        [["3"] * 10_000, ["1", "9" * 4300]],
        ids=["long-product", "cost-one-digit-longer-than-the-product"],
    )
    def test_cost_too_long_to_print_names_the_flag(self, capsys, weights):
        # 3**10000 has 4772 digits; 1 + (10**4300 - 1) has 4301.
        assert dispatch(["center", "--weights", ",".join(weights)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error: --weights ") and "digits" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "weights",
        ["0," + "9" * 60, "-" + "9" * 60, "9" * 60 + ",x"],
        ids=["zero-beside-60-digits", "negative-60-digits", "60-digits-then-junk"],
    )
    def test_bad_weight_is_one_short_error_line(self, capsys, weights):
        assert dispatch(["center", "--weights", weights]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("nestfire: error: ") and err.count("\n") == 1
        assert len(err) < 120 and "9" * 21 not in err, err


class TestLayout:
    def test_header_and_counts(self, capsys):
        assert dispatch(["layout", "--trials", "50", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "seed=7 trials=50"
        assert lines[1] == "pass=50 fail=0"

    def test_default_seed_in_header(self, capsys):
        assert dispatch(["layout", "--trials", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "seed=12345 trials=3"

    def test_never_exits_zero_on_failed_trials(self, capsys, monkeypatch):
        # No drawn layout fails (its terminal is its node of largest x), so fake the distances.
        monkeypatch.setattr(cli, "layout_distances", lambda layout: (2.0, 1.0))
        assert dispatch(["layout", "--trials", "3", "--seed", "1"]) == 1
        assert capsys.readouterr().out == "seed=1 trials=3\npass=0 fail=3\n"

    def test_identical_invocations_identical_output(self, capsys):
        dispatch(["layout", "--trials", "20", "--seed", "99"])
        first = capsys.readouterr().out
        dispatch(["layout", "--trials", "20", "--seed", "99"])
        assert capsys.readouterr().out == first

    def test_zero_trials_rejected(self, capsys):
        assert dispatch(["layout", "--trials", "0"]) == 2
        capsys.readouterr()

    # Each is refused before anything is printed or any trial runs.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--seed", str(HUGE)], f"--seed must be >= 0, got {SHORT}"),
            (["--trials", str(HUGE)], f"--trials must be >= 1, got {SHORT}"),
            (["--trials", "9" * 30], "--trials exceeds the budget of 10000000 rows"),
            (["--trials", str(topology.MAX_ROWS + 1)], "--trials exceeds the budget"),
        ],
        ids=["negative-seed", "huge-seed", "huge-negative-trials", "huge-trials", "one-over"],
    )
    def test_bad_flag_refused_by_name(self, capsys, args, message):
        assert dispatch(["layout", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"nestfire: error: {message}")


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli._parse_ints("2,x", "--hops"),
        lambda: cli._cmd_layout(argparse.Namespace(trials=0, seed=1)),
        lambda: cli._cmd_layout(argparse.Namespace(trials=1, seed=-1)),
    ],
    ids=["integer-list", "trials", "seed"],
)
def test_argument_errors_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


COUNTED_TO_3 = "count level=1 tick=1\ncount level=2 tick=2\ncount level=3 tick=3\nquiescent tick=5\n"
COMMANDS = ["simulate", "verify-table1", "counter", "chain", "center", "layout"]
CHOOSE = "choose one of " + ", ".join(COMMANDS)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["transmogrify"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1

    def test_missing_required_flag(self, capsys):
        assert dispatch(["counter"]) == 2
        assert capsys.readouterr().err == "nestfire: error: counter requires --depth\n"

    # Exit 0 with the counter's output, or exit 2 with exactly this one line.
    @pytest.mark.parametrize(
        "argv, code, text",
        [
            ([], 2, f"no command; {CHOOSE}"),
            (["transmogrify"], 2, f"unknown command 'transmogrify'; {CHOOSE}"),
            (["--depth", "3"], 2, f"unknown command '--depth'; {CHOOSE}"),
            (["counter", "--width", "3"], 2, "unknown flag '--width' for counter; choose --depth"),
            (["counter", "3"], 2, "unknown flag '3' for counter; choose --depth"),
            (["counter", "-d", "3"], 2, "unknown flag '-d' for counter; choose --depth"),
            (["counter", "--depth"], 2, "--depth expects a value"),
            (["counter", "--depth", "--depth", "3"], 2, "--depth expects a value"),
            (["simulate", "--out", "trace.csv"], 2, "simulate requires --scenario"),
            (["counter", "--depth", "three"], 2, "--depth: invalid int 'three'"),
            (["counter", "--depth", "3.0"], 2, "--depth: invalid int '3.0'"),
            (["verify-table1", "--tolerance", "tight"], 2, "--tolerance: invalid float 'tight'"),
            (["counter", "--depth", str(HUGE)], 2, f"counter depth must be >= 1, got {SHORT}"),
            (
                ["counter", "--depth", "1" + "0" * 400],
                2,
                f"counter depth exceeds the budget of {topology.MAX_ROWS} rows",
            ),
            (
                ["counter", "--depth", "9" * 400 + "x"],
                2,
                f"--depth: invalid int '{'9' * 20}'... (401 characters)",
            ),
            (["chain", "--h", "2,2"], 2, "ambiguous flag '--h' for chain; choose --hops, --help"),
            (["counter", "--depth=3"], 0, COUNTED_TO_3),
            (["counter", "--dep", "3"], 0, COUNTED_TO_3),
            (["counter", "--d=3"], 0, COUNTED_TO_3),
            (["counter", "--depth", "x", "--depth", "3"], 2, "--depth: invalid int 'x'"),
            (["counter", "--depth", "7", "--depth", "3"], 0, COUNTED_TO_3),
            (["counter", "--depth=7", "--de", "3"], 0, COUNTED_TO_3),
        ],
        ids=[
            "no-command",
            "unknown-command",
            "flag-before-command",
            "unknown-flag",
            "stray-value",
            "short-flag",
            "missing-value",
            "flag-as-value",
            "missing-required-flag",
            "bad-int",
            "float-for-int",
            "bad-float",
            "huge-negative-depth",
            "huge-depth",
            "huge-bad-depth",
            "ambiguous-prefix",
            "equals",
            "prefix",
            "prefix-equals",
            "bad-then-good",
            "repeated",
            "repeated-mixed",
        ],
    )
    def test_flag_syntax(self, capsys, argv, code, text):
        assert dispatch(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", f"nestfire: error: {text}\n")
        else:
            assert (out, err) == (text, "")

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["counter", "-h"], ["layout", "--trials", "x", "--help"], ["chain", "--he"]],
        ids=["h", "help", "after-command", "after-bad-value", "prefix"],
    )
    def test_help_lists_every_command(self, capsys, argv):
        assert dispatch(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("usage: nestfire ")
        listed = [line.split()[0] for line in out.splitlines() if line[:2] == "  " != line[2:4]]
        assert listed == COMMANDS
        assert "  counter --depth INT\n" in out and "  layout [--trials INT] [--seed INT]\n" in out
        exits = "Exit codes: 0 success or pass, 1 failed check, 2 invalid input or out of memory.\n"
        assert out.endswith(exits)

    @pytest.mark.parametrize("argv", [["--version"], ["counter", "--version"], ["layout", "--vers"]])
    def test_version_anywhere(self, capsys, argv):
        assert dispatch(argv) == 0
        assert capsys.readouterr() == (f"nestfire {nestfire.__version__}\n", "")


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "nestfire", "verify-table1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "pass max_abs_error=0\n"

    @pytest.mark.parametrize(
        "args, code",
        [(["counter"], 2), (["--help"], 0), (["counter", "-h"], 0)],
        ids=["usage-error", "help", "help-after-command"],
    )
    def test_usage_through_the_module(self, args, code):
        result = subprocess.run(
            [sys.executable, "-m", "nestfire", *args], capture_output=True, text=True
        )
        assert result.returncode == code
        if code:
            assert (result.stdout, result.stderr) == ("", "nestfire: error: counter requires --depth\n")
        else:
            assert result.stderr == "" and result.stdout.startswith("usage: nestfire ")

    @pytest.mark.parametrize(
        "args",
        [["--help"], ["--version"], ["counter", "--depth", "3"]],
        ids=["help", "version", "counter"],
    )
    def test_reader_gone_before_any_output_is_quiet(self, args):
        child = subprocess.Popen(
            [sys.executable, "-m", "nestfire", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        child.stdout.close()  # long before the child writes its first line
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(), err) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args",
        [["--version"], ["--help"], ["counter", "--depth", "3"], ["layout", "--trials", "2"],
         ["simulate", "--scenario", TABLE1]],
        ids=["version", "help", "counter", "layout", "simulate"],
    )
    def test_full_stdout_is_one_error_line(self, args):
        # The buffered output fails once in dispatch, which reports it; main
        # drops it, so the flush at shutdown does not fail on it again.
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "nestfire", *args],
                stdout=full, stderr=subprocess.PIPE, env=BUFFERED, text=True,
            )
        assert result.returncode == 2
        assert result.stderr.startswith("nestfire: error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["counter", "simulate"])
    def test_pipe_closed_after_first_line_is_quiet(self, tmp_path, command):
        # Each writes far more than a pipe holds, through a buffered stdout.
        wide = write_scenario_file(tmp_path / "wide.scenario", 5, 1000, 10)
        flags = {"counter": ["--depth", "20000"], "simulate": ["--scenario", str(wide)]}[command]
        child = subprocess.Popen(
            [sys.executable, "-m", "nestfire", command, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED,
        )
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(), err) == (0, b"")

    def test_scenario_is_utf8_in_any_locale(self, tmp_path, scenario_file):
        doc = json.loads(scenario_file.read_text())
        doc["ensemblé"] = 1
        path = tmp_path / "accented.scenario"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        ascii_locale = dict(BUFFERED, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0")
        result = subprocess.run(
            [sys.executable, "-m", "nestfire", "simulate", "--scenario", str(path)],
            capture_output=True, env=ascii_locale,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        # An ASCII stderr escapes the key's last letter.
        assert result.stderr in (
            "nestfire: error: unknown key 'ensemblé'\n".encode(),
            b"nestfire: error: unknown key 'ensembl\\xe9'\n",
        )

    @pytest.mark.parametrize(
        "args",
        [["--version"], ["verify-table1"], ["simulate", "--scenario", TABLE1, "--out", "trace.csv"],
         ["simulate", "--scenario", TABLE1], ["counter", "--depth", "3"], ["chain", "--hops", "2,2"],
         ["center", "--weights", "5,2,2"], ["layout", "--trials", "2"]],
        ids=["version", "verify-table1", "simulate-out", "simulate-head", "counter", "chain",
             "center", "layout"],
    )
    def test_commands_are_quiet_in_dev_mode(self, tmp_path, args):
        # -X dev shows a file left unclosed and an error ignored at shutdown.
        args = [str(tmp_path / arg) if arg == "trace.csv" else arg for arg in args]
        child = subprocess.Popen(
            [sys.executable, "-X", "dev", "-m", "nestfire", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED,
        )
        if args[-1] == TABLE1:  # like ``| head -n 2``
            lines = [child.stdout.readline(), child.stdout.readline()]
            child.stdout.close()
            out, err = b"".join(lines), child.stderr.read()
            child.stderr.close()
        else:
            out, err = child.communicate()
        assert (child.wait(), err) == (0, b"")
        assert out or (tmp_path / "trace.csv").stat().st_size

    def test_unit_beyond_float_range_exits_2_without_a_traceback(self, tmp_path, scenario_file):
        bad = tmp_path / "bad.scenario"
        bad.write_text(scenario_file.read_text().replace("1.0", "1" + "0" * 400))
        result = subprocess.run(
            [sys.executable, "-m", "nestfire", "simulate", "--scenario", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "nestfire: error: ensemble.excitatory_unit is beyond the range of a float\n"
        )
