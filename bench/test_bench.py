"""Tests of the benchmark itself: seeded inputs, the independent checker,
failure accounting, the spawner and the tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracing
from reference import GOLDEN_TOLERANCE, check, load_oracles, pattern_run, trace_csv
from workloads import WORKLOADS, round_inputs, simulate, write_round

sys.path.insert(0, str(run.ROOT / "src"))
import nestfire.cli  # noqa: E402


@pytest.fixture(scope="module")
def oracles():
    return load_oracles(run.ROOT)


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    for index in range(2):
        write_round(round_inputs(workload, 7, index), tmp_path / "a")
        write_round(round_inputs(workload, 7, index), tmp_path / "b")
        write_round(round_inputs(workload, 8, index), tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_golden_tolerance_is_the_librarys():
    assert GOLDEN_TOLERANCE == nestfire.scenario.GOLDEN_TOLERANCE


@pytest.mark.parametrize("mode", ["scheduled", "free_run"])
@pytest.mark.parametrize("delta", [0.25, 0.3, 0.5])
def test_reference_trace_is_byte_identical_to_the_library(mode, delta):
    schedule = {"type": "explicit", "steps": [1, 2, 2, 5, 4, 7, 3]}
    inv = simulate("x", 7, 3, 1.0, delta, schedule, 12, mode)
    e = inv.expect
    ensemble, sched, steps, parsed_mode = nestfire.scenario.parse_scenario(inv.scenario)
    library = nestfire.scenario.write_trace(nestfire.run(ensemble, sched, steps, parsed_mode))
    rows = pattern_run(e["depth"], e["size"], e["unit"], e["delta"], e["activation"], e["steps"], mode)
    assert trace_csv(rows, e["size"]) == library.encode()


def test_checker_rejects_a_changed_digit(oracles):
    inv = simulate("x", 5, 5, 1.0, 0.5, {"type": "staggered", "interval": 1}, 5, "scheduled")
    e = inv.expect
    good = trace_csv(pattern_run(*(e[k] for k in ("depth", "size", "unit", "delta", "activation", "steps", "mode"))), 5)
    assert check(e, 0, b"", b"", good, oracles) is None
    bad = good.replace(b",7.5\n", b",7.4\n", 1)
    assert bad != good
    assert check(e, 0, b"", b"", bad, oracles) == "trace differs from the reference"
    assert check(e, 1, b"", b"", good, oracles) == "exit code 1"
    assert check(e, 0, b"", b"Traceback (most recent call last):", good, oracles) is not None


def _corrupting_spawn(monkeypatch, target: str):
    """Make the output of the first timed `target` invocation wrong after it
    exits; the first spawn of a run is the untimed warm-up."""
    real = run.spawn
    calls, corrupted = [], []

    def spawn(spawner, args):
        wall, rss, code, stdout, stderr = real(spawner, args)
        calls.append(args)
        if len(calls) > 1 and args[0] == target and not corrupted:
            corrupted.append(args)
            if "--out" in args:
                out = spawner.workdir / args[args.index("--out") + 1]
                out.write_bytes(out.read_bytes()[:-1] + b"0\n")
            else:
                stdout = stdout[:-1] + b"0\n"
        return wall, rss, code, stdout, stderr

    monkeypatch.setattr(run, "spawn", spawn)
    return corrupted


@pytest.mark.parametrize("target", ["simulate", "counter"])
def test_one_corrupted_output_raises_failed_frac(target, monkeypatch, tmp_path, oracles, capsys):
    corrupted = _corrupting_spawn(monkeypatch, target)
    result = run.end_to_end("paper-cli", 3, 0.0, tmp_path, oracles)
    assert len(corrupted) == 1
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False
    assert "FAILED" in capsys.readouterr().out


def test_clean_run_has_no_failures(tmp_path, oracles):
    result = run.end_to_end("paper-cli", 4, 0.0, tmp_path, oracles)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(round_inputs("paper-cli", 4, 0))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_child_max_rss_excludes_the_benchmark_process(tmp_path):
    ballast = b"\1" * 150_000_000  # resident here, never in a child
    with run.Spawner(run.child_env(), tmp_path) as spawner:
        wall, rss, code, stdout, _ = run.spawn(spawner, ["--version"])
    assert code == 0 and stdout.startswith(b"nestfire ") and wall > 0
    assert rss < 100, rss
    assert spawner.proc.returncode == 0
    del ballast


@pytest.mark.parametrize("deep", ["deep-scheduled", "wide-trace"])
def test_explicit_schedules_are_shuffled_staggered_steps(deep):
    for inv in round_inputs(deep, 11, 0):
        schedule = json.loads(inv.scenario)["schedule"]
        if schedule["type"] == "explicit":
            steps = schedule["steps"]
            interval = 1 if 2 in steps else 2
            assert sorted(steps) == [1 + k * interval for k in range(len(steps))]
            assert all(abs(t - (1 + k * interval)) < 4 * interval for k, t in enumerate(steps))


def test_traced_replay_records_every_layer_and_restores_the_library(tmp_path, oracles):
    originals = (nestfire.cli.run, nestfire.dynamics.members, nestfire.topology.EnsembleSpec.offset)
    invocations = round_inputs("paper-cli", 5, 0)
    write_round(invocations, tmp_path)
    layers = tracing.replay(nestfire, invocations, tmp_path, oracles, tmp_path / "spans.jsonl")
    assert layers.pop("failed") == 0
    for name in ("cli.dispatch_s", "scenario.parse_s", "scenario.write_trace_s", "topology.build_s",
                 "topology.query_s", "dynamics.run_s", "counter.run_s", "energy.event_oracle_s",
                 "energy.best_center_s", "energy.layout_s", "scenario.compare_golden_s"):
        assert layers[name] > 0, name
    assert layers["topology.query_calls"] > 0
    assert 0 < layers["cli.self_s"] < layers["cli.dispatch_s"]
    assert 0 < layers["dynamics.self_s"] < layers["dynamics.run_s"]
    assert (nestfire.cli.run, nestfire.dynamics.members, nestfire.topology.EnsembleSpec.offset) == originals
    assert (tmp_path / "spans.jsonl").read_text().count("\n") > len(invocations)
