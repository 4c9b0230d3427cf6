"""Commands whose memory stays bounded run within a fixed address space.

Each case runs ``python -m nestfire`` in a child whose ``RLIMIT_AS`` is set
before it starts. Its cases and their limits:
- a depth-8000 chain firing all at once, one step, in 200 000 KiB: the
  kernel's memory is linear in the depth;
- one pattern of 2 000 000 neurons over 2 steps, in 100 000 KiB: the trace
  streams in writes of a few thousand rows, where a label string per neuron
  would need more than 275 MB;
- a counter of depth 1 000 000, in 100 000 KiB: its levels are a range,
  printed one line at a time;
- a chain of depth 10**7 over one step, in 100 000 KiB: within the row
  budget, but at about 820 bytes a pattern it is refused before it is
  built.
This module imports no numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")  # POSIX only

SRC = Path(__file__).resolve().parent.parent / "src"


def run_limited(args: list[str], kib: int, cwd: Path) -> subprocess.CompletedProcess:
    """``python ARGS`` in ``cwd`` with at most ``kib`` KiB of address space,
    its stdout discarded and its stderr kept."""
    limit = kib * 1024

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, preexec_fn=cap,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def chain(depth: int, size: int, schedule: dict, steps: int) -> dict:
    ensemble = {"depth": depth, "pattern_size": size, "excitatory_unit": 1.0,
                "inhibitory_weight": 0.5, "nesting": "linear"}
    return {"ensemble": ensemble, "schedule": schedule, "steps": steps, "mode": "scheduled"}


SIMULATIONS = {
    "deep-all-at-once": (chain(8000, 1, {"type": "explicit", "steps": [1] * 8000}, 1), 200_000),
    "wide-pattern": (chain(1, 2_000_000, {"type": "staggered", "interval": 1}, 2), 100_000),
}


@pytest.mark.parametrize("scenario, kib", SIMULATIONS.values(), ids=SIMULATIONS)
def test_simulate_fits(tmp_path, scenario, kib):
    (tmp_path / "run.scenario").write_text(json.dumps(scenario))
    args = ["-m", "nestfire", "simulate", "--scenario", "run.scenario", "--out", os.devnull]
    done = run_limited(args, kib, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_counter_fits(tmp_path):
    done = run_limited(["-m", "nestfire", "counter", "--depth", "1000000"], 100_000, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_a_chain_too_deep_to_build_is_refused(tmp_path):
    scenario = chain(10**7, 1, {"type": "staggered", "interval": 1}, 1)
    (tmp_path / "run.scenario").write_text(json.dumps(scenario))
    args = ["-m", "nestfire", "simulate", "--scenario", "run.scenario", "--out", os.devnull]
    done = run_limited(args, 100_000, tmp_path)
    message = "depth x 100 rows per pattern exceeds the budget of 10000000 rows"
    assert (done.returncode, done.stderr) == (2, f"nestfire: error: {message}\n")


def test_the_limit_binds(tmp_path):
    # A child that asks for more than its limit fails, so the cases above
    # pass because the commands fit, not because nothing was limited.
    done = run_limited(["-c", "bytearray(150 * 2**20)"], 100_000, tmp_path)
    assert done.returncode == 1 and "MemoryError" in done.stderr
