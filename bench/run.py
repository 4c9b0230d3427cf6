"""The nestfire benchmark: end-to-end CLI runs and a traced per-layer replay.

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload paper-cli --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload deep-scheduled --seed 1 --seconds 20 --repeat 5

Run from the repository root. With ``--trace 0`` a single client spawns one
``python -m nestfire`` child at a time (a closed loop, no think time) with
``PYTHONPATH=src``, one round of seeded inputs after another, and stops at
the first round boundary after ``--seconds``. Each child is started and
reaped with ``os.wait4`` by the small helper in ``spawner.py``, for its own
wall time and max-RSS, and its output is checked against the independent
reference in ``reference.py``; checking is not timed. ``wall_p50_s`` and
``wall_tail_s`` are percentiles of all invocation times of the run,
``ops_per_s`` is the median over rounds of each round's correct invocations
per second of invocation time, and ``setup_s`` the median time of
``python -m nestfire --version``, probed before the first round and at the
start of every round. Timings are scaled to a reference host speed; see
``CALIBRATION_LOOPS``.

With ``--trace 1`` the first rounds are replayed in process with spans at
the layer boundaries (see ``tracing.py``). ``--repeat K`` runs the end-to-end
benchmark K times on seeds seed..seed+K-1 and prints each metric's spread,
the quartile distance over the median, against its bound in BENCHMARK.json.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from reference import check, load_oracles
from workloads import WORKLOADS, round_inputs, write_round

ROOT = Path(__file__).resolve().parent.parent
# --version probes before the first round, and then at the start of each round.
SETUP_PROBES = 10
SETUP_PROBES_PER_ROUND = 2
# Host speed. On a shared virtual machine of 2 vCPUs the speed this
# benchmark gets drifts by a third and more over minutes, and slows the
# children and a pure-Python loop in the benchmark process alike: in two
# probes of five and ten minutes of one repeated invocation, the quartile
# spread of 30- and 40-s medians was 20-23% in seconds and 2.4-11% as a
# multiple of the loop's median time. Every timing is therefore reported in
# seconds at a reference speed, the speed at which the loop of
# CALIBRATION_LOOPS iterations takes REFERENCE_CALIBRATION_S: measured
# seconds times REFERENCE_CALIBRATION_S over the loop's median time in the
# same run, timed before each child.
CALIBRATION_LOOPS = 100_000
REFERENCE_CALIBRATION_S = 0.010
# The percentile reported as wall_tail_s, fixed per workload so that runs of
# different lengths report the same point of the distribution; at this commit
# a run of BENCHMARK.json's length leaves at least ten samples beyond it.
TAIL_PERCENTILE = {"paper-cli": 90, "deep-scheduled": 75, "deep-freerun": 60, "wide-trace": 75}
# Rounds the traced replay runs: a fixed amount of work, so layer totals
# compare across commits.
TRACE_ROUNDS = {"paper-cli": 10, "deep-scheduled": 1, "deep-freerun": 1, "wide-trace": 1}
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="K", help="run K seeds and report spreads")
    args = parser.parse_args()
    missing = [p for p in ("src/nestfire/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a nestfire checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, args.repeat)

    print("provenance " + json.dumps(provenance()))
    oracles = load_oracles(ROOT)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work, prefix=f"{args.workload}-") as tmp:
        if args.trace:
            result = traced(args.workload, args.seed, Path(tmp), oracles, work)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, Path(tmp), oracles)
    print(json.dumps(result))
    return 0


def provenance() -> dict:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or None,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)


class Spawner:
    """The helper in ``spawner.py``, which starts and reaps every child of a
    run from a small process so that wait4 reports each child's own max-RSS.
    Use it in a ``with`` block: leaving the block ends the helper and waits
    for it."""

    def __init__(self, env: dict, workdir: Path) -> None:
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=workdir,
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn(spawner: Spawner, args) -> tuple[float, float, int, bytes, bytes]:
    """Run ``python -m nestfire *args`` to exit; returns its wall time, its
    own max-RSS in MB, exit code, stdout and stderr."""
    out_path, err_path = spawner.workdir / "child.stdout", spawner.workdir / "child.stderr"
    request = {"argv": [sys.executable, "-m", "nestfire", *args], "stdout": out_path.name, "stderr": err_path.name}
    spawner.proc.stdin.write(json.dumps(request) + "\n")
    spawner.proc.stdin.flush()
    line = spawner.proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the spawner exited with code {spawner.proc.wait()}")
    reply = json.loads(line)
    code = os.waitstatus_to_exitcode(reply["status"])
    return reply["wall"], reply["maxrss_kb"] * 1024 / 1e6, code, out_path.read_bytes(), err_path.read_bytes()


def execute(inv, spawner: Spawner, oracles) -> tuple[float, float, str | None]:
    """Spawn one invocation and check it: wall time, max-RSS, failure reason."""
    wall, rss, code, stdout, stderr = spawn(spawner, inv.args)
    trace = None
    if inv.out:
        out = spawner.workdir / inv.out
        trace = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
    return wall, rss, check(inv.expect, code, stdout, stderr, trace, oracles)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, oracles) -> dict:
    with Spawner(child_env(), workdir) as spawner:
        return measure(workload, seed, seconds, spawner, oracles)


def calibrate() -> float:
    """Time the fixed pure-Python loop that probes the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def measure(workload: str, seed: int, seconds: float, spawner: Spawner, oracles) -> dict:
    first = round_inputs(workload, seed, 0)
    write_round(first, spawner.workdir)
    # Untimed warm-up: writes the bytecode cache before anything is timed.
    reason = execute(first[0], spawner, oracles)[2]
    setup_failures = [f"warm-up {first[0].name}: {reason}"] if reason else []
    setup, loop = [], []

    def probe_setup() -> None:
        loop.append(calibrate())
        wall, _, code, stdout, _ = spawn(spawner, ["--version"])
        setup.append(wall)
        if code != 0 or not stdout.startswith(b"nestfire "):
            setup_failures.append(f"--version exited {code} printing {stdout[:40]!r}")

    for _ in range(SETUP_PROBES):
        probe_setup()
    walls, rss, failures, throughput = [], [], [], []
    started = perf_counter()
    index = 0
    while True:
        invocations = first if index == 0 else round_inputs(workload, seed, index)
        if index:
            write_round(invocations, spawner.workdir)
        for _ in range(SETUP_PROBES_PER_ROUND):  # set-up is sampled across the run too
            probe_setup()
        round_walls, round_failed = [], 0
        for inv in invocations:
            loop.append(calibrate())
            wall, peak, reason = execute(inv, spawner, oracles)
            round_walls.append(wall)
            rss.append(peak)
            if reason is not None:
                round_failed += 1
                failures.append(f"{inv.name} {' '.join(inv.args)}: {reason}")
        walls += round_walls
        throughput.append((len(round_walls) - round_failed) / sum(round_walls))
        index += 1
        if perf_counter() - started >= seconds:
            break

    for line in setup_failures + failures:
        print(f"FAILED {line}")
    percentile = TAIL_PERCENTILE[workload]
    rank = math.ceil(percentile / 100 * len(walls))
    measured = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": sorted(walls)[rank - 1],
        "ops_per_s": statistics.median(throughput),
        "setup_s": statistics.median(setup),
    }
    scale = REFERENCE_CALIBRATION_S / statistics.median(loop)
    metrics = {
        "wall_p50_s": (measured["wall_p50_s"] * scale, "s"),
        "wall_tail_s": (measured["wall_tail_s"] * scale, "s"),
        "ops_per_s": (measured["ops_per_s"] / scale, "1/s"),
        "setup_s": (measured["setup_s"] * scale, "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    print(f"host speed: calibration loop median {statistics.median(loop):.6f} s over {len(loop)} probes,"
          f" timings scaled by {scale:.4f} to the {REFERENCE_CALIBRATION_S} s reference")
    for name, (value, unit) in metrics.items():
        note = f"  (p{percentile}, {len(walls) - rank} of {len(walls)} samples beyond)" if name == "wall_tail_s" else ""
        raw = f"  measured {measured[name]:.6f}" if name in measured else ""
        print(f"{name:<14} {value:12.6f} {unit}{raw}{note}")
    print(f"rounds {index}, invocations {len(walls)}, failed_frac {len(failures) / len(walls):g}")
    return {
        "correct": not failures and not setup_failures,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced(workload: str, seed: int, workdir: Path, oracles, work: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import nestfire.cli
    from tracing import replay

    invocations = []
    for index in range(TRACE_ROUNDS[workload]):
        batch = round_inputs(workload, seed, index)
        write_round(batch, workdir)
        invocations += batch
    spans = work / f"spans-{workload}-{seed}.jsonl"
    layers = replay(nestfire, invocations, workdir, oracles, spans)
    failed = layers.pop("failed")
    units = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_calls": "count"}
    metrics = {}
    for name, value in layers.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<28} {value:14.6f} {unit}")
    dispatch = layers["cli.dispatch_s"]
    print(
        f"of cli.dispatch_s: topology.query_s {layers['topology.query_s'] / dispatch:.1%},"
        f" dynamics.self_s {layers['dynamics.self_s'] / dispatch:.1%}; spans in {spans}"
    )
    return {"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": metrics}


def repeat(workload: str, seed: int, seconds: float, times: int) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for k in range(times):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed + k),
                "--seconds", str(seconds), "--trace", "0"]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(lines[-1])
        print(next(line for line in lines if line.startswith("host speed")))
        print(f"seed {seed + k}: correct={result['correct']} " + " ".join(
            f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:<14} median {median:.6f} spread {spread:.3%} bound {bounds[name]:.0%} ({share:.2f} of bound)")
    print(json.dumps({"workload": workload, "runs": times, "worst_share_of_bound": worst}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
