"""Command-line front door. Deterministic, scriptable output: results on
stdout, diagnostics on stderr. Exit codes: 0 success/pass, 1 verification
or property failure, 2 invalid input."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counter import CounterSpec, run_counter
from .dynamics import run
from .energy import (
    WeightChain,
    best_center,
    centering_cost,
    chain_source_firings,
    event_oracle,
    hops_from_weights,
    layout_distances,
    random_mirrored_layout,
)
from .errors import NestfireError, ValidationError
from .scenario import (
    GOLDEN_TOLERANCE,
    compare_golden,
    parse_scenario,
    standard_scenario,
    table1_fixture,
    write_trace,
)

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line diagnostic on usage errors."""

    def error(self, message: str) -> None:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nestfire", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nestfire {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and emit its trace")
    p.add_argument("--scenario", required=True, metavar="FILE", help="scenario document")
    p.add_argument("--out", metavar="FILE", help="trace destination (default: stdout)")

    p = sub.add_parser("verify-table1", help="check the built-in run against the shipped fixture")
    p.add_argument("--tolerance", type=float, default=GOLDEN_TOLERANCE)

    p = sub.add_parser("counter", help="run a nested counter and print its count events")
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("chain", help="source firings for a weighted chain, two ways")
    p.add_argument("--hops", required=True, metavar="W1,W2,...", help="per-hop firing counts")

    p = sub.add_parser("center", help="centering costs along a weighted line")
    p.add_argument("--weights", required=True, metavar="W1,W2,...", help="per-hop firing counts")

    p = sub.add_parser("layout", help="inward vs outward distances over random facing layouts")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NestfireError, OSError, ValueError) as exc:
        # ValueError too: a scenario file that is not UTF-8 raises UnicodeDecodeError.
        print(f"nestfire: error: {exc}", file=sys.stderr)
        return 2


def _cmd_simulate(args) -> int:
    trace = run(*parse_scenario(Path(args.scenario).read_text()))
    # The trace streams to its destination, which is opened only once the run has succeeded.
    if args.out:
        with open(args.out, "w") as out:
            write_trace(trace, out)
        return 0
    try:
        write_trace(trace, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``): stop quietly. Point stdout at
        # devnull so that the flush at exit does not fail on the same pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_verify_table1(args) -> int:
    trace = run(*standard_scenario())
    report = compare_golden(trace, table1_fixture(), args.tolerance)
    if report.passed:
        print(f"pass max_abs_error={report.max_abs_error:g}")
        return 0
    print(f"fail max_abs_error={report.max_abs_error:g} mismatches={len(report.mismatches)}")
    for neuron, t, expected, actual in report.mismatches:
        print(f"mismatch neuron={neuron} t={t} expected={expected!r} actual={actual!r}")
    return 1


def _cmd_counter(args) -> int:
    events, final = run_counter(CounterSpec(depth=args.depth))
    for event in events:
        print(f"count level={event.level} tick={event.tick}")
    print(f"quiescent tick={final.tick}")
    return 0


def _cmd_chain(args) -> int:
    chain = WeightChain(_parse_ints(args.hops, "--hops"))
    product = _printable(chain_source_firings(chain), "--hops")
    oracle = event_oracle(hops_from_weights(chain))
    print(f"product={product} oracle={oracle}")
    return 0 if product == oracle else 1


def _cmd_center(args) -> int:
    chain = WeightChain(_parse_ints(args.weights, "--weights"))
    costs = [centering_cost(chain, pos) for pos in range(chain.num_positions)]
    _printable(max(costs), "--weights")
    best = best_center(chain)
    print("costs=" + ",".join(str(c) for c in costs))
    print(f"best={best + 1}")
    return 0


def _cmd_layout(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {args.trials}")
    print(f"seed={args.seed} trials={args.trials}")
    rng = np.random.default_rng(args.seed)
    passed = 0
    for _ in range(args.trials):
        radius = rng.uniform(0.5, 2.0)
        layout = random_mirrored_layout(
            rng,
            num_nodes=int(rng.integers(3, 12)),
            radius=radius,
            separation=rng.uniform(2.5 * radius, 8.0 * radius),
        )
        inward, outward = layout_distances(layout)
        if inward < outward:
            passed += 1
    failed = args.trials - passed
    print(f"pass={passed} fail={failed}")
    return 0 if failed == 0 else 1


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _printable(value: int, flag: str) -> int:
    """``value``, refused when it has more digits than Python converts to
    text (``sys.get_int_max_str_digits()``, 4300 by default)."""
    try:
        str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValidationError(
            f"{flag} yield a number of more than {limit} digits, too long to print"
        ) from None
    return value


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify-table1": _cmd_verify_table1,
    "counter": _cmd_counter,
    "chain": _cmd_chain,
    "center": _cmd_center,
    "layout": _cmd_layout,
}


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
