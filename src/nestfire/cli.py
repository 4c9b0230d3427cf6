"""Command-line front door. Deterministic, scriptable output: results on
stdout, diagnostics on stderr. Exit codes: 0 success/pass, 1 verification
or property failure, 2 invalid input or an input too large for memory.

``main`` is the process entry. At entry it freezes the heap it finds (the
interpreter's and the imports' objects, none of them garbage), so that no
later collection, the shutdown ones included, walks them again. At exit it
settles stdout: output that a closed pipe or a full device refused is
dropped, so that the flush at shutdown does not fail on it a second time.
``dispatch`` does neither, since in-process callers own their heap and
their file descriptors."""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import __version__
from .errors import NestfireError, ValidationError, _shown


def _deferred(module: str, name: str):
    """A stand-in for ``nestfire.<module>.<name>`` that imports the module on
    each call, so that each command loads only the modules it runs. Bound as
    a module global, for the traced benchmark replay to swap by name; a name
    that nothing swaps is imported inside its handler instead."""

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


run = _deferred("dynamics", "run")
parse_scenario = _deferred("scenario", "parse_scenario")
write_trace = _deferred("scenario", "write_trace")
compare_golden = _deferred("readback", "compare_golden")
run_counter = _deferred("counter", "run_counter")
best_center = _deferred("energy", "best_center")
event_oracle = _deferred("energy", "event_oracle")
layout_distances = _deferred("energy", "layout_distances")

DEFAULT_SEED = 12345


def dispatch(argv: list[str]) -> int:
    try:
        handler, args = _parse(argv)
        code = handler(args) or 0  # ``print`` answers --help and --version
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left early (``| head``): stop quietly
        return 0
    except MemoryError:
        print("nestfire: error: out of memory: the input is too large for this process",
              file=sys.stderr)
        return 2
    except (NestfireError, OSError, ValueError) as exc:
        # ValueError too: a scenario file that is not UTF-8 raises UnicodeDecodeError.
        if isinstance(exc, OSError) and exc.filename is not None:  # its text quotes it in full
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"nestfire: error: {exc}", file=sys.stderr)
        return 2


def _parse(argv: list[str]):
    """``print`` and the text for ``-h``/``--help`` or ``--version``, else the handler and
    its flags' values, from ``--flag value`` or ``--flag=value`` by name or unique prefix,
    the last repeat winning. A usage error raises ValidationError."""
    if "-h" in argv or "--help" in argv:
        return print, _usage()
    if "--version" in argv:
        return print, f"nestfire {__version__}"
    if not argv or argv[0] not in _COMMANDS:
        got = f"unknown command {_shown(argv[0])}" if argv else "no command"
        raise ValidationError(f"{got}; choose one of {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, _, flags = _COMMANDS[command]
    values = {flag: default for flag, (_, default) in flags.items()}
    for token in tokens:
        name, equals, value = token.partition("=")
        # No flag name is a prefix of another, so a whole name is a unique prefix.
        found = [n for n in (*flags, "help", "version") if name[2:] and f"--{n}".startswith(name)]
        if len(found) != 1:
            problem = "ambiguous" if found else "unknown"
            choices = ", ".join(f"--{n}" for n in found or flags)
            raise ValidationError(f"{problem} flag {_shown(name)} for {command}; choose {choices}")
        if (flag := found[0]) in ("help", "version"):
            return _parse([f"--{flag}"])
        if not equals and (value := next(tokens, "--")).startswith("--"):
            raise ValidationError(f"--{flag} expects a value")
        convert = flags[flag][0]
        try:
            values[flag] = convert(value)
        except ValueError:
            raise ValidationError(f"--{flag}: invalid {convert.__name__} {_shown(value)}") from None
    for flag, value in values.items():
        if value is ...:
            raise ValidationError(f"{command} requires --{flag}")
    return handler, SimpleNamespace(**values)


def _usage() -> str:
    lines = ["usage: nestfire [-h | --version] COMMAND [--FLAG VALUE]...", "", "commands:"]
    for command, (_, help_line, flags) in _COMMANDS.items():
        for flag, (convert, default) in flags.items():
            usage = f"--{flag} {convert.__name__.upper()}"
            command += f" {usage}" if default is ... else f" [{usage}]"
        lines += [f"  {command}", f"      {help_line}"]
    lines += ["", "A flag is --FLAG VALUE or --FLAG=VALUE, and may be cut to a unique prefix."]
    exits = "Exit codes: 0 success or pass, 1 failed check, 2 invalid input or out of memory."
    return "\n".join(lines + [exits])


def _cmd_simulate(args) -> int:
    with open(args.scenario, encoding="utf-8") as scenario:  # JSON is UTF-8 (RFC 8259)
        text = scenario.read()
    trace = run(*parse_scenario(text))
    # The trace streams to its destination, which is opened only once the run has succeeded.
    if args.out is not None:
        with open(args.out, "w") as out:
            write_trace(trace, out)
    else:
        write_trace(trace, sys.stdout)
    return 0


def _cmd_verify_table1(args) -> int:
    from .readback import table1_fixture
    from .scenario import standard_scenario

    trace = run(*standard_scenario())
    tolerance = () if args.tolerance is None else (args.tolerance,)
    report = compare_golden(trace, table1_fixture(), *tolerance)
    if report.passed:
        print(f"pass max_abs_error={report.max_abs_error:g}")
        return 0
    print(f"fail max_abs_error={report.max_abs_error:g} mismatches={len(report.mismatches)}")
    for neuron, t, expected, actual in report.mismatches:
        print(f"mismatch neuron={neuron} t={t} expected={expected!r} actual={actual!r}")
    return 1


def _cmd_counter(args) -> int:
    from .counter import CounterSpec

    levels, final = run_counter(CounterSpec(depth=args.depth))
    for k in levels:  # level k counts at tick k
        print(f"count level={k} tick={k}")
    print(f"quiescent tick={final.tick}")
    return 0


def _cmd_chain(args) -> int:
    from .energy import WeightChain, chain_source_firings, hops_from_weights

    chain = WeightChain(_parse_ints(args.hops, "--hops"))
    product = _printable(chain_source_firings(chain), "--hops")
    oracle = event_oracle(hops_from_weights(chain))
    print(f"product={product} oracle={oracle}")
    return 0 if product == oracle else 1


def _cmd_center(args) -> int:
    from .energy import WeightChain, centering_cost

    chain = WeightChain(_parse_ints(args.weights, "--weights"))
    costs = [centering_cost(chain, pos) for pos in range(chain.num_positions)]
    _printable(max(costs), "--weights")
    best = best_center(chain)
    print("costs=" + ",".join(str(c) for c in costs))
    print(f"best={best + 1}")
    return 0


def _cmd_layout(args) -> int:
    from .topology import _whole, check_rows

    check_rows("--trials", _whole(args.trials, "--trials", 1))
    _whole(args.seed, "--seed", 0)
    from random import Random

    from .energy import random_mirrored_layout

    print(f"seed={args.seed} trials={args.trials}")
    rng = Random(args.seed)
    passed = 0
    for _ in range(args.trials):
        radius = rng.uniform(0.5, 2.0)
        layout = random_mirrored_layout(
            rng,
            num_nodes=rng.randrange(3, 12),
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
        raise ValidationError(f"{flag} expects comma-separated integers, got {_shown(text)}") from exc


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


# command: (handler, help line, {flag: (converter, default or ... if required)})
_COMMANDS = {
    "simulate": (_cmd_simulate, "run a scenario file and write its trace (default: to stdout)",
                 {"scenario": (str, ...), "out": (str, None)}),
    # No --tolerance default: it is readback.GOLDEN_TOLERANCE, and parsing imports no readback.
    "verify-table1": (_cmd_verify_table1, "check the built-in run against the shipped fixture",
                      {"tolerance": (float, None)}),
    "counter": (_cmd_counter, "print a nested counter's count events", {"depth": (int, ...)}),
    "chain": (_cmd_chain, "source firings for a weighted chain, two ways", {"hops": (str, ...)}),
    "center": (_cmd_center, "centering costs along a weighted line", {"weights": (str, ...)}),
    "layout": (_cmd_layout, "inward vs outward distances over random facing layouts",
               {"trials": (int, 50), "seed": (int, DEFAULT_SEED)}),
}


def main() -> None:
    gc.freeze()
    code = dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # what dispatch could not write: drop it, as the shutdown flush would fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
