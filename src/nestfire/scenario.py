"""Declarative scenario files and trace writing: what ``simulate`` runs.

Scenario documents are JSON with a fixed schema; parsing is strict, so an
unknown or missing key is an error rather than a silent default. Traces
serialize to CSV with 1-based neuron/pattern labels and shortest
round-trip decimal numbers, which makes repeated runs byte-identical and
the files human-checkable. A trace holds one strength per pattern; the CSV
lists it once per member neuron. Writing to a stream holds one write's
text, at most ``WRITE_ROWS`` rows, however many neurons the trace has.
Reading a trace back and golden comparison live in ``readback``, which
this module never imports; their names still resolve here, on first use.

Structural problems (bad JSON, wrong keys, wrong types) raise ParseError;
documents that parse but violate a domain invariant raise ValidationError.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, TextIO

from .dynamics import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, TraceTable
from .errors import ParseError, ValidationError
from .topology import EnsembleSpec, _real, _whole, build_linear, check_rows, validate

__all__ = ["Scenario", "parse_scenario", "write_scenario", "standard_scenario", "write_trace"]

TRACE_HEADER = "step,neuron,pattern,strength"

_MODES = (MODE_SCHEDULED, MODE_FREE_RUN)

# The most rows in one write of a streamed trace. On one step of 10**6
# neurons and on traces of 2500-4000-neuron patterns, 4096 ran within 3% of
# 8192 and 16384 in less memory; 1000 was 5-9% slower, 65536 up to 2.4
# times slower.
WRITE_ROWS = 4096


class Scenario(NamedTuple):
    ensemble: EnsembleSpec
    schedule: Schedule
    steps: int
    mode: str


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Returns (ensemble, schedule, steps, mode). The ensemble passes
    topology validation; the schedule covers every pattern.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # from int(): a literal longer than Python converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal has more than {limit} digits") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_keys(doc, "", {"ensemble", "schedule", "steps", "mode"})

    ens = _get(doc, "ensemble", dict)
    _check_keys(
        ens,
        "ensemble.",
        {"depth", "pattern_size", "excitatory_unit", "inhibitory_weight", "nesting"},
    )
    depth = _get(ens, "depth", int, "ensemble.")
    pattern_size = _get(ens, "pattern_size", int, "ensemble.")
    excitatory_unit = _get_float(ens, "excitatory_unit", "ensemble.")
    inhibitory_weight = _get_float(ens, "inhibitory_weight", "ensemble.")
    nesting = _get(ens, "nesting", str, "ensemble.")
    if nesting != "linear":
        raise ParseError(f'ensemble.nesting must be "linear", got {nesting!r}')

    sched = _get(doc, "schedule", dict)
    if "type" not in sched:
        raise ParseError("missing key 'schedule.type'")
    sched_type = _get(sched, "type", str, "schedule.")
    if sched_type == "staggered":
        _check_keys(sched, "schedule.", {"type", "interval"})
        interval = _get(sched, "interval", int, "schedule.")
    elif sched_type == "explicit":
        _check_keys(sched, "schedule.", {"type", "steps"})
        explicit = _get(sched, "steps", list, "schedule.")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in explicit):
            raise ParseError("schedule.steps must be a list of integers")
    else:
        raise ParseError(f'schedule.type must be "staggered" or "explicit", got {sched_type!r}')

    steps = _get(doc, "steps", int)
    mode = _get(doc, "mode", str)
    if mode not in _MODES:
        raise ParseError(f"mode must be one of {_MODES}, got {mode!r}")

    # Refused before the ensemble is built, not only before it runs.
    check_rows("steps x depth x pattern_size", _whole(steps, "steps", 1), depth, pattern_size)
    spec = build_linear(depth, pattern_size, excitatory_unit, inhibitory_weight)
    violations = validate(spec)
    if violations:
        raise ValidationError("; ".join(violations))
    if sched_type == "staggered":
        schedule = Schedule.staggered(spec.num_patterns, interval)
    else:
        if len(explicit) != spec.num_patterns:
            raise ValidationError(
                f"schedule.steps lists {len(explicit)} patterns, ensemble has"
                f" {spec.num_patterns}"
            )
        schedule = Schedule(tuple(explicit))
    return Scenario(spec, schedule, steps, mode)


def write_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to a document; parse(write(s)) == s.

    Only linear chains with uniform pattern size are representable in the
    file schema; anything else raises ValidationError. A scenario that
    :func:`parse_scenario` would refuse raises what it raises.
    """
    spec = scenario.ensemble
    sizes = {_whole(p.size, "pattern_size") for p in spec.patterns}
    parents = [p.parent for p in spec.patterns]
    linear = parents == [None] + list(range(spec.num_patterns - 1))
    if len(sizes) != 1 or not linear:
        raise ValidationError("only linear chains with uniform pattern size serialize")
    (size,) = sizes
    doc = {
        "ensemble": {
            "depth": spec.num_patterns,
            "pattern_size": size,
            "excitatory_unit": _real(spec.excitatory_unit),  # NaN, and refused, if not real
            "inhibitory_weight": _real(spec.inhibitory_weight),
            "nesting": "linear",
        },
        "schedule": {"type": "explicit", "steps": list(scenario.schedule.activation_step)},
        "steps": _whole(scenario.steps, "steps"),
        "mode": str(scenario.mode),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if parse_scenario(text) != scenario:  # ids other than 0..P-1, or a mode that only prints as one
        raise ValidationError("the scenario reads back as another one")
    return text


def standard_scenario() -> Scenario:
    """The built-in reference run: linear chain of 5 patterns x 5 neurons,
    unit excitation, half-weight inhibition, staggered schedule, 5 steps."""
    return Scenario(
        ensemble=build_linear(5, 5, 1.0, 0.5),
        schedule=Schedule.staggered(5, 1),
        steps=5,
        mode=MODE_SCHEDULED,
    )


def write_trace(trace: TraceTable, out: TextIO | None = None) -> str | None:
    """Long-form CSV: one row per (step, neuron), 1-based labels, shortest
    round-trip decimals, deterministic bytes. Each pattern has its strength
    formatted once per step.

    With a text handle ``out``, the header and then the rows go to it one
    write at a time, each write at most ``WRITE_ROWS`` rows of one step, so
    memory holds one write's text, and None is returned. Without one, the
    whole text is returned as a string."""
    # One step's rows as writes, each a list of (pattern, k, names) pieces:
    # up to 1000 neighbouring neurons of one pattern, labelled prefixes[k]
    # and one of the names. Neuron i below 1000 is str(i) after the empty
    # prefix; above, str(i // 1000) and one of 1000 three-digit tails that
    # every piece shares, so a full piece copies nothing.
    neurons = trace.num_neurons
    tails = [f"{r:03d}" for r in range(1000)] if neurons >= 1000 else []
    writes, size, first = [], WRITE_ROWS, 1
    for p, count in trace._blocks:
        end = first + count
        while first < end:
            k, r = divmod(first, 1000)
            n = min(end - first, 1000 - r)
            if not k:
                names = list(map(str, range(first, first + n)))
            else:
                names = tails if n == 1000 else tails[r : r + n]
            if size + n > WRITE_ROWS:  # true for the first piece
                writes.append([])
                size = 0
            writes[-1].append((p, k, names))
            size += n
            first += n
    prefixes = ["", *map(str, range(1, neurons // 1000 + 1))]
    rows, num = trace._rows, trace.num_patterns
    labels = [f",{p}," for p in range(1, num + 1)]
    parts: list[str] = []
    write = parts.append if out is None else out.write
    write(TRACE_HEADER + "\n")
    for t in range(trace.num_steps):
        head = f"{t + 1},"
        leads = [head + prefix for prefix in prefixes]
        ends = [f"{label}{v!r}\n" for label, v in zip(labels, rows[t * num : (t + 1) * num])]
        for pieces in writes:
            chunks = []
            for p, k, names in pieces:
                lead, tail = leads[k], ends[p]
                chunks += (lead, (tail + lead).join(names), tail)
            write("".join(chunks))
    return "".join(parts) if out is None else None


def _check_keys(obj: dict, prefix: str, allowed: set[str]) -> None:
    unknown = sorted(set(obj) - allowed)
    missing = sorted(allowed - set(obj))
    if unknown:
        raise ParseError(f"unknown key '{prefix}{unknown[0]}'")
    if missing:
        raise ParseError(f"missing key '{prefix}{missing[0]}'")


def _get(obj: dict, key: str, types, prefix: str = ""):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        type_names = types.__name__ if isinstance(types, type) else "number"
        raise ParseError(f"{prefix}{key} must be {type_names}, got {type(value).__name__}")
    return value


def _get_float(obj: dict, key: str, prefix: str) -> float:
    try:
        return float(_get(obj, key, (int, float), prefix))
    except OverflowError:  # an integer literal beyond float range
        raise ValidationError(f"{prefix}{key} is beyond the range of a float") from None


def __getattr__(name: str):
    """``readback``'s public names, such as ``read_trace``, imported on first use."""
    if not name.startswith("_"):
        from . import readback

        if name in readback.__all__:
            return getattr(readback, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
