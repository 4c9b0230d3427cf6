"""Declarative scenario files and trace writing: what ``simulate`` runs.

Scenario documents are JSON with a fixed schema; parsing is strict, so an
unknown or missing key is an error rather than a silent default. Traces
serialize to CSV with 1-based neuron/pattern labels and shortest
round-trip decimal numbers, which makes repeated runs byte-identical and
the files human-checkable. A trace holds one strength per pattern; the CSV
lists it once per member neuron. Writing to a stream holds one write's
text, at most ``WRITE_ROWS`` rows, however many neurons the trace has.
``readback`` holds reading a trace back, its per-pattern queries and golden
comparison; their names resolve here too, importing it on first use. ``json``
loads only when a document is parsed or written.

Structural problems (bad JSON, wrong keys, wrong types) raise ParseError;
documents that parse but violate a domain invariant raise ValidationError.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from io import TextIOBase

from .dynamics import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, TraceTable
from .errors import ParseError, ValidationError, _shown
from .topology import EnsembleSpec, _real, _whole, build_linear, check_rows, validate

__all__ = ["Scenario", "parse_scenario", "write_scenario", "standard_scenario", "write_trace"]

TRACE_HEADER = "step,neuron,pattern,strength"

_MODES = (MODE_SCHEDULED, MODE_FREE_RUN)

# The most rows in one write of a streamed trace. On one step of 10**6
# neurons and on traces of 2500-4000-neuron patterns, 4096 ran within 3% of
# 8192 and 16384 in less memory; 1000 was 5-9% slower, 65536 up to 2.4
# times slower.
WRITE_ROWS = 4096


Scenario = namedtuple("Scenario", "ensemble schedule steps mode")

# Each section's keys, in the order they are read and written, and their
# types; ``float`` takes an int too.
_ENSEMBLE = {"depth": int, "pattern_size": int, "excitatory_unit": float,
             "inhibitory_weight": float, "nesting": str}
_SCHEDULES = {"staggered": {"type": str, "interval": int}, "explicit": {"type": str, "steps": list}}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Returns (ensemble, schedule, steps, mode). The ensemble passes
    topology validation; the schedule covers every pattern.
    """
    import json  # here, not at the top: ``verify-table1`` parses no document

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
    depth, size, unit, weight, nesting = _section(ens, "ensemble.", _ENSEMBLE)
    if nesting != "linear":
        raise ParseError(f'ensemble.nesting must be "linear", got {_shown(nesting)}')

    sched = _get(doc, "schedule", dict)
    if "type" not in sched:
        raise ParseError("missing key 'schedule.type'")
    sched_type = _get(sched, "type", str, "schedule.")
    if sched_type not in _SCHEDULES:
        raise ParseError(f'schedule.type must be "staggered" or "explicit", got {_shown(sched_type)}')
    _, given = _section(sched, "schedule.", _SCHEDULES[sched_type])
    if sched_type == "explicit" and not all(type(v) is int for v in given):
        raise ParseError("schedule.steps must be a list of integers")

    steps = _get(doc, "steps", int)
    mode = _get(doc, "mode", str)
    if mode not in _MODES:
        raise ParseError(f"mode must be one of {_MODES}, got {_shown(mode)}")

    # Refused before the ensemble is built, not only before it runs.
    check_rows("steps x depth x pattern_size", _whole(steps, "steps", 1), depth, size)
    spec = build_linear(depth, size, unit, weight)
    if violations := validate(spec):
        raise ValidationError("; ".join(violations))
    if sched_type == "staggered":
        schedule = Schedule.staggered(spec.num_patterns, given)
    else:
        if len(given) != spec.num_patterns:
            raise ValidationError(
                f"schedule.steps lists {len(given)} patterns, ensemble has {spec.num_patterns}"
            )
        schedule = Schedule(tuple(given))
    return Scenario(spec, schedule, steps, mode)


def write_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to a document; parse(write(s)) == s.

    Only linear chains with uniform pattern size are representable in the
    file schema; anything else raises ValidationError. A scenario that
    :func:`parse_scenario` would refuse raises what it raises.
    """
    import json

    spec = scenario.ensemble
    sizes = {_whole(p.size, "pattern_size") for p in spec.patterns}
    parents = [p.parent for p in spec.patterns]
    linear = parents == [None] + list(range(spec.num_patterns - 1))
    if len(sizes) != 1 or not linear:
        raise ValidationError("only linear chains with uniform pattern size serialize")
    if violations := validate(spec):  # so that a message names the value given, not a NaN
        raise ValidationError("; ".join(violations))
    (size,) = sizes
    ensemble = (spec.num_patterns, size, _real(spec.excitatory_unit), _real(spec.inhibitory_weight))
    doc = {
        "ensemble": dict(zip(_ENSEMBLE, (*ensemble, "linear"))),
        "schedule": {"type": "explicit", "steps": list(scenario.schedule.activation_step)},
        "steps": _whole(scenario.steps, "steps"),
        "mode": str(scenario.mode),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if parse_scenario(text) != scenario:  # a real that is no float, or a mode that prints as one
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


def write_trace(trace: TraceTable, out: TextIOBase | None = None) -> str | None:
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
        raise ParseError(f"unknown key {_shown(prefix + unknown[0])}")
    if missing:
        raise ParseError(f"missing key '{prefix}{missing[0]}'")


def _section(obj: dict, prefix: str, schema: dict) -> list:
    """The values of ``obj``, whose keys must be ``schema``'s, each of its
    type there, in ``schema``'s order."""
    _check_keys(obj, prefix, set(schema))
    return [_get(obj, key, kind, prefix) for key, kind in schema.items()]


def _get(obj: dict, key: str, kind: type, prefix: str = ""):
    """``obj[key]``, of type ``kind``. A float may be given as an int, and
    is returned as a float."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        name = "number" if kind is float else kind.__name__
        raise ParseError(f"{prefix}{key} must be {name}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer literal beyond float range
        raise ValidationError(f"{prefix}{key} is beyond the range of a float") from None


def __getattr__(name: str):
    """``readback``'s public names, such as ``read_trace``, imported on first use."""
    if not name.startswith("_"):
        from . import readback

        if name in readback.__all__:
            return getattr(readback, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
