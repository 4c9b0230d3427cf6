"""Traced in-process replay of a workload, for the per-layer metrics.

``nestfire.cli.dispatch(argv)`` runs in this process on the same inputs the
end-to-end run spawns. For the replay, the public names each module imports
from another layer are swapped for wrappers that record a span -- name,
start, end, parent span and invocation -- and put back afterwards; nothing
under ``src/`` changes. The topology queries the step loop makes are called
hundreds of thousands of times per run, so they keep no span each: their
calls and time fold into the span that made them.

Every invocation is also dispatched once without the wrappers, and the
difference between the two dispatch totals is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from pathlib import Path
from time import perf_counter

from reference import check

# (module, attribute, span name): what the replay wraps.
_SPANS = (
    ("cli", "run", "dynamics.run"),
    ("cli", "parse_scenario", "scenario.parse"),
    ("cli", "write_trace", "scenario.write_trace"),
    ("cli", "compare_golden", "scenario.compare_golden"),
    ("cli", "run_counter", "counter.run"),
    ("cli", "best_center", "energy.best_center"),
    ("cli", "event_oracle", "energy.event_oracle"),
    ("cli", "layout_distances", "energy.layout"),
    ("scenario", "build_linear", "topology.build"),
    ("scenario", "validate", "topology.build"),
)
_QUERIES = (
    ("dynamics", "members"),
    ("dynamics", "ancestors"),
)

# Fields of a span record.
NAME, START, END, PARENT, INVOCATION, QUERY_CALLS, QUERY_S = range(7)


class Tracer:
    """Spans kept in memory, each a list indexed by the field constants."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = -1
        self._open: list[int] = []
        self._in_query = False

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.invocation, 0, 0.0]
            self.spans.append(record)
            self._open.append(len(self.spans) - 1)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                self._open.pop()

        return traced

    def query(self, fn):
        def traced(*args, **kwargs):
            if self._in_query:  # offset() inside members(): already timed
                return fn(*args, **kwargs)
            self._in_query = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_query = False
                parent = self.spans[self._open[-1]]
                parent[QUERY_CALLS] += 1
                parent[QUERY_S] += elapsed

        return traced

    @contextlib.contextmanager
    def installed(self, nestfire):
        """Swap the wrapped names in for the duration of the block."""
        saved = []

        def swap(owner, attribute, wrapper):
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)

        for module, attribute, name in _SPANS:
            owner = getattr(nestfire, module)
            swap(owner, attribute, self.span(name, getattr(owner, attribute)))
        for module, attribute in _QUERIES:
            owner = getattr(nestfire, module)
            swap(owner, attribute, self.query(getattr(owner, attribute)))
        spec = nestfire.topology.EnsembleSpec
        swap(spec, "offset", self.query(spec.offset))
        try:
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "invocation", "query_calls", "query_s")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def _dispatch(dispatch, argv: list[str]) -> tuple[int, bytes, bytes, float]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = dispatch(argv)
        except Exception:  # the CLI must not raise; count it as a failure
            code = 1
            traceback.print_exc()
        elapsed = perf_counter() - start
    return code, stdout.getvalue().encode(), stderr.getvalue().encode(), elapsed


def replay(nestfire, invocations, workdir: Path, oracles, spans_path: Path) -> dict:
    """Dispatch every invocation untraced and traced, check the traced
    outputs, and return the per-layer metrics with the failure count."""
    from nestfire.scenario import read_trace

    tracer = Tracer()
    cli = nestfire.cli
    traced_dispatch = tracer.span("cli.dispatch", cli.dispatch)
    untraced_s = read_trace_s = trace_bytes = 0.0
    neuron_steps = failed = 0
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        _dispatch(cli.dispatch, ["verify-table1"])  # warm-up, untimed
        for index, inv in enumerate(invocations):
            # Alternate which of the two dispatches goes first, so that
            # warm-cache effects cancel out of the overhead.
            if index % 2 == 0:
                untraced_s += _dispatch(cli.dispatch, list(inv.args))[3]
            tracer.invocation = index
            with tracer.installed(nestfire):
                code, stdout, stderr, _ = _dispatch(traced_dispatch, list(inv.args))
            if index % 2 == 1:
                untraced_s += _dispatch(cli.dispatch, list(inv.args))[3]
            trace = Path(inv.out).read_bytes() if inv.out else None
            reason = check(inv.expect, code, stdout, stderr, trace, oracles)
            failed += reason is not None
            if inv.expect["kind"] == "simulate":
                text = (trace if inv.out else stdout).decode()
                trace_bytes += len(text)
                start = perf_counter()
                read_trace(text)
                read_trace_s += perf_counter() - start
                e = inv.expect
                neuron_steps += e["depth"] * e["size"] * e["steps"]
            elif inv.expect["kind"] == "verify-table1":
                neuron_steps += 25 * 5
            if inv.out:
                os.remove(inv.out)
    finally:
        os.chdir(previous)
    tracer.write(spans_path)
    return {"failed": failed, **_layer_metrics(tracer.spans, untraced_s, read_trace_s, trace_bytes, neuron_steps)}


def _layer_metrics(spans, untraced_s, read_trace_s, trace_bytes, neuron_steps) -> dict:
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    children_s = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] is not None:
            children_s[record[PARENT]] += record[END] - record[START]
    query_calls = 0
    query_s = 0.0
    for index, record in enumerate(spans):
        duration = record[END] - record[START]
        name = record[NAME]
        total[name] = total.get(name, 0.0) + duration
        own = duration - children_s[index] - record[QUERY_S]
        self_s[name] = self_s.get(name, 0.0) + own
        query_calls += record[QUERY_CALLS]
        query_s += record[QUERY_S]
    run_s = total.get("dynamics.run", 0.0)
    dispatch_s = total["cli.dispatch"]
    return {
        "cli.dispatch_s": dispatch_s,
        "cli.self_s": self_s["cli.dispatch"],
        "scenario.parse_s": total.get("scenario.parse", 0.0),
        "scenario.write_trace_s": total.get("scenario.write_trace", 0.0),
        "scenario.trace_mb": trace_bytes / 1e6,
        "scenario.read_trace_s": read_trace_s,
        "scenario.compare_golden_s": total.get("scenario.compare_golden", 0.0),
        "topology.build_s": total.get("topology.build", 0.0),
        "topology.query_calls": query_calls,
        "topology.query_s": query_s,
        "dynamics.run_s": run_s,
        "dynamics.self_s": self_s.get("dynamics.run", 0.0),
        "dynamics.neuron_steps_per_s": neuron_steps / run_s if run_s else 0.0,
        "counter.run_s": total.get("counter.run", 0.0),
        "energy.event_oracle_s": total.get("energy.event_oracle", 0.0),
        "energy.best_center_s": total.get("energy.best_center", 0.0),
        "energy.layout_s": total.get("energy.layout", 0.0),
        "bench.tracing_overhead_s": dispatch_s - untraced_s,
    }
