"""Span tracer for the traced benchmark run, installed from outside the program.

The tracer replaces module attributes through which one layer calls the next
(``gsaudit.optimizer.total_energy_of_points`` and so on) with wrappers that
record a span per call: name, start, end, parent span and the benchmark
operation (table row, relax repetition or audit) that caused it.  Spans stay
in memory until the run ends.  Untraced runs never import this module.

Self time is a span's duration minus the time its direct children cover;
children of one span run one after another, so that is the sum of their
durations.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

ENERGY = "gsaudit.optimizer.total_energy_of_points"
GRADIENT = "gsaudit.optimizer.energy_gradient_of_points"
RETRACT = "gsaudit.optimizer.retract_points"
START = "gsaudit.optimizer.random_configuration"
LOCAL = "gsaudit.optimizer.local_minimize"
BOUND = "gsaudit.audit.improved_upper_bound"
PARSE = "gsaudit.cli.parse_table"
AUDIT = "gsaudit.cli.monotonicity_audit"
RECORDS = "gsaudit.cli.report_records"
MAIN = "gsaudit.cli.main"
OP = "perfbench.op"


def _points_count(args, kwargs, result):
    return int(args[0].shape[0])


def _run_outcome(args, kwargs, result):
    return (len(result.energy_trace) - 1, bool(result.converged))


def _audit_outcome(args, kwargs, result):
    return (len(result.violations), len({v.n for v in result.violations}))


# Attribute path -> function that extracts the count recorded with each span.
WRAPPED = {
    ENERGY: _points_count,
    GRADIENT: _points_count,
    RETRACT: None,
    START: None,
    LOCAL: _run_outcome,
    BOUND: None,
    PARSE: None,
    AUDIT: _audit_outcome,
    RECORDS: None,
    MAIN: None,
}

# Attributes each workload must call; a zero there means the trace lost a layer.
EXPECTED = {
    "build-log-sphere": (LOCAL, ENERGY, GRADIENT, RETRACT, START),
    "relax-thomson-2048": (LOCAL, ENERGY, GRADIENT, RETRACT),
    "audit-8k": (MAIN, PARSE, AUDIT, RECORDS, BOUND),
}


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op."""
    noop = Tracer()._record("noop", lambda: None, None)
    plain = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


class TracerError(RuntimeError):
    """A traced attribute is missing or was never called."""


class Tracer:
    """Records spans while installed; ``op`` tags every span with its operation."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, note)
        self.op = -1
        self._stack: list[int] = []
        self._originals: dict[str, tuple] = {}

    def _record(self, name, fn, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if note is not None:
                spans[index] = spans[index][:5] + (note(args, kwargs, result),)
            return result

        return traced

    def install(self):
        for path, note in WRAPPED.items():
            module_name, _, attr = path.rpartition(".")
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise TracerError(f"traced attribute {path} does not exist")
            original = getattr(module, attr)
            self._originals[path] = (module, attr, original)
            setattr(module, attr, self._record(path, original, note))

    def uninstall(self):
        for module, attr, original in self._originals.values():
            setattr(module, attr, original)
        self._originals.clear()

    def run_op(self, index, fn):
        """Run one benchmark operation inside a span of its own."""
        self.op = index
        return self._record(OP, fn, None)()

    def require_calls(self, workload: str):
        called = {span[0] for span in self.spans}
        for path in EXPECTED[workload]:
            if path not in called:
                raise TracerError(f"traced attribute {path} was never called")

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path, environment: dict):
        fields = ["name", "start", "end", "parent", "op", "note"]
        path.write_text(
            json.dumps({"environment": environment, "fields": fields, "spans": self.spans})
        )

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, zero where the workload never enters the layer."""
        own = self.self_times()
        count = defaultdict(int)
        busy = defaultdict(float)
        pairs = 0
        runs_iterations = 0
        unconverged = 0
        energy_in_runs = 0
        violations = flagged = 0
        local_spans = set()
        for index, (name, _, _, parent, _, note) in enumerate(self.spans):
            count[name] += 1
            busy[name] += own[index]
            if name == LOCAL:
                local_spans.add(index)
                runs_iterations += note[0]
                unconverged += not note[1]
            elif name in (ENERGY, GRADIENT):
                pairs += note * (note - 1) // 2
            elif name == AUDIT:
                violations, flagged = note
        for name, _, _, parent, _, _ in self.spans:
            if name == ENERGY and parent in local_spans:
                energy_in_runs += 1
        runs = count[LOCAL]
        kernel_s = busy[ENERGY] + busy[GRADIENT]
        line_search = energy_in_runs - runs

        def per_call(name):
            return busy[name] / count[name] * 1e6 if count[name] else 0.0

        metrics = {
            "potentials.energy_calls": (count[ENERGY], "count"),
            "potentials.energy_s": (busy[ENERGY], "s"),
            "potentials.energy_us_per_call": (per_call(ENERGY), "us"),
            "potentials.gradient_calls": (count[GRADIENT], "count"),
            "potentials.gradient_s": (busy[GRADIENT], "s"),
            "potentials.gradient_us_per_call": (per_call(GRADIENT), "us"),
            "potentials.pairs_per_s": (pairs / kernel_s if kernel_s else 0.0, "1/s"),
            "optimizer.runs": (runs, "count"),
            "optimizer.iterations_per_run": (
                runs_iterations / runs if runs else 0.0, "count"),
            "optimizer.energy_evals_per_iter": (
                line_search / runs_iterations if runs_iterations else 0.0, "count"),
            "optimizer.accept_ratio": (
                runs_iterations / line_search if line_search else 0.0, "ratio"),
            "optimizer.self_s": (busy[LOCAL], "s"),
            "optimizer.unconverged_runs": (unconverged, "count"),
            "geometry.retract_calls": (count[RETRACT], "count"),
            "geometry.retract_s": (busy[RETRACT], "s"),
            "geometry.start_s": (busy[START], "s"),
            "audit.audit_s": (busy[AUDIT], "s"),
            "audit.bound_calls": (count[BOUND], "count"),
            "audit.bound_s": (busy[BOUND], "s"),
            "audit.violations": (violations, "count"),
            "audit.flagged_rows": (flagged, "count"),
            "cli.parse_s": (busy[PARSE], "s"),
            "cli.records_s": (busy[RECORDS], "s"),
            "cli.self_s": (busy[MAIN], "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.self_share": (sum(own) / wall_s, "ratio"),
            "trace.spans": (len(self.spans), "count"),
            "trace.overhead_share": (len(self.spans) * span_cost() / wall_s, "ratio"),
        }
        return metrics
