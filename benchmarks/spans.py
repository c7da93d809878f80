"""In-memory span tracer around the public functions of each vqebench module.

Each function is wrapped at the module binding its caller looks up (for
example `vqebench.optimizers.loss`, which is what `step` calls), so nothing
under `src/` changes. A span records its name, start, end, parent span and
the `optimizers.run` span it belongs to. Spans stay in memory until the run
ends; the tracer only works in one process, so the traced grid runs serially.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

from vqebench import ansatz, bench, estimators, optimizers, pauli

ESTIMATOR_FNS = (
    "spsa_gradient",
    "stein_gradient_2eval",
    "spsa_metric",
    "stein_metric_2eval",
    "stein_metric_3eval",
    "exact_metric",
)
# Oracle queries are the loss/fidelity calls made directly by these estimators.
_ORACLE_PARENTS = frozenset(f"estimators.{fn}" for fn in ESTIMATOR_FNS if fn != "exact_metric")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run: int  # index of the enclosing optimizers.run span, -1 outside any run


def _gates(counts, args, kwargs, result):
    circuit = args[0]
    counts["simulator.gates"] += len(circuit.gates)
    # Each gate pass reads and writes the whole complex128 register.
    counts["simulator.amp_bytes"] += len(circuit.gates) * 2**circuit.qubit_count * 16 * 2


def _term_passes(name):
    def count(counts, args, kwargs, result):
        h = args[1]
        counts[f"{name}.term_passes"] += sum(not t.is_identity for t in h.terms)

    return count


def _dense_bytes(counts, args, kwargs, result):
    counts["pauli.dense_bytes"] += 16 * 4 ** args[0].qubit_count


def _sampled_loss(counts, args, kwargs, result):
    shots = kwargs.get("shots", args[3] if len(args) > 3 else None)
    counts["ansatz.loss.sampled_calls"] += shots is not None


def _step_accepted(counts, args, kwargs, result):
    counts["optimizers.step.accepted"] += not result.trace[-1].blocked


def _run_failed(counts, args, kwargs, result):
    counts["optimizers.run.failed"] += result.failed


def _csv_bytes(counts, args, kwargs, result):
    counts["bench.emit_csv.bytes"] += sum(os.path.getsize(p) for p in result)


# (module, binding, span name, counter)
BINDINGS = (
    (bench, "build_problem", "bench.build_problem", None),
    (bench, "exact_ground_energy", "pauli.exact_ground_energy", None),
    (pauli, "to_dense", "pauli.to_dense", _dense_bytes),
    (bench, "run", "optimizers.run", _run_failed),
    (bench, "emit_csv", "bench.emit_csv", _csv_bytes),
    (optimizers, "step", "optimizers.step", _step_accepted),
    (optimizers, "loss", "ansatz.loss", _sampled_loss),
    (optimizers, "exact_parameter_shift_gradient", "optimizers.exact_parameter_shift_gradient", None),
    (optimizers, "regularize_metric", "optimizers.regularize_metric", None),
    (optimizers, "natural_step", "optimizers.natural_step", None),
    *((optimizers, fn, f"estimators.{fn}", None) for fn in ESTIMATOR_FNS),
    (estimators, "fidelity", "ansatz.fidelity", None),
    (estimators, "apply_circuit", "simulator.apply_circuit", _gates),
    (ansatz, "apply_circuit", "simulator.apply_circuit", _gates),
    (ansatz, "apply_adjoint_circuit", "simulator.apply_adjoint_circuit", _gates),
    (ansatz, "expectation", "simulator.expectation", _term_passes("simulator.expectation")),
    (
        ansatz,
        "sampled_expectation",
        "simulator.sampled_expectation",
        _term_passes("simulator.sampled_expectation"),
    ),
    (ansatz, "sampled_zero_probability", "simulator.sampled_zero_probability", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, fn, name, count):
        spans, open_spans, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            run = index if name == "optimizers.run" else (spans[parent].run if parent >= 0 else -1)
            span = Span(name, 0.0, 0.0, parent, run)
            spans.append(span)
            open_spans.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS for the block, then restore the originals."""
        originals = []
        try:
            for module, attr, name, count in BINDINGS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive busy seconds, and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for span, children in zip(self.spans, child_time):
            entry = out[span.name]
            entry["calls"] += 1
            entry["busy_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
        return out

    def oracle_queries(self) -> int:
        return sum(
            1
            for s in self.spans
            if s.name in ("ansatz.loss", "ansatz.fidelity")
            and s.parent >= 0
            and self.spans[s.parent].name in _ORACLE_PARENTS
        )

    def readout_s(self) -> float:
        """Loss evaluations made by `step` itself: candidate check and energy readout."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == "ansatz.loss" and s.parent >= 0 and self.spans[s.parent].name == "optimizers.step"
        )


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op.

    Plain and traced loops alternate and the median difference is taken, so
    the machine's drift over seconds does not enter the estimate.
    """

    def noop():
        return None

    traced = Tracer()._wrap(noop, "calibration", None)
    costs = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - started - plain) / calls)
    return max(0.0, statistics.median(costs))


# (span name, stats wanted); every stat is reported even when the span never ran.
_SPAN_STATS = (
    ("pauli.to_dense", ("busy_s",)),
    ("pauli.exact_ground_energy", ("busy_s",)),
    ("simulator.apply_circuit", ("calls", "busy_s")),
    ("simulator.apply_adjoint_circuit", ("calls", "busy_s")),
    ("simulator.sampled_expectation", ("calls", "busy_s")),
    ("simulator.sampled_zero_probability", ("calls", "busy_s")),
    ("simulator.expectation", ("calls", "busy_s")),
    ("ansatz.loss", ("calls", "busy_s", "self_s")),
    ("ansatz.fidelity", ("calls", "busy_s", "self_s")),
    *((f"estimators.{fn}", ("calls", "busy_s", "self_s")) for fn in ESTIMATOR_FNS),
    ("optimizers.step", ("calls", "busy_s", "self_s")),
    ("optimizers.exact_parameter_shift_gradient", ("calls", "busy_s")),
    ("optimizers.regularize_metric", ("calls", "busy_s")),
    ("optimizers.natural_step", ("calls", "busy_s")),
    ("optimizers.run", ("calls",)),
    ("bench.build_problem", ("busy_s",)),
    ("bench.emit_csv", ("busy_s",)),
)
_COUNTS = (
    ("pauli.dense_bytes", "B"),
    ("simulator.gates", "count"),
    ("simulator.amp_bytes", "B"),
    ("simulator.sampled_expectation.term_passes", "count"),
    ("simulator.expectation.term_passes", "count"),
    ("ansatz.loss.sampled_calls", "count"),
    ("optimizers.run.failed", "count"),
    ("bench.emit_csv.bytes", "B"),
)
_STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the trace gives, as name -> (value, unit)."""
    stats = tracer.stats()
    out: dict[str, tuple[float, str]] = {}
    for name, wanted in _SPAN_STATS:
        entry = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in wanted:
            out[f"{name}.{stat}"] = (entry[stat], _STAT_UNITS[stat])
    for name, unit in _COUNTS:
        out[name] = (tracer.counts[name], unit)
    out["estimators.oracle_queries"] = (tracer.oracle_queries(), "count")
    out["optimizers.step.readout_s"] = (tracer.readout_s(), "s")
    steps = stats.get("optimizers.step", {"calls": 0})["calls"]
    out["optimizers.accept_ratio"] = (tracer.counts["optimizers.step.accepted"] / steps if steps else 0.0, "ratio")
    return out

