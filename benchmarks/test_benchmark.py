"""Smoke tests for the benchmark at toy sizes (n=2-3, a few steps).

Run with: python3 -m pytest benchmarks -q
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import measure
import run as bench_run
import spans
import workloads
from vqebench import bench
from vqebench.ansatz import AnsatzKind, build_ansatz
from vqebench.optimizers import OptimizerConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))

ALL_KINDS = ("GD", "QNG", "SPSA", "QNSPSA", "STEIN", "QNSTEIN2", "QNSTEIN3")


def toy(kinds=ALL_KINDS, preset="tfim-fig2", qubits=2, steps=3):
    return workloads.Workload(
        name="toy", preset=preset, qubits=qubits, layers=1, kinds=kinds,
        seeds_per_kind=2, steps=steps, setup_reps=3, setup_reps_between_rounds=2, why="smoke test",
    )


def toy_measurement(tmp_path, w, seconds=0.0, min_steps=0):
    cfg = workloads.grid_config(w, 7, str(tmp_path / "csv"))
    problems, setup_times = measure.time_setup(cfg, w.setup_reps)
    with measure.worker_cap("1"):
        m = measure.measure(cfg, problems, str(tmp_path / "csv"), seconds, min_steps)
    return cfg, problems, setup_times, m


def test_job_seeds_are_stable_and_distinct():
    assert workloads.job_seeds("tfim6-shots", 1, 2) == (1247484085, 1029449763)
    assert workloads.job_seeds("tfim6-shots", 2, 2) != workloads.job_seeds("tfim6-shots", 1, 2)
    assert workloads.job_seeds("schwinger6-ref", 1, 2) != workloads.job_seeds("tfim6-shots", 1, 2)


def test_workload_grids_follow_the_presets():
    shapes = {"tfim6-shots": (8192, 12), "schwinger6-ref": (10024, 60), "tfim12-shots": (8192, 36)}
    for name, w in workloads.WORKLOADS.items():
        cfg = workloads.grid_config(w, 3, "unused")
        shots, d = shapes[name]
        assert cfg.sizes == (w.qubits,) and cfg.layers == w.layers
        assert tuple(e.label for e in cfg.optimizers) == w.kinds
        assert cfg.optimizer.shots == shots and cfg.optimizer.blocking
        assert cfg.optimizer.max_steps == w.steps and len(cfg.seeds) == w.seeds_per_kind
        ansatz = build_ansatz(AnsatzKind(cfg.ansatz_kind, w.qubits, w.layers, cfg.bond_order))
        assert ansatz.param_count == d
    qng = workloads.grid_config(workloads.WORKLOADS["schwinger6-ref"], 3, "unused").optimizers[1]
    assert dict(qng.overrides) == {"beta": 0.1}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks"]
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("w", [toy(), toy(kinds=("GD", "QNG"), preset="schwinger-fig5")])
def test_end_to_end_metrics_and_gate_at_toy_size(tmp_path, w):
    cfg, problems, setup_times, m = toy_measurement(tmp_path, w)
    assert len(m.rounds) == 2 and not m.errors
    assert m.attempted == 2 * len(w.kinds) * 2 and m.failed == 0
    assert m.steps() == 2 * len(w.kinds) * 2 * w.steps
    assert measure.check_measurement(cfg, problems, m) == []
    metrics = measure.end_to_end(setup_times, m)
    assert list(metrics) == [e["name"] for e in SPEC["end_to_end"]]
    for name, (value, unit) in metrics.items():
        assert value > 0 and unit == next(e["unit"] for e in SPEC["end_to_end"] if e["name"] == name)


def test_gate_rejects_accounting_bound_and_digest_defects(tmp_path):
    cfg, problems, _, m = toy_measurement(tmp_path, toy(kinds=("QNSTEIN3",)))
    result = m.ok_rounds[0].result
    (key, runs), = result.runs.items()
    first = runs[0]
    bad_count = dataclasses.replace(first.records[2], circuits_charged=first.records[2].circuits_charged + 1)
    bad_energy = dataclasses.replace(first.records[1], energy_error=-1e-6)
    doctored = dataclasses.replace(first, records=(first.records[0], bad_energy, bad_count, *first.records[3:]))
    result.runs[key] = (doctored, *runs[1:])
    found = measure.check_result(cfg, problems, result)
    assert len(found) == 2
    assert "energy_error" in found[0] and "circuits charged" in found[1]
    m.rounds[1].digest = "0" * 64
    assert any("digest differs" in line for line in measure.check_measurement(cfg, problems, m))


def test_charged_schedule_conventions():
    config = OptimizerConfig(samples=10, shots=100, blocking=True)
    per_sample = {"QNSPSA": 6, "QNSTEIN2": 4, "QNSTEIN3": 5, "SPSA": 2, "STEIN": 2}
    for kind, k in per_sample.items():
        assert workloads.charged_schedule(kind, config, d=12) == (1, 10 * k + 1)
    assert workloads.charged_schedule("QNG", config, d=60) == (1, 121)
    exact = OptimizerConfig(samples=10, shots=None)
    assert workloads.charged_schedule("GD", exact, d=60) == (0, 120)


def test_a_raising_grid_counts_every_job_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(bench, "run", broken)
    _, _, _, m = toy_measurement(tmp_path, toy(kinds=("SPSA", "GD")), seconds=5.0)
    assert len(m.rounds) == 1 and m.errors == ["LinAlgError"]
    assert m.attempted == m.failed == 4 and not m.ok_rounds


def test_tracer_counts_and_self_time(tmp_path):
    w = toy(kinds=("GD",))
    cfg = workloads.grid_config(w, 7, str(tmp_path / "csv"))
    tracer = spans.Tracer()
    with tracer.installed():
        problems, _ = measure.time_setup(cfg, 1)
        with measure.worker_cap("1"):
            measure.measure(cfg, problems, str(tmp_path / "csv"), 0.0, 0, min_rounds=1)
    assert not hasattr(bench.run, "__wrapped__")
    metrics = spans.layer_metrics(tracer)
    d, runs = 2, 2
    # Per run: exact and sampled initial losses; per step: 2d shifted losses,
    # the blocking candidate and the energy readout.
    per_run = 2 + w.steps * (2 * d + 2)
    assert metrics["ansatz.loss.calls"][0] == runs * per_run
    assert metrics["ansatz.loss.sampled_calls"][0] == runs * (1 + w.steps)
    assert metrics["simulator.apply_circuit.calls"][0] == runs * per_run
    assert metrics["simulator.gates"][0] == runs * per_run * len(problems[2].circuit.gates)
    assert metrics["optimizers.step.calls"][0] == runs * w.steps
    assert metrics["optimizers.exact_parameter_shift_gradient.calls"][0] == runs * w.steps
    assert metrics["optimizers.run.calls"][0] == runs and metrics["optimizers.run.failed"][0] == 0
    assert metrics["pauli.dense_bytes"][0] == 16 * 4**2
    csv_bytes = sum(p.stat().st_size for p in (tmp_path / "csv").iterdir())
    assert metrics["bench.emit_csv.bytes"][0] == csv_bytes
    assert metrics["estimators.oracle_queries"][0] == 0
    assert 0.0 <= metrics["optimizers.accept_ratio"][0] <= 1.0
    stats = tracer.stats()
    assert 0.0 <= stats["optimizers.step"]["self_s"] <= stats["optimizers.step"]["busy_s"]
    assert metrics["optimizers.step.readout_s"][0] <= stats["optimizers.step"]["busy_s"]
    run_spans = [i for i, s in enumerate(tracer.spans) if s.name == "optimizers.run"]
    assert all(tracer.spans[i].run == i for i in run_spans)
    assert {s.run for s in tracer.spans if s.name == "ansatz.loss"} == set(run_spans)


def test_estimator_oracle_queries(tmp_path):
    w = toy(kinds=("QNSPSA",), steps=2)
    cfg = workloads.grid_config(w, 7, str(tmp_path / "csv"))
    problems, _ = measure.time_setup(cfg, 1)
    tracer = spans.Tracer()
    with measure.worker_cap("1"), tracer.installed():
        measure.measure(cfg, problems, str(tmp_path / "csv"), 0.0, 0, min_rounds=1)
    metrics = spans.layer_metrics(tracer)
    n_samples, runs = cfg.optimizer.samples, 2
    assert metrics["estimators.spsa_gradient.calls"][0] == runs * w.steps
    assert metrics["ansatz.fidelity.calls"][0] == runs * w.steps * 4 * n_samples
    assert metrics["estimators.oracle_queries"][0] == runs * w.steps * 6 * n_samples


def _run_cli(func, w, tmp_path, capsys, trace):
    args = argparse.Namespace(workload=w.name, seed=7, seconds=0.0, trace=trace)
    cfg = workloads.grid_config(w, 7, str(tmp_path / "csv"))
    with measure.worker_cap("1"):
        status = func(args, w, cfg, tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def test_traced_run_reports_every_layer_metric(tmp_path, capsys):
    status, record = _run_cli(bench_run.run_traced, toy(), tmp_path, capsys, trace=1)
    assert status == 0 and record["correct"] and record["failed"] == 0
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert list(record["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert record["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert record["metrics"]["bench.pool.workers"]["value"] == 1
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_end_to_end_run_prints_the_contract_line(tmp_path, capsys):
    status, record = _run_cli(bench_run.run_end_to_end, toy(kinds=("SPSA", "STEIN")), tmp_path, capsys, trace=0)
    assert status == 0 and record["correct"]
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert json.load(open(tmp_path / "result.json"))["provenance"]["step_samples"] >= bench_run.MIN_STEP_SAMPLES


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tfim6-shots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
