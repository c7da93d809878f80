"""vqebench benchmark: seeded optimizer grids through the public harness.

    python3 benchmarks/run.py --workload tfim6-shots --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics from a serial traced round, plus the tracing overhead
against the same round untraced. Every result passes the correctness gate
(variational bound, circuit accounting, one CSV digest across rounds) or
the run reports correct=false. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Run it from the repository
root; it imports the package from src/ and writes only under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
# p90 needs at least ten samples beyond it.
MIN_STEP_SAMPLES = 100
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROVENANCE_ENV = (*BLAS_THREAD_ENV, "VQEBENCH_WORKERS")


def _parser(workload_names) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="vqebench optimizer-grid benchmark")
    p.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    p.add_argument("--seed", type=int, required=True, help="benchmark seed; job seeds derive from it")
    p.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vqebench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        return {}


def provenance(args, cfg, workers: int, extra: dict) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "bench_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in PROVENANCE_ENV},
        "workers": workers,
        "job_seeds": list(cfg.seeds),
        **extra,
    }


def _emit(metrics: dict, correct: bool, attempted: int, failed: int, prov: dict, out_dir: Path) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value!r} {unit}")
    print(f"  {'fail_frac':<48} {failed / attempted if attempted else 0.0!r} ratio ({failed}/{attempted} runs)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({**record, "provenance": prov}, indent=1) + "\n")
    print(json.dumps(record))


def _report_gate(found: list[str]) -> bool:
    for line in found:
        print(f"gate: {line}", file=sys.stderr)
    return not found


def run_end_to_end(args, w, cfg, out_dir: Path) -> int:
    import measure

    problems, setup_times = measure.time_setup(cfg, w.setup_reps)

    def more_setups():
        setup_times.extend(measure.time_setup(cfg, w.setup_reps_between_rounds)[1])

    m = measure.measure(cfg, problems, str(out_dir / "csv"), args.seconds, MIN_STEP_SAMPLES, between_rounds=more_setups)
    correct = _report_gate(measure.check_measurement(cfg, problems, m))
    print(f"workload {w.name} seed {args.seed}: {len(m.rounds)} rounds, {m.steps()} step samples")
    if not m.ok_rounds:
        print(f"error: every round raised: {m.errors}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": m.attempted, "failed": m.failed, "metrics": {}}))
        return 1
    own, children = measure.peak_rss_mb()
    prov = provenance(
        args,
        cfg,
        m.workers,
        {
            "rounds": len(m.rounds),
            "errors": m.errors,
            "csv_digest": m.ok_rounds[0].digest,
            "setup_samples": len(setup_times),
            "step_samples": m.steps(),
            "step_samples_beyond_p90": m.steps() - int(0.9 * m.steps()),
            "grid_wall_s": m.grid_wall_s,
            "busy_threads_mean": m.cpu_s / m.elapsed_s,
            "pool_busy_frac": measure.pool_busy_frac(m),
            "step_ms_p50": measure.percentile_ms(m.step_times(), 50),
            "step_ms_by_kind": {
                label: {"p50": measure.percentile_ms(t, 50), "p90": measure.percentile_ms(t, 90), "samples": len(t)}
                for label, t in m.step_times_by_label().items()
            },
            "peak_rss_mb": {"self": own, "children": children},
        },
    )
    print(f"csv_digest {m.ok_rounds[0].digest}")
    print(f"  {'step_ms_p50':<48} {prov['step_ms_p50']!r} ms ({m.steps()} samples; not a gated metric)")
    _emit(measure.end_to_end(setup_times, m), correct, m.attempted, m.failed, prov, out_dir)
    return 0 if correct else 1


def run_traced(args, w, cfg, out_dir: Path) -> int:
    import measure
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        problems, _ = measure.time_setup(cfg, 1)
    csv_dir = str(out_dir / "csv")
    pool = measure.measure(cfg, problems, csv_dir, 0.0, 0, min_rounds=1)
    with measure.worker_cap("1"):
        plain = measure.measure(cfg, problems, csv_dir, 0.0, 0, min_rounds=1)
        with tracer.installed():
            traced = measure.measure(cfg, problems, csv_dir, 0.0, 0, min_rounds=1)
    tracer.write(str(out_dir / "spans.jsonl"))
    runs = (pool, plain, traced)
    found = []
    for m in runs:
        found += measure.check_measurement(cfg, problems, m)
    digests = sorted({r.digest for m in runs for r in m.ok_rounds})
    if len(digests) > 1:
        found.append(f"CSV digest differs between pool, serial and traced rounds: {digests}")
    correct = _report_gate(found)
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    if not all(m.ok_rounds for m in runs):
        print(f"error: a round raised: {[e for m in runs for e in m.errors]}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    metrics = spans.layer_metrics(tracer)
    metrics["bench.pool.workers"] = (pool.workers, "count")
    metrics["bench.pool.busy_frac"] = (measure.pool_busy_frac(pool), "ratio")
    metrics["trace.overhead_frac"] = (traced.grid_wall_s / plain.grid_wall_s - 1.0, "ratio")
    metrics["trace.overhead_est_frac"] = (len(tracer.spans) * spans.span_cost_s() / plain.grid_wall_s, "ratio")
    print(f"workload {w.name} seed {args.seed}: traced {traced.steps()} steps, {len(tracer.spans)} spans")
    prov = provenance(
        args,
        cfg,
        pool.workers,
        {
            "csv_digest": digests[0] if digests else None,
            "spans": len(tracer.spans),
            "untraced_serial_wall_s": plain.grid_wall_s,
            "traced_serial_wall_s": traced.grid_wall_s,
            "pool_wall_s": pool.grid_wall_s,
        },
    )
    _emit(metrics, correct, attempted, failed, prov, out_dir)
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS and failures stay separate."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"workload {name} did not finish within 900 s", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            status = 1
        combined["correct"] = combined["correct"] and record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    if not (SRC / "vqebench" / "__init__.py").is_file():
        print(f"error: no vqebench package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # One BLAS thread per process unless the caller chose otherwise: the pool
    # runs nproc workers, so busy threads stay <= nproc. Multi-threaded BLAS
    # also makes small setups jitter several-fold between processes.
    for var in BLAS_THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    args = _parser(workloads.WORKLOADS).parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.grid_config(w, args.seed, str(out_dir / "csv"))
    if args.trace:
        return run_traced(args, w, cfg, out_dir)
    return run_end_to_end(args, w, cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
