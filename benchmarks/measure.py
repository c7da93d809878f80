"""Setup timing, grid rounds, end-to-end metrics and the correctness gate.

A round is one `bench.run_benchmark` call on the workload's grid followed by
`bench.emit_csv`. Every round of a run repeats the same seeded grid, so the
emitted CSV bytes must match across rounds. `run_benchmark` builds its
problems on every call; the benchmark times `bench.build_problem` on its own
(setup) and hands `run_benchmark` the problem it built, so round wall time
holds only the grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from vqebench import bench
from vqebench.optimizers import Problem

from workloads import charged_schedule

# The variational bound, with room for rounding in the exact energy.
ENERGY_ERROR_FLOOR = -1e-9


@dataclass
class Round:
    """One grid execution; `error` names the exception type when it raised."""

    jobs: int
    wall_s: float
    result: bench.BenchmarkResult | None = None
    error: str | None = None
    digest: str | None = None

    @property
    def failed_runs(self) -> int:
        if self.result is None:
            return self.jobs
        return self.result.failures

    def step_times(self) -> dict[str, list[float]]:
        """Per-step wall times of every run by optimizer label, the step-0 row skipped."""
        if self.result is None:
            return {}
        out: dict[str, list[float]] = {}
        for key, runs in self.result.runs.items():
            out.setdefault(key.label, []).extend(rec.wall_time for r in runs for rec in r.records[1:])
        return out


@dataclass
class Measurement:
    rounds: list[Round] = field(default_factory=list)
    workers: int = 0
    cpu_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def ok_rounds(self) -> list[Round]:
        return [r for r in self.rounds if r.result is not None]

    @property
    def attempted(self) -> int:
        return sum(r.jobs for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed_runs for r in self.rounds)

    @property
    def errors(self) -> list[str]:
        return [r.error for r in self.rounds if r.error is not None]

    @property
    def grid_wall_s(self) -> float:
        return sum(r.wall_s for r in self.ok_rounds)

    def step_times_by_label(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for rnd in self.ok_rounds:
            for label, times in rnd.step_times().items():
                out.setdefault(label, []).extend(times)
        return out

    def step_times(self) -> list[float]:
        return [t for times in self.step_times_by_label().values() for t in times]

    def steps(self) -> int:
        return len(self.step_times())


def time_setup(cfg: bench.RunConfig, reps: int) -> tuple[dict[int, Problem], list[float]]:
    """Build every problem `reps` times; return the last build and each build's time."""
    times = []
    problems = {}
    for _ in range(reps):
        started = time.perf_counter()
        problems = {size: bench.build_problem(cfg, size) for size in cfg.sizes}
        times.append(time.perf_counter() - started)
    return problems, times


@contextlib.contextmanager
def reuse_problems(problems: dict[int, Problem]):
    """Make `run_benchmark` use already-built problems instead of rebuilding them."""
    original = bench.build_problem

    def prebuilt(cfg, size):
        return problems[size]

    bench.build_problem = prebuilt
    try:
        yield
    finally:
        bench.build_problem = original


@contextlib.contextmanager
def worker_cap(value: str):
    """Set `VQEBENCH_WORKERS` for the block."""
    previous = os.environ.get(bench.WORKERS_ENV_VAR)
    os.environ[bench.WORKERS_ENV_VAR] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[bench.WORKERS_ENV_VAR]
        else:
            os.environ[bench.WORKERS_ENV_VAR] = previous


def csv_digest(paths: list[str]) -> str:
    """sha256 over the emitted files' names and bytes."""
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def job_count(cfg: bench.RunConfig) -> int:
    return len(cfg.sizes) * len(cfg.optimizers) * len(cfg.seeds)


def pool_workers(cfg: bench.RunConfig) -> int:
    """The pool size `run_benchmark` picks: VQEBENCH_WORKERS or the CPU count, capped by the jobs."""
    cap = os.environ.get(bench.WORKERS_ENV_VAR)
    return min(int(cap) if cap else os.cpu_count() or 1, job_count(cfg))


def run_round(cfg: bench.RunConfig, problems: dict[int, Problem], out_dir: str) -> Round:
    """Execute the grid once and emit its CSVs; a raising grid becomes a failed round."""
    jobs = job_count(cfg)
    started = time.perf_counter()
    try:
        with reuse_problems(problems):
            result = bench.run_benchmark(cfg)
    except Exception as exc:  # noqa: BLE001 - the benchmark reports the failure and goes on
        traceback.print_exc()
        return Round(jobs=jobs, wall_s=time.perf_counter() - started, error=type(exc).__name__)
    wall = time.perf_counter() - started
    return Round(jobs=jobs, wall_s=wall, result=result, digest=csv_digest(bench.emit_csv(result, out_dir)))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure(
    cfg: bench.RunConfig,
    problems: dict[int, Problem],
    out_dir: str,
    seconds: float,
    min_steps: int,
    min_rounds: int = 2,
    between_rounds=None,
) -> Measurement:
    """Run whole rounds until `seconds` have passed, with at least `min_rounds`
    rounds and `min_steps` step samples. A round that raises ends the run.
    `between_rounds`, when given, is called after each round outside its timing."""
    m = Measurement(workers=pool_workers(cfg))
    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    while (
        time.perf_counter() - started < seconds
        or len(m.rounds) < min_rounds
        or m.steps() < min_steps
    ):
        rnd = run_round(cfg, problems, out_dir)
        m.rounds.append(rnd)
        if rnd.error is not None:
            break
        if between_rounds is not None:
            between_rounds()
    m.cpu_s = _cpu_seconds() - cpu0
    m.elapsed_s = time.perf_counter() - started
    return m


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q))


def pool_busy_frac(m: Measurement) -> float:
    """Sum of step wall times over workers x grid wall: the share of the pool kept busy."""
    return sum(m.step_times()) / (m.workers * m.grid_wall_s)


def end_to_end(setup_times: list[float], m: Measurement) -> dict[str, tuple[float, str]]:
    samples = m.step_times()
    own, children = peak_rss_mb()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "steps_per_s": (len(samples) / m.grid_wall_s, "steps/s"),
        "step_ms_mean": (1e3 * sum(samples) / len(samples), "ms"),
        "step_ms_p90": (percentile_ms(samples, 90), "ms"),
        "peak_rss_mb": (max(own, children), "MB"),
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_result(cfg: bench.RunConfig, problems: dict[int, Problem], result: bench.BenchmarkResult) -> list[str]:
    """Variational bound and circuit accounting for every record of every run.

    Failed runs (non-finite values) are skipped here: they count in `failed`.
    """
    problems_found = []
    for key, runs in result.runs.items():
        entry = next(e for e in cfg.optimizers if e.label == key.label)
        config = bench.optimizer_config(cfg, entry)
        d = problems[key.size].circuit.param_count
        initial, per_step = charged_schedule(entry.kind, config, d)
        for r in (r for r in runs if not r.failed):
            where = f"{key.label} n={key.size} seed={r.seed}"
            if len(r.records) != config.max_steps + 1:
                problems_found.append(f"{where}: {len(r.records)} records, expected {config.max_steps + 1}")
            for rec in r.records:
                if not rec.energy_error >= ENERGY_ERROR_FLOOR:
                    problems_found.append(f"{where} step {rec.step}: energy_error {rec.energy_error!r} below the bound")
                want = initial + rec.step * per_step
                if rec.circuits_charged != want:
                    problems_found.append(
                        f"{where} step {rec.step}: {rec.circuits_charged} circuits charged, expected {want}"
                    )
    return problems_found


def check_measurement(cfg: bench.RunConfig, problems: dict[int, Problem], m: Measurement) -> list[str]:
    """The gate: bound and accounting on every round, one CSV digest across rounds."""
    found = []
    for rnd in m.ok_rounds:
        found += check_result(cfg, problems, rnd.result)
    digests = sorted({r.digest for r in m.ok_rounds})
    if len(digests) > 1:
        found.append(f"CSV digest differs across rounds: {digests}")
    return found
