"""Benchmark workloads: seeded optimizer grids taken from the published presets.

Each workload fixes a preset, a system size, the optimizer kinds and a small
grid shape (seeds per kind, steps per run). The benchmark seed only chooses
the job seeds, so every run of a workload does the same amount of work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from vqebench import bench
from vqebench.optimizers import OptimizerConfig

# Charged circuits per sample and step under the per-sample convention:
# gradient (2 per sample) plus, for the natural kinds, the metric estimator.
CHARGED_PER_SAMPLE = {"SPSA": 2, "STEIN": 2, "QNSPSA": 6, "QNSTEIN2": 4, "QNSTEIN3": 5}
EXACT_GRADIENT_KINDS = ("GD", "QNG")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    qubits: int
    layers: int
    kinds: tuple[str, ...]
    seeds_per_kind: int
    steps: int
    # Problem builds timed before the first round, and again after every
    # round: a build of a few milliseconds falls inside one burst of the
    # machine's speed, so spreading the builds over the run steadies setup_s.
    setup_reps: int
    setup_reps_between_rounds: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tfim6-shots",
            preset="tfim-fig2",
            qubits=6,
            layers=2,
            kinds=("STEIN", "QNSPSA", "QNSTEIN2", "QNSTEIN3"),
            seeds_per_kind=2,
            steps=20,
            setup_reps=5,
            setup_reps_between_rounds=5,
            why=(
                "64 amplitudes: per-gate dispatch, per-term multinomial sampling and the "
                "estimators' per-sample loops dominate; setup is milliseconds"
            ),
        ),
        Workload(
            name="schwinger6-ref",
            preset="schwinger-fig5",
            qubits=6,
            layers=2,
            kinds=("GD", "QNG"),
            seeds_per_kind=2,
            steps=13,
            setup_reps=5,
            setup_reps_between_rounds=5,
            why=(
                "exact references (2d parameter-shift losses, 2d+1 statevectors) over 27 "
                "terms with X/Y flips; one sampled loss per step; largest d=60 solve"
            ),
        ),
        Workload(
            name="tfim12-shots",
            preset="tfim-fig2",
            qubits=12,
            layers=3,
            kinds=("SPSA", "QNSTEIN2"),
            seeds_per_kind=2,
            steps=15,
            setup_reps=1,
            setup_reps_between_rounds=0,
            why=(
                "4096 amplitudes: array-bound gate passes and 4096-outcome multinomials; "
                "setup is the dense diagonalization that sets time and peak memory"
            ),
        ),
    )
}


def job_seeds(workload: str, bench_seed: int, count: int) -> tuple[int, ...]:
    """Job seeds derived from the benchmark seed with crc32, stable across processes."""
    seeds = tuple(zlib.crc32(f"{workload}:{bench_seed}:{i}".encode()) for i in range(count))
    if len(set(seeds)) != count:
        raise ValueError(f"job seed collision for {workload} at seed {bench_seed}")
    return seeds


def grid_config(w: Workload, bench_seed: int, out_dir: str) -> bench.RunConfig:
    """The preset narrowed to the workload's size, kinds, seeds and steps."""
    cfg = bench.preset_config(w.preset)
    by_label = {e.label: e for e in cfg.optimizers}
    return replace(
        cfg,
        sizes=(w.qubits,),
        layers=w.layers,
        optimizers=tuple(by_label[k] for k in w.kinds),
        optimizer=replace(cfg.optimizer, max_steps=w.steps),
        seeds=job_seeds(w.name, bench_seed, w.seeds_per_kind),
        out_dir=out_dir,
    )


def charged_schedule(kind: str, config: OptimizerConfig, d: int) -> tuple[int, int]:
    """(circuits charged before step 1, circuits charged per step) by convention."""
    if kind in EXACT_GRADIENT_KINDS:
        per_step = 2 * d
    else:
        per_step = CHARGED_PER_SAMPLE[kind] * config.samples
    blocking = 1 if config.blocking_active else 0
    return blocking, per_step + blocking
