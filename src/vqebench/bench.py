"""Configuration-driven benchmark harness.

Parses structured-text run configurations, executes the (size x optimizer x
seed) grid deterministically, aggregates energy-error trajectories across
seeds, and emits stable CSV files.
"""

from __future__ import annotations

import functools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from .ansatz import AnsatzKind, build_ansatz
from .optimizers import (
    OPTIMIZER_KINDS,
    OptimizerConfig,
    Problem,
    RunResult,
    run,
)
from .pauli import MAX_DENSE_QUBITS, PauliSum, build_schwinger, build_tfim, exact_ground_energy
from .values import check_value, read_value, write_value

WORKERS_ENV_VAR = "VQEBENCH_WORKERS"

RUN_CSV_HEADER = "step,seed,loss,energy,energy_error,circuits_per_sample_convention,circuits_raw,blocked"
AGGREGATE_CSV_HEADER = (
    "step,n_seeds,energy_error_mean,energy_error_std,"
    "circuits_per_sample_convention_mean,circuits_raw_mean"
)


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


@dataclass(frozen=True)
class OptimizerEntry:
    """One labelled optimizer in the grid; overrides patch the base config."""

    label: str
    kind: str
    overrides: tuple[tuple[str, object], ...] = ()


# Each problem kind's Hamiltonian builder and its parameter names, in the
# builder's argument order after the qubit count.
PROBLEMS = {
    "tfim": (build_tfim, ("J", "h")),
    "schwinger": (build_schwinger, ("x", "mu", "l")),
}

# Labels name the output files, so they must be plain names.
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.+-]*")


@dataclass(frozen=True)
class RunConfig:
    """One (size x optimizer x seed) grid, checked whenever it is constructed.

    A parsed file, a preset and every `dataclasses.replace` run the same
    checks and raise ConfigError. Only the dense-size guard waits for
    run_benchmark, so that a full-size preset can still be printed.
    """

    problem_kind: str  # tfim | schwinger
    problem_params: tuple[tuple[str, float], ...]
    sizes: tuple[int, ...]
    ansatz_kind: str
    layers: int
    optimizer: OptimizerConfig
    optimizers: tuple[OptimizerEntry, ...]
    seeds: tuple[int, ...]
    out_dir: str
    bond_order: str = "even_first"  # schwinger_so4 sublayer order

    def __post_init__(self):
        if self.problem_kind not in PROBLEMS:
            raise ConfigError(f"unknown problem kind {self.problem_kind!r}")
        builder, expected = PROBLEMS[self.problem_kind]
        names = tuple(key for key, _ in self.problem_params)
        if names != expected:
            raise ConfigError(f"{self.problem_kind} takes parameters {expected}, got {names}")
        checks = [(key, "float", value) for key, value in self.problem_params]
        checks += [("qubits", "int", size) for size in self.sizes]
        checks += [("layers", "int", self.layers)]
        checks += [("seeds", "int", seed) for seed in self.seeds]
        try:
            for check in checks:
                check_value(*check)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Named as in the file: a repeated entry would run twice or lose its overrides.
        _require_distinct("qubits", self.sizes)
        _require_distinct("kinds", [entry.label for entry in self.optimizers])
        _require_distinct("seeds", self.seeds)
        if not self.out_dir:
            raise ConfigError("out must not be empty")
        for size in self.sizes:
            try:
                # The ansatz spec and the builder apply their own size rules (the builder: finite terms too).
                AnsatzKind(self.ansatz_kind, size, self.layers, self.bond_order)
                _hamiltonian(builder, size, *(float(value) for _, value in self.problem_params))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for entry in self.optimizers:
            if not _LABEL.fullmatch(entry.label):
                raise ConfigError(f"optimizer label {entry.label!r} must be a plain name ({_LABEL.pattern})")
            if entry.kind not in OPTIMIZER_KINDS:
                raise ConfigError(f"unknown optimizer kind {entry.kind!r} for entry {entry.label!r}")
            try:
                optimizer_config(self, entry)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid [optimizer.{entry.label}] values: {exc}") from exc


@functools.cache
def _hamiltonian(builder, size: int, *values: float) -> PauliSum:
    """A model's Hamiltonian, built once per process for its config checks, replaces and build_problem."""
    return builder(size, *values)


def _require_distinct(key: str, values) -> None:
    if not values:
        raise ConfigError(f"{key} needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"{key} must be distinct, got {list(values)}")


def _raw_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {line_no}: empty section name")
            if current in sections:
                raise ConfigError(f"line {line_no}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value.strip(), line_no)
    return sections


# Each optimizer key's kind: its annotation, a string under `from __future__ import annotations`.
_OPTIMIZER_KEYS = {f.name: f.type for f in fields(OptimizerConfig)}


def _read(raw: str, line_no: int, kind: str, key: str):
    """The value of `key` read as a `kind`."""
    try:
        return read_value(key, kind, raw)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from None


def _list(raw: str, line_no: int, key: str, kind: str | None = None) -> tuple:
    """The comma-separated items of `key`, each read as a `kind` if one is given.
    An empty value has no items; an empty item is an error, never skipped."""
    items = tuple(item.strip() for item in raw.split(",")) if raw else ()
    if "" in items:
        raise ConfigError(f"line {line_no}: key {key!r} has an empty item")
    return items if kind is None else tuple(_read(item, line_no, kind, key) for item in items)


def _require(section: dict, section_name: str, key: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section [{section_name}]")
    return section.pop(key)


def _reject_unknown(section: dict, section_name: str):
    if section:
        key, (_, line_no) = next(iter(section.items()))
        raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section_name}]")


def _optimizer_values(section: dict, section_name: str) -> dict:
    _reject_unknown({k: v for k, v in section.items() if k not in _OPTIMIZER_KEYS}, section_name)
    return {key: _read(raw, line_no, _OPTIMIZER_KEYS[key], key) for key, (raw, line_no) in section.items()}


def parse_config(text: str) -> RunConfig:
    """Parse a structured-text run configuration.

    Sections: [problem], [ansatz], [optimizer], optional [optimizer.<LABEL>]
    overrides, [run]. Unknown sections or keys, and values that do not read as
    their key's type, are rejected with the offending line number; RunConfig
    checks everything else.
    """
    sections = _raw_sections(text)

    problem = _take_section(sections, "problem")
    problem_kind, line_no = _require(problem, "problem", "kind")
    if problem_kind not in PROBLEMS:
        raise ConfigError(f"line {line_no}: unknown problem kind {problem_kind!r}")
    sizes = _list(*_require(problem, "problem", "qubits"), "qubits", "int")
    _, names = PROBLEMS[problem_kind]
    params = tuple(
        (key, _read(*_require(problem, "problem", key), "float", key)) for key in names
    )
    _reject_unknown(problem, "problem")

    ansatz = _take_section(sections, "ansatz")
    ansatz_kind, _ = _require(ansatz, "ansatz", "kind")
    layers = _read(*_require(ansatz, "ansatz", "layers"), "int", "layers")
    bond_order, _ = ansatz.pop("bond_order", ("even_first", None))
    _reject_unknown(ansatz, "ansatz")

    optimizer = _take_section(sections, "optimizer")
    labels = _list(*_require(optimizer, "optimizer", "kinds"), "kinds")
    base_values = _optimizer_values(optimizer, "optimizer")
    try:
        base = OptimizerConfig(**base_values)
    except ValueError as exc:
        raise ConfigError(f"invalid [optimizer] values: {exc}") from exc
    entries = []
    for label in labels:
        overrides = sections.pop(f"optimizer.{label}", {})
        kind, _ = overrides.pop("kind", (label, None))
        values = _optimizer_values(overrides, f"optimizer.{label}")
        entries.append(OptimizerEntry(label=label, kind=kind, overrides=tuple(sorted(values.items()))))

    run_section = _take_section(sections, "run")
    seeds = _list(*_require(run_section, "run", "seeds"), "seeds", "int")
    out_dir, _ = _require(run_section, "run", "out")
    _reject_unknown(run_section, "run")

    if sections:
        raise ConfigError(f"unknown section [{next(iter(sections))}]")

    return RunConfig(
        problem_kind=problem_kind,
        problem_params=params,
        sizes=sizes,
        ansatz_kind=ansatz_kind,
        layers=layers,
        optimizer=base,
        optimizers=tuple(entries),
        seeds=seeds,
        out_dir=out_dir,
        bond_order=bond_order,
    )


def _take_section(sections, name: str):
    if name not in sections:
        raise ConfigError(f"missing section [{name}]")
    return sections.pop(name)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config text; parse(serialize(parse(text))) is the identity."""
    lines = ["[problem]", f"kind = {cfg.problem_kind}"]
    lines.append(f"qubits = {', '.join(write_value('int', s) for s in cfg.sizes)}")
    for key, value in cfg.problem_params:
        lines.append(f"{key} = {write_value('float', value)}")
    lines += ["", "[ansatz]", f"kind = {cfg.ansatz_kind}", f"layers = {write_value('int', cfg.layers)}"]
    if cfg.ansatz_kind == "schwinger_so4":
        lines.append(f"bond_order = {cfg.bond_order}")
    lines += ["", "[optimizer]"]
    lines.append(f"kinds = {', '.join(e.label for e in cfg.optimizers)}")
    for key, kind in _OPTIMIZER_KEYS.items():
        lines.append(f"{key} = {write_value(kind, getattr(cfg.optimizer, key))}")
    for entry in cfg.optimizers:
        if entry.kind != entry.label or entry.overrides:
            lines += ["", f"[optimizer.{entry.label}]"]
            if entry.kind != entry.label:
                lines.append(f"kind = {entry.kind}")
            for key, value in entry.overrides:
                lines.append(f"{key} = {write_value(_OPTIMIZER_KEYS[key], value)}")
    lines += ["", "[run]"]
    lines.append(f"seeds = {', '.join(write_value('int', s) for s in cfg.seeds)}")
    out = cfg.out_dir
    # '#' starts a comment, and a value is read stripped from one line.
    if "#" in out or out != out.strip() or len(out.splitlines()) > 1:
        raise ConfigError(f"out {out!r} would not read back: it has a '#', a line break or outer whitespace")
    lines.append(f"out = {out}")
    return "\n".join(lines) + "\n"


def optimizer_config(cfg: RunConfig, entry: OptimizerEntry) -> OptimizerConfig:
    """Base optimizer config with one entry's overrides applied."""
    return replace(cfg.optimizer, **dict(entry.overrides))


def build_problem(cfg: RunConfig, size: int) -> Problem:
    builder, _ = PROBLEMS[cfg.problem_kind]
    h = _hamiltonian(builder, size, *(float(value) for _, value in cfg.problem_params))
    circuit = build_ansatz(AnsatzKind(cfg.ansatz_kind, size, cfg.layers, cfg.bond_order))
    return Problem(circuit=circuit, hamiltonian=h, ground_energy=exact_ground_energy(h))


# ---------------------------------------------------------------------------
# Presets: the published experiment grids. The full-size grids exceed the
# dense-diagonalization oracle (n <= MAX_DENSE_QUBITS) and desk-scale budgets;
# override qubits/seeds/steps on the command line to shrink them.
# ---------------------------------------------------------------------------


# Figs. 2 and 5 run every optimizer kind, QNG with a stronger regularizer.
_FIGURE_ENTRIES = tuple(
    OptimizerEntry(label=k, kind=k, overrides=(("beta", 0.1),) if k == "QNG" else ())
    for k in OPTIMIZER_KINDS
)

_TFIM_FIG2 = RunConfig(
    problem_kind="tfim",
    problem_params=(("J", -1.0), ("h", -2.0)),
    sizes=(12, 17, 20),
    ansatz_kind="hardware_efficient",
    layers=3,
    optimizer=OptimizerConfig(samples=10, shots=8192, max_steps=300),
    optimizers=_FIGURE_ENTRIES,
    seeds=tuple(range(30)),
    out_dir="results/tfim-fig2",
)

PRESETS = {
    "tfim-fig2": _TFIM_FIG2,
    "schwinger-fig5": RunConfig(
        problem_kind="schwinger",
        problem_params=(("x", 1.0), ("mu", 0.5), ("l", 0.0)),
        sizes=(4, 6, 8),
        ansatz_kind="schwinger_so4",
        layers=2,
        optimizer=OptimizerConfig(samples=15, shots=10024, max_steps=200),
        optimizers=_FIGURE_ENTRIES,
        seeds=tuple(range(30)),
        out_dir="results/schwinger-fig5",
    ),
    # Fig. 2's TFIM grid at n = 12: Stein natural gradient at N = 5 against
    # an N sweep of QNSPSA.
    "appendixC": replace(
        _TFIM_FIG2,
        sizes=(12,),
        optimizer=replace(_TFIM_FIG2.optimizer, samples=5),
        optimizers=(
            OptimizerEntry(label="QNSTEIN2", kind="QNSTEIN2"),
            OptimizerEntry(label="QNSTEIN3", kind="QNSTEIN3"),
            *(
                OptimizerEntry(label=f"QNSPSA-N{n}", kind="QNSPSA", overrides=(("samples", n),))
                for n in (5, 10, 20)
            ),
        ),
        out_dir="results/appendixC",
    ),
}


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridKey:
    size: int
    label: str


@dataclass
class BenchmarkResult:
    config: RunConfig
    runs: dict[GridKey, tuple[RunResult, ...]]
    failures: int


def _worker_count(n_jobs: int) -> int:
    text = os.environ.get(WORKERS_ENV_VAR)
    if text is None:
        return min(os.cpu_count() or 1, n_jobs)
    try:
        cap = read_value(WORKERS_ENV_VAR, "int", text)
        check_value(WORKERS_ENV_VAR, "int", cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return min(cap, n_jobs)


def run_benchmark(cfg: RunConfig) -> BenchmarkResult:
    """Execute the (size x optimizer x seed) grid.

    Runs are independent and seed-deterministic, so the grid executes on a
    bounded worker pool; jobs are listed in output order (seeds sorted), so
    the result does not depend on the worker count or completion order.
    """
    oversized = [s for s in cfg.sizes if s > MAX_DENSE_QUBITS]
    if oversized:
        raise ConfigError(
            f"system sizes {oversized} exceed the dense ground-energy oracle "
            f"(n <= {MAX_DENSE_QUBITS}); shrink the grid (e.g. --qubits) for desk scale"
        )
    # Made before the grid runs, so an unusable directory loses no runs.
    os.makedirs(cfg.out_dir, exist_ok=True)
    # One problem per size: the dense ground-energy diagonalization is the
    # expensive part and is shared across the optimizer/seed grid.
    problems = {size: build_problem(cfg, size) for size in cfg.sizes}
    cells = [(size, entry) for size in cfg.sizes for entry in cfg.optimizers]
    seeds = sorted(cfg.seeds)
    jobs = [
        (entry.kind, problems[size], optimizer_config(cfg, entry), seed)
        for size, entry in cells
        for seed in seeds
    ]
    workers = _worker_count(len(jobs))
    if workers <= 1:
        results = list(map(run, *zip(*jobs)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, *zip(*jobs)))
    # Each cell's runs are the next len(seeds) results.
    ordered = iter(results)
    runs = {
        GridKey(size=size, label=entry.label): tuple(islice(ordered, len(seeds)))
        for size, entry in cells
    }
    return BenchmarkResult(config=cfg, runs=runs, failures=sum(r.failed for r in results))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def run_rows(runs) -> list[str]:
    return [
        f"{rec.step},{result.seed},{_fmt(rec.loss)},{_fmt(rec.energy)},"
        f"{_fmt(rec.energy_error)},{rec.circuits_charged},{rec.circuits_raw},"
        f"{int(rec.blocked)}"
        for result in runs
        for rec in result.records
    ]


def aggregate_rows(runs) -> list[str]:
    """Mean and std of the energy error per step across surviving seeds."""
    surviving = [r for r in runs if not r.failed]
    n_steps = min((len(r.records) for r in surviving), default=0)
    rows = []
    for k in range(n_steps):
        errs = np.array([r.records[k].energy_error for r in surviving])
        charged = np.array([r.records[k].circuits_charged for r in surviving], dtype=float)
        raw = np.array([r.records[k].circuits_raw for r in surviving], dtype=float)
        rows.append(
            f"{surviving[0].records[k].step},{len(surviving)},{_fmt(errs.mean())},"
            f"{_fmt(errs.std(ddof=0))},{_fmt(charged.mean())},{_fmt(raw.mean())}"
        )
    return rows


def emit_csv(result: BenchmarkResult, out_dir: str | None = None) -> list[str]:
    """Write one per-run CSV and one aggregate CSV per (optimizer, size).

    UTF-8, LF line endings, full double-precision decimals. Returns the
    written paths (sorted).
    """
    cfg = result.config
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    written = []
    for key in sorted(result.runs, key=lambda k: (k.label, k.size)):
        runs = result.runs[key]
        stem = os.path.join(out, f"{key.label}_{cfg.problem_kind}{key.size}q")
        written.append(_write_csv(f"{stem}.csv", RUN_CSV_HEADER, run_rows(runs)))
        written.append(_write_csv(f"{stem}_aggregate.csv", AGGREGATE_CSV_HEADER, aggregate_rows(runs)))
    return sorted(written)


def _write_csv(path: str, header: str, rows: list[str]) -> str:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path
