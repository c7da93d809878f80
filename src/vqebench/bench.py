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
from .pauli import MAX_DENSE_QUBITS, build_schwinger, build_tfim, exact_ground_energy, tfim_ground_energy
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


# Each problem kind's Hamiltonian builder, cached so that the config check, build_problem
# and `vqebench exact` share one build per (kind, size, parameters); its parameter names in
# the builder's argument order after the qubit count; and its ground-energy oracle, called
# with the built sum and those parameters: the TFIM's closed form, and for Schwinger the
# dense solve (exact_ground_energy, looked up when called).
PROBLEMS = {
    "tfim": (functools.cache(build_tfim), ("J", "h"), lambda ham, J, h: tfim_ground_energy(ham.qubit_count, J, h)),
    "schwinger": (functools.cache(build_schwinger), ("x", "mu", "l"), lambda ham, *_: exact_ground_energy(ham)),
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
        builder, expected, _ = PROBLEMS[self.problem_kind]
        names = tuple(key for key, _ in self.problem_params)
        if names != expected:
            raise ConfigError(f"{self.problem_kind} takes parameters {expected}, got {names}")
        checks = [(key, "float", value) for key, value in self.problem_params]
        checks += [("qubits", "int", size) for size in self.sizes]
        checks += [("seeds", "int", seed) for seed in self.seeds]
        try:
            for check in checks:
                check_value(*check)
            # Named as in the file: a repeated entry would run twice or lose its overrides.
            _require_distinct("qubits", self.sizes)
            _require_distinct("kinds", [entry.label for entry in self.optimizers])
            _require_distinct("seeds", self.seeds)
            if not self.out_dir:
                raise ValueError("out must not be empty")
            for size in self.sizes:
                # The ansatz spec applies its size and layer rules, the builder its size rule and finite terms.
                AnsatzKind(self.ansatz_kind, size, self.layers, self.bond_order)
                builder(size, *(float(value) for _, value in self.problem_params))
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


def _require_distinct(key: str, values) -> None:
    if not values:
        raise ValueError(f"{key} needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"{key} must be distinct, got {list(values)}")


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


def _take(section: dict, section_name: str, key: str, kind=None, items=False, default=None, choices=None):
    """Pop `key` from its section and return its value read as a `kind` (text without
    one), or with `items` its comma-separated items, each read so; an empty value has
    no items, and an empty item is an error. A missing key gives `default`, an error
    without one; a value outside `choices`, when given, is an error too."""
    raw, line_no = section.pop(key, (default, None))
    if raw is None:
        raise ConfigError(f"missing key {key!r} in section [{section_name}]")
    if choices is not None and raw not in choices:
        raise ConfigError(f"line {line_no}: unknown {section_name} {key} {raw!r}")
    texts = [raw]
    if items:
        texts = [item.strip() for item in raw.split(",")] if raw else []
        if "" in texts:
            raise ConfigError(f"line {line_no}: key {key!r} has an empty item")
    try:
        values = tuple(text if kind is None else read_value(key, kind, text) for text in texts)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from None
    return values if items else values[0]


def _reject_unknown(section: dict, section_name: str):
    if section:
        key, (_, line_no) = next(iter(section.items()))
        raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section_name}]")


def _optimizer_values(section: dict, section_name: str) -> dict:
    _reject_unknown({k: v for k, v in section.items() if k not in _OPTIMIZER_KEYS}, section_name)
    return {key: _take(section, section_name, key, _OPTIMIZER_KEYS[key]) for key in list(section)}


def parse_config(text: str) -> RunConfig:
    """Parse a structured-text run configuration.

    Sections: [problem], [ansatz], [optimizer], optional [optimizer.<LABEL>]
    overrides, [run]. Unknown sections or keys, and values that do not read as
    their key's type, are rejected with the offending line number; RunConfig
    checks everything else.
    """
    sections = _raw_sections(text)

    problem = _take_section(sections, "problem")
    problem_kind = _take(problem, "problem", "kind", choices=PROBLEMS)
    sizes = _take(problem, "problem", "qubits", "int", items=True)
    _, names, _ = PROBLEMS[problem_kind]
    params = tuple((key, _take(problem, "problem", key, "float")) for key in names)
    _reject_unknown(problem, "problem")

    ansatz = _take_section(sections, "ansatz")
    ansatz_kind = _take(ansatz, "ansatz", "kind")
    layers = _take(ansatz, "ansatz", "layers", "int")
    bond_order = _take(ansatz, "ansatz", "bond_order", default="even_first")
    _reject_unknown(ansatz, "ansatz")

    optimizer = _take_section(sections, "optimizer")
    labels = _take(optimizer, "optimizer", "kinds", items=True)
    base_values = _optimizer_values(optimizer, "optimizer")
    try:
        base = OptimizerConfig(**base_values)
    except ValueError as exc:
        raise ConfigError(f"invalid [optimizer] values: {exc}") from exc
    entries = []
    for label in labels:
        name = f"optimizer.{label}"
        overrides = sections.pop(name, {})
        kind = _take(overrides, name, "kind", default=label)
        values = _optimizer_values(overrides, name)
        entries.append(OptimizerEntry(label=label, kind=kind, overrides=tuple(sorted(values.items()))))

    run_section = _take_section(sections, "run")
    seeds = _take(run_section, "run", "seeds", "int", items=True)
    out_dir = _take(run_section, "run", "out")
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
    builder, _, ground_energy = PROBLEMS[cfg.problem_kind]
    values = [float(value) for _, value in cfg.problem_params]
    h = builder(size, *values)
    circuit = build_ansatz(AnsatzKind(cfg.ansatz_kind, size, cfg.layers, cfg.bond_order))
    return Problem(circuit=circuit, hamiltonian=h, ground_energy=ground_energy(h, *values))


# ---------------------------------------------------------------------------
# Presets: the published experiment grids. The full-size grids exceed the
# dense-matrix guard (n <= MAX_DENSE_QUBITS) and desk-scale budgets;
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
            f"system sizes {oversized} exceed the dense-matrix guard "
            f"(n <= {MAX_DENSE_QUBITS}); shrink the grid (e.g. --qubits) for desk scale"
        )
    # Made before the grid runs, so an unusable directory loses no runs.
    os.makedirs(cfg.out_dir, exist_ok=True)
    # One problem per size, shared across the optimizer/seed grid: Schwinger's
    # ground energy is a dense solve.
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


def run_rows(runs) -> list[str]:
    return [
        f"{rec.step},{result.seed},{write_value('float', rec.loss)},{write_value('float', rec.energy)},"
        f"{write_value('float', rec.energy_error)},{rec.circuits_charged},{rec.circuits_raw},{int(rec.blocked)}"
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
        e = np.frexp(np.abs(errs).max())[1]  # the std of errs / 2**e, times 2**e: exact, and no square overflows
        std = np.ldexp(np.ldexp(errs, -e).std(ddof=0), e)
        values = ",".join(write_value("float", v) for v in (errs.mean(), std, charged.mean(), raw.mean()))
        rows.append(f"{surviving[0].records[k].step},{len(surviving)},{values}")
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
