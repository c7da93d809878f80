import functools
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vqebench.bench as bench
import vqebench.pauli as pauli
from vqebench.bench import (
    AGGREGATE_CSV_HEADER,
    RUN_CSV_HEADER,
    ConfigError,
    OptimizerEntry,
    build_problem,
    emit_csv,
    parse_config,
    preset_config,
    run_benchmark,
    serialize_config,
)
from vqebench.cli import main
from vqebench.optimizers import OptimizerConfig, RunRecord, RunResult
from vqebench.pauli import build_tfim

SMALL_CONFIG = """
[problem]
kind = tfim
qubits = 2
J = -1.0
h = -2.0

[ansatz]
kind = hardware_efficient
layers = 1

[optimizer]
kinds = GD, QNSTEIN2
eta = 0.05
c = 0.05
b = 2.0
samples = 2
beta = 0.01
shots = 64
max_steps = 2
blocking = true
blocking_multiplier = 2.0

[optimizer.QNSTEIN2]
samples = 3

[run]
seeds = 0, 1
out = {out}
"""


def small_config(tmp_path, **kw):
    return parse_config(SMALL_CONFIG.format(out=tmp_path / "results"))


def test_parse_small_config(tmp_path):
    cfg = small_config(tmp_path)
    assert cfg.problem_kind == "tfim"
    assert cfg.sizes == (2,)
    assert dict(cfg.problem_params) == {"J": -1.0, "h": -2.0}
    assert cfg.optimizer.shots == 64
    assert cfg.optimizer.eta == 0.05
    assert [e.label for e in cfg.optimizers] == ["GD", "QNSTEIN2"]
    assert dict(cfg.optimizers[1].overrides) == {"samples": 3}
    assert cfg.seeds == (0, 1)


def test_a_config_and_build_problem_share_one_build_per_size(monkeypatch):
    # The config check builds each size's Hamiltonian (its size rule and finite
    # coefficients) through the cached builder in its PROBLEMS entry; every
    # replace, build_problem and `vqebench exact` reuse that build.
    assert bench.PROBLEMS["tfim"][0](5, -1.0, -2.0) is build_problem(
        replace(preset_config("tfim-fig2"), sizes=(5,)), 5
    ).hamiltonian
    builds = []

    def counted(n, J, h):
        builds.append(n)
        return build_tfim(n, J, h)

    monkeypatch.setitem(bench.PROBLEMS, "tfim", (functools.cache(counted), *bench.PROBLEMS["tfim"][1:]))
    cfg = replace(preset_config("tfim-fig2"), sizes=(4, 6))
    cfg = replace(cfg, seeds=(0,))
    assert builds == [4, 6]
    problem = build_problem(cfg, 6)
    assert builds == [4, 6]
    assert problem.hamiltonian is build_problem(replace(cfg, problem_params=(("J", -1), ("h", -2))), 6).hamiltonian
    assert builds == [4, 6]


def test_preset_tfim_fig2_values():
    cfg = preset_config("tfim-fig2")
    assert cfg.problem_kind == "tfim"
    assert dict(cfg.problem_params) == {"J": -1.0, "h": -2.0}
    assert cfg.sizes == (12, 17, 20)
    assert cfg.layers == 3
    base = cfg.optimizer
    assert (base.eta, base.samples, base.shots, base.max_steps) == (0.01, 10, 8192, 300)
    assert (base.c, base.b, base.beta) == (0.05, 2.0, 0.01)
    assert len(cfg.seeds) == 30
    labels = {e.label: e for e in cfg.optimizers}
    assert set(labels) == {"GD", "QNG", "SPSA", "QNSPSA", "STEIN", "QNSTEIN2", "QNSTEIN3"}
    assert dict(labels["QNG"].overrides) == {"beta": 0.1}


def test_preset_schwinger_fig5_values():
    cfg = preset_config("schwinger-fig5")
    assert cfg.problem_kind == "schwinger"
    assert dict(cfg.problem_params) == {"x": 1.0, "mu": 0.5, "l": 0.0}
    assert cfg.sizes == (4, 6, 8)
    assert cfg.layers == 2
    assert cfg.ansatz_kind == "schwinger_so4"
    assert cfg.optimizer.max_steps == 200
    assert cfg.optimizer.samples == 15
    assert cfg.optimizer.shots == 10024
    assert len(cfg.seeds) == 30


def test_preset_appendix_c_values():
    cfg = preset_config("appendixC")
    assert cfg.sizes == (12,)
    assert cfg.layers == 3
    labels = {e.label: (e.kind, dict(e.overrides)) for e in cfg.optimizers}
    assert labels["QNSTEIN2"] == ("QNSTEIN2", {})
    assert labels["QNSTEIN3"] == ("QNSTEIN3", {})
    assert cfg.optimizer.samples == 5
    sweep = {lbl: ov for lbl, (kind, ov) in labels.items() if kind == "QNSPSA"}
    assert {ov["samples"] for ov in sweep.values()} == {5, 10, 20}


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("tfim-fig9")


def test_parse_rejects_unknown_key_with_line_number():
    text = SMALL_CONFIG.format(out="x") + "\n[problem]\n"
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config(text)
    bad = SMALL_CONFIG.format(out="x").replace("eta = 0.05", "learning_rate = 0.05")
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'learning_rate'"):
        parse_config(bad)


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("[ansatz]", "[ ]", "line 8: empty section name"),
        ("layers = 1", "layers 1", "line 10: expected 'key = value', got 'layers 1'"),
        ("layers = 1", "= 1", "line 10: empty key"),
        ("eta = 0.05", "eta = 0.05\neta = 0.1", "line 15: duplicate key 'eta' in [optimizer]"),
        ("[run]", "[extra]\n\n[run]", "unknown section [extra]"),
        ("seeds = 0, 1", "seeds = 0,,3", "line 28: key 'seeds' has an empty item"),
        ("seeds = 0, 1", "seeds = 0, , 3", "line 28: key 'seeds' has an empty item"),
        ("qubits = 2", "qubits = 2,", "line 4: key 'qubits' has an empty item"),
        ("kinds = GD, QNSTEIN2", "kinds = GD,,QNSTEIN2", "line 13: key 'kinds' has an empty item"),
        ("kinds = GD, QNSTEIN2", "kinds = , GD", "line 13: key 'kinds' has an empty item"),
    ],
    ids=[
        "empty-section", "no-equals", "empty-key", "duplicate-key", "unknown-section",
        "empty-seed", "blank-seed", "trailing-comma-qubits", "empty-kind", "leading-comma-kinds",
    ],
)
def test_parse_rejects_malformed_lines(old, new, expected):
    text = SMALL_CONFIG.format(out="x")
    assert old in text
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        parse_config(text.replace(old, new))


_TFIM = "kind = tfim\nqubits = 2\nJ = -1.0\nh = -2.0"
_SCHWINGER = "kind = schwinger\nqubits = 2\nx = 1.0\nmu = 0.5\nl = 0.0"


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("kind = tfim\n", "", "missing key 'kind' in section [problem]"),
        ("qubits = 2\n", "", "missing key 'qubits' in section [problem]"),
        ("J = -1.0\n", "", "missing key 'J' in section [problem]"),
        ("h = -2.0\n", "", "missing key 'h' in section [problem]"),
        (_TFIM, "kind = schwinger\nqubits = 2\nmu = 0.5\nl = 0.0", "missing key 'x' in section [problem]"),
        (_TFIM, "kind = schwinger\nqubits = 2\nx = 1.0\nl = 0.0", "missing key 'mu' in section [problem]"),
        (_TFIM, "kind = schwinger\nqubits = 2\nx = 1.0\nmu = 0.5", "missing key 'l' in section [problem]"),
        ("kind = hardware_efficient\n", "", "missing key 'kind' in section [ansatz]"),
        ("layers = 1\n", "", "missing key 'layers' in section [ansatz]"),
        ("kinds = GD, QNSTEIN2\n", "", "missing key 'kinds' in section [optimizer]"),
        ("seeds = 0, 1\n", "", "missing key 'seeds' in section [run]"),
        ("out = x\n", "", "missing key 'out' in section [run]"),
        # An override section whose label is not in `kinds` belongs to no entry.
        ("[optimizer.QNSTEIN2]", "[optimizer.SPSA]", "unknown section [optimizer.SPSA]"),
        # Checked before the model parameters it names are read.
        ("kind = tfim\nqubits = 2\nJ", "kind = heisenberg\nqubits = 2\nJ", "line 3: unknown problem kind 'heisenberg'"),
    ],
    ids=[
        "problem-kind", "problem-qubits", "problem-J", "problem-h", "problem-x", "problem-mu", "problem-l",
        "ansatz-kind", "ansatz-layers", "optimizer-kinds", "run-seeds", "run-out", "orphan-override",
        "unknown-problem-kind",
    ],
)
def test_parse_names_each_missing_key_and_orphan_section(old, new, expected):
    text = SMALL_CONFIG.format(out="x")
    assert old in text
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        parse_config(text.replace(old, new))


def test_parse_rejects_missing_section():
    text = "\n".join(
        line for line in SMALL_CONFIG.format(out="x").splitlines() if "[run]" not in line and "seeds" not in line and "out =" not in line
    )
    with pytest.raises(ConfigError, match=r"missing section \[run\]"):
        parse_config(text)


def test_parse_rejects_key_outside_section():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("stray = 1\n[problem]\n")


def test_config_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    assert parse_config(serialize_config(cfg)) == cfg
    exact = replace(cfg, optimizer=replace(cfg.optimizer, shots=None))
    assert "\nshots = none\n" in serialize_config(exact)
    assert parse_config(serialize_config(exact)) == exact
    # numpy scalars pass every check, so the writer must write them as plain numbers.
    numpy = replace(
        cfg,
        problem_params=tuple((key, np.float64(value)) for key, value in cfg.problem_params),
        sizes=tuple(np.int64(size) for size in cfg.sizes),
        layers=np.int64(cfg.layers),
        seeds=tuple(np.int64(seed) for seed in cfg.seeds),
        optimizer=replace(
            cfg.optimizer, eta=np.float64(cfg.optimizer.eta), c=np.float32(0.5), samples=np.int64(2), shots=np.int32(64)
        ),
        optimizers=_override(cfg, beta=np.float64(0.25), samples=np.int64(3)),
    )
    assert parse_config(serialize_config(numpy)) == numpy
    for name in ("tfim-fig2", "schwinger-fig5", "appendixC"):
        cfg = preset_config(name)
        assert parse_config(serialize_config(cfg)) == cfg


def test_run_benchmark_zero_steps_single_row(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    text = SMALL_CONFIG.format(out=tmp_path / "r").replace("max_steps = 2", "max_steps = 0")
    cfg = parse_config(text.replace("seeds = 0, 1", "seeds = 0"))
    result = run_benchmark(cfg)
    for runs in result.runs.values():
        assert len(runs) == 1
        assert len(runs[0].records) == 1
    assert result.failures == 0


def test_run_benchmark_aggregate_is_arithmetic_mean(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    cfg = small_config(tmp_path)
    result = run_benchmark(cfg)
    for key, runs in result.runs.items():
        rows = bench.aggregate_rows(runs)
        for k, row in enumerate(rows):
            fields = row.split(",")
            errs = [r.records[k].energy_error for r in runs]
            assert float(fields[2]) == pytest.approx(np.mean(errs), rel=1e-12)
            assert float(fields[3]) == pytest.approx(np.std(errs), rel=1e-12, abs=1e-15)


def test_aggregate_std_does_not_overflow_at_huge_errors():
    # The squares of +-1e200 overflow; the std is taken of the errors over a power of two.
    runs = [
        RunResult("GD", seed, (RunRecord(0, 0.0, 0.0, err, 2, 2, False, 0.0),), False)
        for seed, err in enumerate((1e200, -1e200))
    ]
    (row,) = bench.aggregate_rows(runs)
    assert row == "0,2,0.0,1e+200,2.0,2.0"


def test_emit_csv_files_and_schema(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    text = SMALL_CONFIG.format(out=tmp_path / "out").replace("qubits = 2", "qubits = 2, 3")
    cfg = parse_config(text)
    result = run_benchmark(cfg)
    paths = emit_csv(result)
    # 2 optimizers x 2 sizes -> 4 per-run files + 4 aggregates
    assert len(paths) == 8
    names = {os.path.basename(p) for p in paths}
    assert "GD_tfim2q.csv" in names and "QNSTEIN2_tfim3q_aggregate.csv" in names
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        assert b"\r" not in blob
        header = blob.decode("utf-8").splitlines()[0]
        expected = AGGREGATE_CSV_HEADER if path.endswith("_aggregate.csv") else RUN_CSV_HEADER
        assert header == expected


def test_emit_csv_energy_error_column(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    cfg = small_config(tmp_path)
    result = run_benchmark(cfg)
    paths = emit_csv(result)
    ground = {}
    for size in cfg.sizes:
        ground[size] = bench.build_problem(cfg, size).ground_energy
    checked = 0
    for path in paths:
        if path.endswith("_aggregate.csv"):
            continue
        size = int(os.path.basename(path).split("tfim")[1].split("q")[0])
        with open(path) as fh:
            next(fh)
            for line in fh:
                fields = line.split(",")
                energy, err = float(fields[3]), float(fields[4])
                assert err == pytest.approx(energy - ground[size], abs=1e-12)
                checked += 1
    assert checked > 0


def test_emit_csv_empty_trace_header_only(tmp_path):
    cfg = small_config(tmp_path)
    result = bench.BenchmarkResult(config=cfg, runs={bench.GridKey(2, "GD"): ()}, failures=0)
    paths = emit_csv(result, str(tmp_path / "empty"))
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1


def test_benchmark_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    serial = run_benchmark(cfg)
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "4")
    parallel = run_benchmark(cfg)
    assert serial.runs == parallel.runs
    # Seeds written out of order: the serial run, a 2-worker run and the
    # sorted-seed config emit the same bytes.
    shuffled = parse_config(_edited_config(tmp_path, [("seeds = 0, 1", "seeds = 2, 0, 1")]))
    blobs = []
    for name, config, workers in [
        ("serial", shuffled, "1"),
        ("pool", shuffled, "2"),
        ("sorted", replace(shuffled, seeds=(0, 1, 2)), "1"),
    ]:
        monkeypatch.setenv(bench.WORKERS_ENV_VAR, workers)
        paths = emit_csv(run_benchmark(config), str(tmp_path / name))
        blobs.append([Path(p).read_bytes() for p in paths])
    assert blobs[0] == blobs[1] == blobs[2]


def test_worker_env_var_validation(monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "zero")
    with pytest.raises(ConfigError, match="^key 'VQEBENCH_WORKERS' expects int, got 'zero'$"):
        bench._worker_count(4)
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "0")
    with pytest.raises(ConfigError, match="^VQEBENCH_WORKERS must be >= 1, got 0$"):
        bench._worker_count(4)
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "3")
    assert bench._worker_count(10) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_runs_are_counted_and_left_out_of_aggregates(tmp_path, capsys, monkeypatch):
    # eta = 1e308 overflows SPSA's first step, so both seeds of BLOWUP fail.
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    edits = [
        ("kinds = GD, QNSTEIN2", "kinds = GD, QNSTEIN2, BLOWUP"),
        ("[run]", "[optimizer.BLOWUP]\nkind = SPSA\neta = 1e308\n\n[run]"),
    ]
    path = tmp_path / "cfg.txt"
    path.write_text(_edited_config(tmp_path, edits))
    assert run_benchmark(parse_config(path.read_text())).failures == 2
    assert main(["run", str(path)]) == 0
    assert "completed 6 runs (2 failed)" in capsys.readouterr().out
    out = tmp_path / "res"
    assert (out / "BLOWUP_tfim2q_aggregate.csv").read_text() == AGGREGATE_CSV_HEADER + "\n"
    # Both partial traces: each seed's initial record, then the step whose energy overflowed.
    rows = [line.split(",") for line in (out / "BLOWUP_tfim2q.csv").read_text().splitlines()[1:]]
    assert [(step, seed) for step, seed, *_ in rows] == [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]
    assert [energy == "nan" for _, _, _, energy, *_ in rows] == [False, True, False, True]
    for label in ("GD", "QNSTEIN2"):
        aggregate = (out / f"{label}_tfim2q_aggregate.csv").read_text().splitlines()[1:]
        assert len(aggregate) == 3 and all(row.split(",")[1] == "2" for row in aggregate)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exact_tfim(capsys):
    assert main(["exact", "tfim", "--qubits", "2", "--J", "-1", "--h", "-2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("-4.1231056")
    assert float(out) == pytest.approx(-np.sqrt(17), abs=1e-10)


def test_cli_exact_schwinger(capsys):
    code = main(
        ["exact", "schwinger", "--qubits", "4", "--x", "1", "--mu", "0.5", "--l", "0"]
    )
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.20639550666515885, abs=1e-10)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["schwinger", "--qubits", "3", "--x", "1", "--mu", "0.5", "--l", "0"],
         "schwinger problem needs even qubit counts, got 3"),
    ],
    ids=["odd-schwinger"],
)
def test_cli_exact_reports_bad_sizes_in_one_line(argv, expected, capsys):
    _assert_one_error_line(["exact", *argv], expected, capsys)


@pytest.mark.parametrize(
    "argv",
    [["tfim", "--qubits", "14", "--J", "-1", "--h", "-2"], ["schwinger", "--qubits", "200", "--x", "1", "--mu", "0.5", "--l", "0"]],
    ids=["tfim-14", "schwinger-200"],
)
def test_cli_exact_refuses_a_size_over_the_guard_before_building_it(argv, capsys, monkeypatch):
    # Building Schwinger at n = 200 alone takes seconds and hundreds of MB; the
    # dense matrix at n = 14 would take GBs.
    def unbuilt(*args):
        raise AssertionError("the model was built")

    for kind, (_, *rest) in bench.PROBLEMS.items():
        monkeypatch.setitem(bench.PROBLEMS, kind, (unbuilt, *rest))
    _assert_one_error_line(["exact", *argv], f"dense matrix for n={argv[2]} qubits exceeds the n<=13 guard", capsys)


def test_the_tfim_never_reaches_the_dense_path(monkeypatch, capsys):
    # Its ground energy is the closed form, so neither a grid's problem nor `exact`
    # builds a matrix, at the guard's largest size included. Schwinger's is still
    # the dense solve, and the model's own size rule still runs first.
    def dense(*args):
        raise AssertionError("the dense path was taken")

    monkeypatch.setattr(pauli, "to_dense", dense)
    monkeypatch.setattr(bench, "exact_ground_energy", dense)
    cfg = replace(preset_config("tfim-fig2"), sizes=(12,))
    tracemalloc.start()
    try:
        problem = build_problem(cfg, 12)
        assert main(["exact", "tfim", "--qubits", "13", "--J", "-1", "--h", "2"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert problem.ground_energy == pauli.tfim_ground_energy(12, -1.0, -2.0)
    assert capsys.readouterr().out == f"{pauli.tfim_ground_energy(13, -1.0, 2.0)!r}\n"
    with pytest.raises(AssertionError, match="^the dense path was taken$"):
        build_problem(replace(preset_config("schwinger-fig5"), sizes=(4,)), 4)
    argv = ["exact", "tfim", "--qubits", "1", "--J", "-1", "--h", "-2"]
    _assert_one_error_line(argv, "TFIM needs at least 2 sites (no bond exists for n=1)", capsys)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["exact", "tfim", "--qubits", "4", "--J", "nan", "--h", "1"], "error: J must be finite, got nan"),
        (["exact", "tfim", "--qubits", "6", "--J", "1e308", "--h", "1e308"], "error: non-finite TFIM ground energy -inf"),
        (["metric-check", "--seed", "-1"], "error: seed must be >= 0, got -1"),
    ],
    ids=["exact-J-nan", "exact-tfim-overflow", "metric-check-seed"],
)
def test_cli_flags_go_through_the_config_check(argv, expected, capsys):
    _assert_one_error_line(argv, expected, capsys)


def _die(*job):
    os._exit(1)  # a worker killed mid-job, as by the OOM killer


def test_cli_reports_a_dead_worker_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "2")
    monkeypatch.setattr(bench, "run", _die)  # the pool is handed bench.run
    argv = ["preset", "tfim-fig2", "--qubits", "2", "--seeds", "1", "--steps", "1", "--out", str(tmp_path)]
    _assert_one_error_line(argv, "error: BrokenProcessPool: A process in the process pool", capsys)


def test_cli_reports_running_out_of_memory_in_one_line(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise MemoryError

    monkeypatch.setattr(bench, "run_benchmark", fail)
    argv = ["preset", "tfim-fig2", "--qubits", "2", "--seeds", "1", "--steps", "1", "--out", str(tmp_path)]
    _assert_one_error_line(argv, "error: MemoryError", capsys)


def test_cli_preset_desk_scale_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    out = tmp_path / "fig2"
    code = main(
        ["preset", "tfim-fig2", "--qubits", "2", "--seeds", "1", "--steps", "1", "--out", str(out)]
    )
    assert code == 0
    assert "completed" in capsys.readouterr().out
    files = sorted(os.listdir(out))
    assert len(files) == 14  # 7 optimizers x 1 size x (run + aggregate)


# The whole text of a preset with override sections and a label -> kind map, so
# the config format cannot drift with the key list derived from OptimizerConfig.
APPENDIX_C_6Q = """[problem]
kind = tfim
qubits = 6
J = -1.0
h = -2.0

[ansatz]
kind = hardware_efficient
layers = 3

[optimizer]
kinds = QNSTEIN2, QNSTEIN3, QNSPSA-N5, QNSPSA-N10, QNSPSA-N20
eta = 0.01
c = 0.05
b = 2.0
samples = 5
beta = 0.01
shots = 8192
max_steps = 300
blocking = true
blocking_multiplier = 2.0
update_metric_on_block = true

[optimizer.QNSPSA-N5]
kind = QNSPSA
samples = 5

[optimizer.QNSPSA-N10]
kind = QNSPSA
samples = 10

[optimizer.QNSPSA-N20]
kind = QNSPSA
samples = 20

[run]
seeds = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29
out = results/appendixC
"""


def test_cli_preset_dump_config_text_is_pinned(capsys):
    assert main(["preset", "appendixC", "--qubits", "6", "--dump-config"]) == 0
    assert capsys.readouterr().out == APPENDIX_C_6Q


# '#' starts a comment, and a value is read stripped from one line, so each of
# these would read back as another directory.
_UNREADABLE_OUTS = ["x#y", "x\ny", "x\r\ny", " x", "x ", "x\t"]


@pytest.mark.parametrize("out", _UNREADABLE_OUTS)
def test_serialize_rejects_out_that_does_not_read_back(out, tmp_path):
    cfg = replace(small_config(tmp_path), out_dir=out)  # a run may still use it
    with pytest.raises(ConfigError, match=re.escape(f"out {out!r} would not read back")):
        serialize_config(cfg)


def test_cli_dump_config_rejects_out_that_does_not_read_back(capsys):
    argv = ["preset", "tfim-fig2", "--qubits", "2", "--out", "x#y", "--dump-config"]
    _assert_one_error_line(argv, "out 'x#y' would not read back", capsys)


def test_cli_preset_seed_offset(capsys):
    assert main(["preset", "tfim-fig2", "--seeds", "3", "--seed-offset", "7", "--dump-config"]) == 0
    cfg = parse_config(capsys.readouterr().out)
    assert cfg.seeds == (7, 8, 9)


def test_cli_run_config_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "res"))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "res" / "GD_tfim2q.csv").exists()


# Labels that are not plain names. Unchecked, the first would write
# ../escaped_tfim2q.csv outside `out` and the second would fail only after the
# grid ran.
_BAD_LABELS = [("../escaped", "escaped"), ("sub/x", "subdir")]


def _label_edits(label):
    """Config edits that run SPSA under `label`."""
    return [
        ("kinds = GD, QNSTEIN2", f"kinds = GD, {label}"),
        ("[optimizer.QNSTEIN2]\nsamples = 3", f"[optimizer.{label}]\nkind = SPSA"),
    ]


_BAD_INPUTS = [
    # ("run", [(config text to replace, replacement), ...], message) or ("preset", argv, message)
    pytest.param(
        "run",
        [("[optimizer.QNSTEIN2]\nsamples = 3", "[optimizer.QNSTEIN2]\nsamples = 0")],
        "samples must be >= 1",
        id="run-override-samples-0",
    ),
    pytest.param("preset", ["tfim-fig2", "--qubits", "1"], "at least 2 qubits", id="preset-qubits-1"),
    pytest.param("preset", ["schwinger-fig5", "--qubits", "5"], "even qubit count", id="preset-odd-schwinger"),
    pytest.param("preset", ["tfim-fig2", "--steps", "-1"], "max_steps must be >= 0", id="preset-steps-negative"),
    pytest.param("preset", ["tfim-fig2", "--layers", "0"], "layers must be >= 1", id="preset-layers-0"),
    pytest.param(
        "preset",
        ["tfim-fig2", "--bond-order", "odd_first"],
        "bond_order only applies to schwinger_so4",
        id="preset-bond-order-on-tfim",
    ),
    pytest.param("preset", ["tfim-fig2", "--seed-offset", "-5"], "seeds must be >= 0", id="preset-negative-seed-offset"),
    pytest.param("preset", ["tfim-fig2", "--seeds", "0"], "--seeds must be >= 1, got 0", id="preset-seeds-0"),
    pytest.param(
        "preset",
        ["tfim-fig2", "--qubits", "2", "--seeds", "1", "--steps", "1", "--out", ""],
        "out must not be empty",
        id="preset-empty-out-flag",
    ),
]


def _edited_config(tmp_path, edits) -> str:
    """SMALL_CONFIG with each (old, new) replacement applied; `old` must occur."""
    text = SMALL_CONFIG.format(out=tmp_path / "res")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


def _assert_one_error_line(argv, expected, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, edit, expected", _BAD_INPUTS)
def test_cli_rejects_bad_config_and_preset_inputs(command, edit, expected, tmp_path, capsys):
    if command == "run":
        path = tmp_path / "bad.txt"
        path.write_text(_edited_config(tmp_path, edit))
        argv = ["run", str(path)]
    else:
        # --dump-config: a flag that slips through validation exits 0 without running.
        argv = ["preset", *edit, "--dump-config"]
    _assert_one_error_line(argv, expected, capsys)


def test_cli_run_empty_out_flag_is_an_error(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "res"))
    _assert_one_error_line(["run", str(path), "--out", ""], "out must not be empty", capsys)
    assert not (tmp_path / "res").exists()


def _override(cfg, **overrides):
    """cfg's entries with the QNSTEIN2 entry's overrides replaced."""
    return tuple(
        replace(e, overrides=tuple(overrides.items())) if e.label == "QNSTEIN2" else e
        for e in cfg.optimizers
    )


# Every config rule once, as (config-file edits, the same change as
# `dataclasses.replace` arguments of the small config, message). A bad value of
# the base OptimizerConfig cannot even be constructed, so the replace half sets
# it as an entry override. A file and a preset's flags reach these checks
# through the same RunConfig, so _BAD_INPUTS drives one rule through
# `vqebench run` and each preset flag once.
_BAD_CONFIGS = [
    pytest.param(
        [("[optimizer.QNSTEIN2]\nsamples = 3", "[optimizer.QNSTEIN2]\nsamples = 0")],
        lambda cfg: {"optimizers": _override(cfg, samples=0)},
        "samples must be >= 1",
        id="override-samples-0",
    ),
    pytest.param(
        [("layers = 1", "layers = 0")], lambda cfg: {"layers": 0}, "layers must be >= 1", id="layers-0"
    ),
    pytest.param(
        [("kind = hardware_efficient", "kind = schwinger_so4\nbond_order = diagonal")],
        lambda cfg: {"ansatz_kind": "schwinger_so4", "bond_order": "diagonal"},
        "bond_order must be one of",
        id="bond-order-diagonal",
    ),
    pytest.param(
        [("seeds = 0, 1", "seeds = -1")], lambda cfg: {"seeds": (-1,)}, "seeds must be >= 0", id="negative-seed"
    ),
    pytest.param(
        [("qubits = 2", "qubits = 1")], lambda cfg: {"sizes": (1,)}, "at least 2 qubits", id="qubits-1"
    ),
    # The statevector's register bound, refused before a 21-qubit model is built.
    pytest.param(
        [("qubits = 2", "qubits = 21")],
        lambda cfg: {"sizes": (21,)},
        "qubit_count must be in [1, 20], got 21",
        id="qubits-21",
    ),
    pytest.param(
        [("qubits = 2", "qubits = 4, 5"), ("kind = hardware_efficient", "kind = schwinger_so4")],
        lambda cfg: {"sizes": (4, 5), "ansatz_kind": "schwinger_so4"},
        "even qubit count",
        id="odd-schwinger-ansatz",
    ),
    pytest.param(
        [("beta = 0.01", "beta = 0")],
        lambda cfg: {"optimizers": _override(cfg, beta=0.0)},
        "beta must be > 0, got 0.0",
        id="beta-0",
    ),
    pytest.param(
        [("max_steps = 2", "max_steps = -1")],
        lambda cfg: {"optimizers": _override(cfg, max_steps=-1)},
        "max_steps must be >= 0",
        id="steps-negative",
    ),
    pytest.param(
        [("layers = 1", "layers = 1\nbond_order = odd_first")],
        lambda cfg: {"bond_order": "odd_first"},
        "bond_order only applies to schwinger_so4",
        id="bond-order-on-tfim",
    ),
    pytest.param([("out = ", "out =  # ")], lambda cfg: {"out_dir": ""}, "out must not be empty", id="empty-out"),
    pytest.param(
        [("seeds = 0, 1", "seeds = 1.5")], lambda cfg: {"seeds": (1.5,)}, "key 'seeds' expects int, got", id="seeds-float"
    ),
    pytest.param(
        [("qubits = 2", "qubits = 2.5")], lambda cfg: {"sizes": (2.5,)}, "key 'qubits' expects int, got", id="qubits-float"
    ),
    pytest.param(
        [("layers = 1", "layers = true")], lambda cfg: {"layers": True}, "key 'layers' expects int, got", id="layers-bool"
    ),
    pytest.param(
        [("[optimizer.QNSTEIN2]\nsamples = 3", "[optimizer.QNSTEIN2]\nsamples = 2.5")],
        lambda cfg: {"optimizers": _override(cfg, samples=2.5)},
        "key 'samples' expects int, got",
        id="samples-float",
    ),
    pytest.param(
        [("[optimizer.QNSTEIN2]\nsamples = 3", "[optimizer.QNSTEIN2]\nsamples = true")],
        lambda cfg: {"optimizers": _override(cfg, samples=True)},
        "key 'samples' expects int, got",
        id="samples-bool",
    ),
    pytest.param(
        [("max_steps = 2", "max_steps = 2.5")],
        lambda cfg: {"optimizers": _override(cfg, max_steps=2.5)},
        "key 'max_steps' expects int, got",
        id="steps-float",
    ),
    pytest.param(
        [("shots = 64", "shots = 100.5")],
        lambda cfg: {"optimizers": _override(cfg, shots=100.5)},
        "key 'shots' expects int or none, got",
        id="shots-float",
    ),
    pytest.param(
        [("shots = 64", "shots = true")],
        lambda cfg: {"optimizers": _override(cfg, shots=True)},
        "key 'shots' expects int or none, got",
        id="shots-bool",
    ),
    pytest.param(
        [("blocking = true", "blocking = no")],
        lambda cfg: {"optimizers": _override(cfg, blocking="no")},
        "key 'blocking' expects bool, got",
        id="blocking-str",
    ),
    pytest.param(
        [(_TFIM, _SCHWINGER.replace("qubits = 2", "qubits = 3"))],
        lambda cfg: {
            "problem_kind": "schwinger",
            "problem_params": (("x", 1.0), ("mu", 0.5), ("l", 0.0)),
            "sizes": (3,),
        },
        "schwinger problem needs even qubit counts, got 3",
        id="odd-schwinger-problem",
    ),
    # Finite parameters whose coefficients overflow: l * l, and the merged
    # constant n * mu / 2 at n = 4.
    *[
        pytest.param(
            [(_TFIM, _SCHWINGER.replace(old, new))],
            lambda cfg, params=params, sizes=sizes: {
                "problem_kind": "schwinger",
                "problem_params": params,
                "sizes": sizes,
            },
            "non-finite coefficient inf",
            id=f"overflowing-{key}",
        )
        for key, old, new, params, sizes in [
            ("l", "l = 0.0", "l = 1e200", (("x", 1.0), ("mu", 0.5), ("l", 1e200)), (2,)),
            ("mu", "qubits = 2\nx = 1.0\nmu = 0.5", "qubits = 4\nx = 1.0\nmu = 1.7e308",
             (("x", 1.0), ("mu", 1.7e308), ("l", 0.0)), (4,)),
        ]
    ],
    pytest.param(
        [("kind = hardware_efficient", "kind = ry1")],
        lambda cfg: {"ansatz_kind": "ry1"},
        "ry1 takes qubits = 1 and layers = 1, got 2 and 1",
        id="ry1-ansatz",
    ),
    pytest.param(
        [("[optimizer.QNSTEIN2]\n", "[optimizer.QNSTEIN2]\nkind = ADAM\n")],
        lambda cfg: {"optimizers": (OptimizerEntry(label="QNSTEIN2", kind="ADAM"),)},
        "unknown optimizer kind 'ADAM' for entry 'QNSTEIN2'",
        id="unknown-optimizer-kind",
    ),
    pytest.param(
        [("kind = tfim", "kind = heisenberg")],
        lambda cfg: {"problem_kind": "heisenberg"},
        "unknown problem kind 'heisenberg'",
        id="unknown-problem-kind",
    ),
    pytest.param([("seeds = 0, 1", "seeds =")], lambda cfg: {"seeds": ()}, "seeds needs at least one value", id="no-seeds"),
    *[
        pytest.param(
            _label_edits(label),
            lambda cfg, label=label: {"optimizers": (OptimizerEntry(label=label, kind="SPSA"),)},
            f"optimizer label {label!r} must be a plain name",
            id=f"label-{name}",
        )
        for label, name in _BAD_LABELS
    ],
    pytest.param(
        [("kinds = GD, QNSTEIN2", "kinds = QNSTEIN2, QNSTEIN2")],
        lambda cfg: {"optimizers": (cfg.optimizers[1], cfg.optimizers[1])},
        "kinds must be distinct, got ['QNSTEIN2', 'QNSTEIN2']",
        id="repeated-kinds",
    ),
    pytest.param(
        [("qubits = 2", "qubits = 2, 2")],
        lambda cfg: {"sizes": (2, 2)},
        "qubits must be distinct, got [2, 2]",
        id="repeated-qubits",
    ),
    pytest.param(
        [("seeds = 0, 1", "seeds = 0, 0")],
        lambda cfg: {"seeds": (0, 0)},
        "seeds must be distinct, got [0, 0]",
        id="repeated-seeds",
    ),
    *[
        pytest.param(
            [(old, f"{key} = {value}")],
            lambda cfg, key=key, value=value: {"optimizers": _override(cfg, **{key: float(value)})},
            f"{key} must be finite, got {value}",
            id=f"non-finite-{key}",
        )
        for key, value, old in [
            ("eta", "nan", "eta = 0.05"),
            ("c", "inf", "c = 0.05"),
            ("b", "-inf", "b = 2.0"),
            ("beta", "nan", "beta = 0.01"),
            ("blocking_multiplier", "inf", "blocking_multiplier = 2.0"),
        ]
    ],
    *[
        pytest.param(
            [(_TFIM, problem.replace(f"{key} = {old}", f"{key} = {value}"))],
            lambda cfg, kind=kind, params=params: {"problem_kind": kind, "problem_params": params},
            f"{key} must be finite, got {value}",
            id=f"non-finite-{key}",
        )
        for key, value, old, problem, kind, params in [
            ("J", "inf", "-1.0", _TFIM, "tfim", (("J", np.inf), ("h", -2.0))),
            ("h", "nan", "-2.0", _TFIM, "tfim", (("J", -1.0), ("h", np.nan))),
            ("x", "-inf", "1.0", _SCHWINGER, "schwinger", (("x", -np.inf), ("mu", 0.5), ("l", 0.0))),
            ("mu", "nan", "0.5", _SCHWINGER, "schwinger", (("x", 1.0), ("mu", np.nan), ("l", 0.0))),
            ("l", "inf", "0.0", _SCHWINGER, "schwinger", (("x", 1.0), ("mu", 0.5), ("l", np.inf))),
        ]
    ],
]


@pytest.mark.parametrize("edits, changes, expected", _BAD_CONFIGS)
def test_file_and_replace_share_every_check(edits, changes, expected, tmp_path):
    with pytest.raises(ConfigError, match=re.escape(expected)):
        parse_config(_edited_config(tmp_path, edits))
    cfg = small_config(tmp_path)
    with pytest.raises(ConfigError, match=re.escape(expected)):
        replace(cfg, **changes(cfg))


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("samples", 2.5, "key 'samples' expects int, got 2.5"),
        ("max_steps", True, "key 'max_steps' expects int, got True"),
        ("shots", 100.5, "key 'shots' expects int or none, got 100.5"),
        ("update_metric_on_block", 1, "key 'update_metric_on_block' expects bool, got 1"),
        ("eta", True, "key 'eta' expects float, got True"),
        ("c", "0.05", "key 'c' expects float, got '0.05'"),
        ("beta", None, "key 'beta' expects float, got None"),
        ("blocking_multiplier", -1.0, "blocking_multiplier must be >= 0, got -1.0"),
        ("eta", 10**400, "eta must be finite, got an int too large for a float"),
    ],
    ids=["samples-float", "steps-bool", "shots-float", "update-metric-int", "eta-bool", "c-str", "beta-none",
         "multiplier-negative", "eta-huge-int"],
)
def test_optimizer_config_checks_int_and_bool_fields_on_construction(field, value, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        OptimizerConfig(**{field: value})


# A file reads each parameter by name and as a float, so only `replace` can
# give these.
@pytest.mark.parametrize(
    "params, expected",
    [
        ((("J", True), ("h", -2.0)), "key 'J' expects float, got True"),
        ((("J", "1"), ("h", -2.0)), "key 'J' expects float, got '1'"),
        ((("K", -1.0), ("h", -2.0)), "tfim takes parameters ('J', 'h'), got ('K', 'h')"),
        ((("J", 10**400), ("h", -2.0)), "J must be finite, got an int too large for a float"),
    ],
    ids=["J-bool", "J-str", "wrong-names", "J-huge-int"],
)
def test_replace_checks_problem_parameters(params, expected, tmp_path):
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        replace(small_config(tmp_path), problem_params=params)


def test_cli_run_reports_unwritable_output_dir_before_any_job(tmp_path, capsys, monkeypatch):
    def no_job(*args):
        raise AssertionError("a job ran before the output directory was made")

    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(bench, "run", no_job)
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG.format(out=blocker / "res"))
    _assert_one_error_line(["run", str(path)], str(blocker), capsys)


def test_cli_run_reports_csv_write_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(bench.WORKERS_ENV_VAR, "1")
    (tmp_path / "res" / "GD_tfim2q.csv").mkdir(parents=True)
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "res"))
    _assert_one_error_line(["run", str(path)], "failed writing", capsys)


def test_cli_run_missing_file(capsys):
    assert main(["run", "/nonexistent/config.txt"]) == 1


def test_cli_metric_check_single_qubit(capsys):
    code = main(["metric-check", "--ansatz", "ry1", "--samples", "4000", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("ansatz", "method"))]
    assert len(lines) == 5
    for line in lines:
        value = float(line.split()[-1])
        assert value == pytest.approx(0.25, abs=0.05)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "0"),
        ("--c", "0"),
        ("--c", "inf"),
        ("--c", "nan"),
        ("--b", "-1"),
        ("--b", "inf"),
        ("--b", "nan"),
        ("--shots", "0"),
        # The default ansatz, ry1, is one qubit and one layer.
        ("--qubits", "0"),
        ("--qubits", "3"),
        ("--layers", "2"),
    ],
)
def test_cli_metric_check_rejects_bad_arguments(flag, value, capsys):
    _assert_one_error_line(["metric-check", "--samples", "20", flag, value], f" {flag[2:]} ", capsys)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_cli_exits_quietly_when_its_reader_has_gone(unbuffered):
    # As in `vqebench metric-check ... | head -1`, but with a pipe whose read end
    # is closed before the command writes, so that every write fails, not a racy few.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(bench.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["metric-check", "--ansatz", "hardware_efficient", "--qubits", "3", "--layers", "2", "--samples", "20"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vqebench.cli", *argv], env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the BLAS thread variables as they are when numpy is first imported.
_BLAS_AT_NUMPY_IMPORT = f"""
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(*(os.environ.get(k) for k in {BLAS_THREAD_VARS!r}))
            sys.meta_path.remove(self)
sys.meta_path.insert(0, Spy())
import vqebench
"""


@pytest.mark.parametrize(
    "chosen, expected", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")], ids=["unset", "chosen"]
)
def test_package_sets_one_blas_thread_unless_the_caller_chose(chosen, expected):
    # The pool forks one worker per CPU, and each worker's BLAS used to start one
    # thread per CPU as well: a 4-seed Schwinger preset took 10.6-13.1 s on 2 CPUs
    # against 4.0-4.2 s with one thread. The default must be in place before numpy loads.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(chosen, PYTHONPATH=str(Path(bench.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AT_NUMPY_IMPORT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout == expected + "\n"


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["discombobulate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["exact", "tfim", "--qubits", "2", "--J", "-1", "--h", "-2", "--frob", "1"])
    assert exc.value.code == 2


def test_run_benchmark_rejects_oversized_grid(tmp_path):
    text = SMALL_CONFIG.format(out=tmp_path).replace("qubits = 2", "qubits = 2, 17")
    cfg = parse_config(text)  # parse accepts the published grid values
    with pytest.raises(ConfigError, match="17"):
        run_benchmark(cfg)


def test_cli_preset_full_scale_fails_fast(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the preset's output directory is relative to here
    assert main(["preset", "tfim-fig2", "--seeds", "1", "--steps", "1"]) == 1
    assert "desk scale" in capsys.readouterr().err


def test_cli_rejected_grid_leaves_no_output_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "tfim-fig2", "--seeds", "1", "--steps", "1"]) == 1
    assert not (tmp_path / "results").exists()
