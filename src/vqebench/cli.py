"""Command-line interface.

Subcommands: run a config file, run a named preset with desk-scale
overrides, print an exact ground energy, or print a metric-estimator
comparison table.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np

from . import bench, pauli
from .ansatz import ANSATZ_KINDS, BOND_ORDERS, AnsatzKind, build_ansatz
from .estimators import (
    displacement_fidelity_oracle,
    exact_metric,
    parameter_shift_metric,
    spsa_metric,
    stein_metric_2eval,
    stein_metric_3eval,
)
from .optimizers import OptimizerConfig
from .values import check_value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqebench",
        description="Variational-quantum-optimization benchmark workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark config file")
    p_run.add_argument("config", help="path to a structured-text config")
    p_run.add_argument("--out", help="override the output directory")

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=sorted(bench.PRESETS))
    p_preset.add_argument("--qubits", type=int, nargs="+", help="override system sizes")
    p_preset.add_argument("--layers", type=int, help="override ansatz layers")
    p_preset.add_argument("--seeds", type=int, help="number of seeds (0..K-1 plus offset)")
    p_preset.add_argument("--seed-offset", type=int, default=0, help="first seed for split execution")
    p_preset.add_argument("--steps", type=int, help="override max optimization steps")
    p_preset.add_argument(
        "--bond-order",
        choices=BOND_ORDERS,
        help="override the schwinger_so4 sublayer order",
    )
    p_preset.add_argument("--out", help="override the output directory")
    p_preset.add_argument(
        "--dump-config", action="store_true", help="print the config text instead of running"
    )

    p_exact = sub.add_parser("exact", help="print an exact ground energy")
    exact_sub = p_exact.add_subparsers(dest="problem", required=True)
    for kind, (_, names) in bench.PROBLEMS.items():
        p_problem = exact_sub.add_parser(kind)
        p_problem.add_argument("--qubits", type=int, required=True)
        for key in names:
            p_problem.add_argument(f"--{key}", type=float, required=True)

    p_metric = sub.add_parser(
        "metric-check", help="compare the metric estimators on one ansatz"
    )
    p_metric.add_argument("--ansatz", choices=ANSATZ_KINDS, default="ry1")
    p_metric.add_argument("--qubits", type=int, default=1)
    p_metric.add_argument("--layers", type=int, default=1)
    p_metric.add_argument("--samples", type=int, default=10000)
    p_metric.add_argument("--c", type=float, default=0.01)
    p_metric.add_argument("--b", type=float, default=1.0)
    p_metric.add_argument("--shots", type=int, default=None)
    p_metric.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    try:
        cfg = bench.parse_config(text)
    except bench.ConfigError as exc:
        raise bench.ConfigError(f"{args.config}: {exc}") from exc
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return _run_and_report(cfg)


def _cmd_preset(args) -> int:
    check_value("--seeds", "int | None", args.seeds)
    cfg = bench.preset_config(args.name)
    seeds = cfg.seeds if args.seeds is None else range(args.seeds)
    steps = cfg.optimizer.max_steps if args.steps is None else args.steps
    cfg = replace(
        cfg,
        sizes=tuple(args.qubits or cfg.sizes),
        layers=cfg.layers if args.layers is None else args.layers,
        seeds=tuple(seed + args.seed_offset for seed in seeds),
        optimizer=replace(cfg.optimizer, max_steps=steps),
        bond_order=args.bond_order or cfg.bond_order,
        out_dir=cfg.out_dir if args.out is None else args.out,
    )
    if args.dump_config:
        print(bench.serialize_config(cfg), end="")
        return 0
    return _run_and_report(cfg)


def _run_and_report(cfg: bench.RunConfig) -> int:
    result = bench.run_benchmark(cfg)
    paths = bench.emit_csv(result)
    total = sum(len(runs) for runs in result.runs.values())
    print(f"completed {total} runs ({result.failures} failed); wrote {len(paths)} files to {cfg.out_dir}")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_exact(args) -> int:
    builder, names = bench.PROBLEMS[args.problem]
    for key in names:
        check_value(key, "float", getattr(args, key))
    if args.qubits > pauli.MAX_DENSE_QUBITS:  # refused in to_dense's words, before the model is built
        pauli.to_dense(pauli.PauliSum((), args.qubits))
    h = builder(args.qubits, *(getattr(args, key) for key in names))
    print(repr(bench.exact_ground_energy(h)))
    return 0


def _format_matrix_row(matrix: np.ndarray) -> str:
    return "  ".join(f"{v: .6f}" for v in matrix.reshape(-1))


def _cmd_metric_check(args) -> int:
    # A run's own checks of c, b, samples, shots and seed, made before the exact
    # and shift-rule metrics spend their O(d^2) circuits.
    OptimizerConfig(c=args.c, b=args.b, samples=args.samples, shots=args.shots)
    check_value("seed", "int", args.seed)
    circuit = build_ansatz(AnsatzKind(args.ansatz, args.qubits, args.layers))
    d = circuit.param_count
    rng = np.random.default_rng(args.seed)
    theta = rng.uniform(-np.pi, np.pi, d)
    exact = exact_metric(circuit, theta)
    estimates = [("exact", exact), ("parameter-shift", parameter_shift_metric(circuit, theta, args.shots, rng))]
    for name, estimator in (
        ("stein-2eval", stein_metric_2eval),
        ("stein-3eval", stein_metric_3eval),
        ("spsa", spsa_metric),
    ):
        fid = displacement_fidelity_oracle(circuit, theta, shots=args.shots, rng=rng)
        estimates.append((name, estimator(fid, theta, args.c, args.samples, rng)))
    print(f"ansatz={args.ansatz} qubits={circuit.qubit_count} d={d} "
          f"samples={args.samples} c={args.c} b={args.b} shots={args.shots}")
    show_entries = d <= 3
    header = "entries" if show_entries else "diagonal"
    print(f"{'method':<16}{'overlap evals':>14}  max|diff vs exact|  {header}")
    for name, est in estimates:
        dev = np.max(np.abs(est.matrix - exact.matrix))
        shown = est.matrix if show_entries else np.diag(est.matrix)
        print(f"{name:<16}{est.raw_evals:>14}  {dev:>18.6f}  {_format_matrix_row(shown)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "preset": _cmd_preset,
    "exact": _cmd_exact,
    "metric-check": _cmd_metric_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone (say, `| head -1`): point stdout at devnull so the
        # exit flush cannot fail again, and exit 1 without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BrokenProcessPool, MemoryError) as exc:  # a worker died, or memory ran out
        # Their messages can be empty or vague, so the line names the exception too.
        print(f"error: {type(exc).__name__}{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
