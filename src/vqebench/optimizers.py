"""Benchmark optimizers with the natural-gradient update rule.

Seven optimizer kinds share one step loop: estimate a gradient, optionally
estimate and regularize a metric tensor, and take a (natural) gradient step.
One rule takes a point, a run's first and every candidate: its state, prepared
once and kept, gives the sampled blocking loss, the exact energy of its trace row
(with the circuits charged in both conventions) and GD's adjoint-sweep gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .ansatz import energy, loss
from .estimators import (
    MetricEstimate,
    _plus_minus_rows,
    displacement_fidelity_oracle,
    exact_gradient,
    exact_gradient_and_metric,
    exact_metric,  # not called here; bound for the benchmark tracer, which wraps it by name
    loss_oracle,
    spsa_gradient,
    spsa_metric,
    stein_gradient_2eval,
    stein_metric_2eval,
    stein_metric_3eval,
)
from .pauli import PauliSum
from .simulator import Circuit, apply_circuit, require_one_gate_per_parameter
from .values import check_value

OPTIMIZER_KINDS = ("GD", "QNG", "SPSA", "QNSPSA", "STEIN", "QNSTEIN2", "QNSTEIN3")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters shared by all optimizer kinds; the defaults are the published values.

    shots=None selects exact expectation values throughout. Blocking compares
    the measured candidate loss against the current one and is only active
    with finite shots (in exact mode there is no noise to guard against, so
    candidates are always accepted and no candidate evaluation is charged).
    """

    eta: float = 0.01
    c: float = 0.05
    b: float = 2.0
    samples: int = 10
    beta: float = 0.01
    shots: int | None = None
    max_steps: int = 100
    blocking: bool = True
    blocking_multiplier: float = 2.0
    update_metric_on_block: bool = True

    def __post_init__(self):
        # Annotations are strings under `from __future__ import annotations`.
        for f in fields(self):
            check_value(f.name, f.type, getattr(self, f.name))

    @property
    def blocking_active(self) -> bool:
        return self.blocking and self.shots is not None


@dataclass(frozen=True)
class Problem:
    """One VQE instance: ansatz circuit, Hamiltonian, and its exact ground energy."""

    circuit: Circuit
    hamiltonian: PauliSum
    ground_energy: float


@dataclass(frozen=True)
class RunRecord:
    """One trace row: energies, error vs exact ground state, cumulative costs.

    wall_time is excluded from equality (and from the CSV schema): the
    determinism contract covers everything except timing.
    """

    step: int
    loss: float
    energy: float
    energy_error: float
    circuits_charged: int
    circuits_raw: int
    blocked: bool
    wall_time: float = field(compare=False)


@dataclass
class OptimizerState:
    """A run in progress: parameters, running metric, and cumulative circuit totals."""

    theta: np.ndarray
    loss_current: float = math.nan
    psi: np.ndarray | None = None  # theta's state: `_move` sets both; None on a state built by hand
    metric_avg: np.ndarray | None = None
    metric_count: int = 0
    k: int = 0
    circuits_raw: int = 0
    circuits_charged: int = 0
    trace: list[RunRecord] = field(default_factory=list)

    def add_circuits(self, raw: int, charged: int | None = None) -> None:
        """Charge circuits; a loss query costs the same under both conventions."""
        self.circuits_raw += raw
        self.circuits_charged += raw if charged is None else charged


@dataclass(frozen=True)
class RunResult:
    kind: str
    seed: int
    records: tuple[RunRecord, ...]
    failed: bool


def regularize_metric(metric: np.ndarray, beta: float) -> np.ndarray:
    """Positive-definite regularization (|metric| + beta I) / (1 + beta).

    |metric| is the symmetric absolute value V |Lambda| V^T; the result is
    exactly symmetric with minimum eigenvalue >= beta / (1 + beta).
    """
    metric = np.asarray(metric, dtype=float)
    if np.max(np.abs(metric - metric.T)) >= 1e-10:
        raise ValueError("metric must be symmetric")
    eigvals, eigvecs = np.linalg.eigh((metric + metric.T) / 2.0)
    out = (eigvecs * np.abs(eigvals)) @ eigvecs.T
    out = (out + beta * np.eye(len(metric))) / (1.0 + beta)
    return (out + out.T) / 2.0


def average_metric(prev: np.ndarray | None, new: np.ndarray, k: int) -> np.ndarray:
    """Running average F_k = k/(k+1) F_{k-1} + 1/(k+1) Fhat_k; F_0 = Fhat_0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 or prev is None:
        return np.array(new, dtype=float)
    prev = np.asarray(prev, dtype=float)
    new = np.asarray(new, dtype=float)
    if prev.shape != new.shape:
        raise ValueError(f"metric shapes differ: {prev.shape} vs {new.shape}")
    return (k * prev + new) / (k + 1.0)


def natural_step(theta: np.ndarray, grad: np.ndarray, metric_reg: np.ndarray, eta: float) -> np.ndarray:
    """theta - eta * x with metric_reg @ x = grad, solved via Cholesky factors.

    The explicit inverse is never formed; a Cholesky failure signals a
    non-positive-definite metric (unreachable after regularization).
    """
    lower = np.linalg.cholesky(metric_reg)
    y = np.linalg.solve(lower, grad)
    x = np.linalg.solve(lower.T, y)
    return theta - eta * x


def shot_noise_scale(h: PauliSum, shots: int) -> float:
    """Per-evaluation loss noise scale sqrt(sum of squared non-constant coefficients) / sqrt(shots).

    Identity terms are added exactly by the sampler and contribute no noise.
    The norm never overflows: past the float range it is inf.
    """
    return math.hypot(*(t.coefficient for t in h.terms if not t.is_identity)) / math.sqrt(shots)


def exact_parameter_shift_gradient(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """Analytic loss gradient from exact evaluations at +-pi/2 shifts.

    The shift-rule reference that the tests hold GD's `exact_gradient` (one
    adjoint sweep) and QNG's `exact_gradient_and_metric` (one derivative block)
    to; no step calls it, and the benchmark tracer wraps it by name. Raises
    ValueError if a parameter index drives more than one gate, where the shift
    rule does not hold.
    """
    require_one_gate_per_parameter(problem.circuit)
    rows = _plus_minus_rows(theta, np.eye(len(theta)) * (np.pi / 2.0))
    values = np.array([loss(problem.circuit, problem.hamiltonian, row) for row in rows])
    return (values[0::2] - values[1::2]) / 2.0


def _estimate(kind, state, problem, config, rng) -> tuple[np.ndarray, MetricEstimate | None]:
    """Gradient and (natural kinds only) metric estimate at state.theta; charges every circuit it queries."""
    if kind in ("GD", "QNG"):  # exact references, charged as 2d shifted losses
        state.add_circuits(2 * problem.circuit.param_count)
        if kind == "QNG":
            return exact_gradient_and_metric(problem.circuit, problem.hamiltonian, state.theta)
        return exact_gradient(problem.circuit, problem.hamiltonian, state.theta, state.psi), None
    oracle = loss_oracle(problem.circuit, problem.hamiltonian, shots=config.shots, rng=rng)
    gradient = spsa_gradient if kind in ("SPSA", "QNSPSA") else stein_gradient_2eval
    grad = gradient(oracle, state.theta, config.c, config.samples, rng)
    state.add_circuits(oracle.calls)
    # Built per call, so it reads the module's current bindings (the benchmark tracer rebinds them).
    metric = {"QNSPSA": spsa_metric, "QNSTEIN2": stein_metric_2eval, "QNSTEIN3": stein_metric_3eval}.get(kind)
    if metric is None:
        return grad, None
    fid = displacement_fidelity_oracle(problem.circuit, state.theta, config.shots, rng, state.psi)
    estimate = metric(fid, state.theta, config.c, config.samples, rng)
    state.add_circuits(estimate.raw_evals, estimate.charged_evals)
    return grad, estimate


def _move(state, problem, config, theta, rng, started: float) -> bool:
    """Take theta unless blocking refuses it (never at k = 0), append its trace row, return `blocked`.

    One state of theta serves the sampled blocking loss and the exact readout, and is
    kept with it. A refused theta keeps the current point and reads its kept state. A
    non-finite theta has no state to measure: taken unchecked, it ends the run failed.
    """
    psi = apply_circuit(problem.circuit, theta)
    blocked = False
    if config.blocking_active and np.isfinite(theta).all():
        sampled = energy(psi, problem.hamiltonian, config.shots, rng)
        state.add_circuits(1)
        tol = config.blocking_multiplier * shot_noise_scale(problem.hamiltonian, config.shots)
        blocked = state.k > 0 and not sampled <= state.loss_current + tol  # a NaN loss is blocked
        if blocked:  # a fresh state has no trace row holding the kept point's energy
            theta, psi = state.theta, (apply_circuit(problem.circuit, state.theta) if state.psi is None else state.psi)
        else:
            state.loss_current = sampled
    state.theta, state.psi = theta, psi
    exact = energy(psi, problem.hamiltonian, None, None)
    state.trace.append(
        RunRecord(
            step=state.k,
            loss=state.loss_current if config.blocking_active else exact,
            energy=exact,
            energy_error=exact - problem.ground_energy,
            circuits_charged=state.circuits_charged,
            circuits_raw=state.circuits_raw,
            blocked=blocked,
            wall_time=time.perf_counter() - started,
        )
    )
    return blocked


def _finite(record: RunRecord) -> bool:
    return math.isfinite(record.energy) and math.isfinite(record.loss)


def step(
    kind: str,
    state: OptimizerState,
    problem: Problem,
    config: OptimizerConfig,
    rng: np.random.Generator,
) -> OptimizerState:
    """One full optimizer iteration; mutates and returns `state`."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    started = time.perf_counter()

    grad, estimate = _estimate(kind, state, problem, config, rng)
    metric_avg_candidate = None
    if estimate is not None:
        metric_avg_candidate = average_metric(state.metric_avg, estimate.matrix, state.metric_count)
        metric_reg = regularize_metric(metric_avg_candidate, config.beta)
        candidate = natural_step(state.theta, grad, metric_reg, config.eta)
    else:
        candidate = state.theta - config.eta * grad

    state.k += 1
    blocked = _move(state, problem, config, candidate, rng, started)
    # The metric estimate carries local-geometry information regardless of
    # acceptance; by default it still enters the running average on a block.
    if metric_avg_candidate is not None and (not blocked or config.update_metric_on_block):
        state.metric_avg = metric_avg_candidate
        state.metric_count += 1
    return state


def run(kind: str, problem: Problem, config: OptimizerConfig, seed: int) -> RunResult:
    """Full optimization from a seeded uniform(-pi, pi) initialization.

    The trace always contains the initial-point row; a non-finite energy or
    loss marks the run failed and retains the partial trace.
    """
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    theta0 = rng.uniform(-np.pi, np.pi, problem.circuit.param_count)
    state = OptimizerState(theta0)
    _move(state, problem, config, theta0, rng, started)
    while _finite(state.trace[-1]) and state.k < config.max_steps:
        step(kind, state, problem, config, rng)
    return RunResult(
        kind=kind, seed=seed, records=tuple(state.trace), failed=not _finite(state.trace[-1])
    )
