import math
from dataclasses import replace

import numpy as np
import pytest

from vqebench import estimators, optimizers
from vqebench.ansatz import hardware_efficient, loss
from vqebench.bench import build_problem, optimizer_config, preset_config
from vqebench.optimizers import (
    OPTIMIZER_KINDS,
    OptimizerConfig,
    OptimizerState,
    Problem,
    average_metric,
    blocking_check,
    exact_parameter_shift_gradient,
    natural_step,
    regularize_metric,
    run,
    shot_noise_scale,
    step,
)
from vqebench.pauli import PauliString, PauliSum, build_tfim, exact_ground_energy
from vqebench.simulator import Circuit, Gate


def tfim_problem(n=2, layers=1, J=-1.0, h=-2.0):
    ham = build_tfim(n, J, h)
    return Problem(hardware_efficient(n, layers), ham, exact_ground_energy(ham))


def test_regularize_zero_matrix():
    out = regularize_metric(np.zeros((3, 3)), 0.01)
    assert np.allclose(out, (0.01 / 1.01) * np.eye(3))


def test_regularize_absolute_eigenvalues():
    out = regularize_metric(np.diag([1.0, -1.0]), 0.0)
    assert np.allclose(out, np.eye(2))


def test_regularize_shifts_and_rescales():
    out = regularize_metric(np.diag([4.0, 1.0]), 1.0)
    assert np.allclose(out, np.diag([2.5, 1.0]))


def test_regularize_rejects_asymmetric():
    with pytest.raises(ValueError):
        regularize_metric(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def test_average_metric_base_case():
    first = np.diag([1.0, 2.0])
    assert np.array_equal(average_metric(None, first, 0), first)


def test_average_metric_convex_combination():
    out = average_metric(np.eye(2), 3 * np.eye(2), 1)
    assert np.allclose(out, 2 * np.eye(2))


def test_average_metric_fixed_point():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    avg = None
    for k in range(10):
        avg = average_metric(avg, a, k)
        assert np.allclose(avg, a)


def test_average_metric_dimension_mismatch():
    with pytest.raises(ValueError):
        average_metric(np.eye(2), np.eye(3), 1)


def test_average_metric_rejects_negative_k():
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        average_metric(None, np.eye(2), -1)


def test_natural_step_identity_metric_is_gd():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=5)
    grad = rng.normal(size=5)
    eta = 0.07
    natural = natural_step(theta, grad, np.eye(5), eta)
    assert np.max(np.abs(natural - (theta - eta * grad))) < 1e-14


def test_natural_step_scalar_metric():
    theta = np.zeros(3)
    grad = np.array([1.0, 2.0, 3.0])
    out = natural_step(theta, grad, 2.0 * np.eye(3), 0.1)
    assert np.allclose(out, -(0.1 / 2.0) * grad)


def test_natural_step_zero_gradient():
    theta = np.array([0.5, -0.5])
    out = natural_step(theta, np.zeros(2), np.diag([3.0, 1.0]), 0.3)
    assert np.array_equal(out, theta)


def test_natural_step_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        natural_step(np.zeros(2), np.ones(2), np.diag([1.0, -1.0]), 0.1)


def test_blocking_check():
    assert blocking_check(1.0, 1.0, 0.0)
    assert not blocking_check(1.0 + 2 * 0.05, 1.0, 0.05)
    assert blocking_check(np.inf, 1.0, np.inf)
    with pytest.raises(ValueError):
        blocking_check(0.0, 0.0, -1.0)


def test_shot_noise_scale_ignores_constants():
    h = PauliSum.from_terms(
        [PauliString(3.0, "II"), PauliString(-1.0, "ZZ"), PauliString(2.0, "XI")], 2
    )
    assert shot_noise_scale(h, 100) == pytest.approx(np.sqrt(5.0) / 10.0)


def test_exact_gradient_rejects_shared_parameter_index():
    # For RY(t) RY(t) and H = Z the gradient at t = 0.3 is -2 sin(0.6), but the
    # +-pi/2 shift rule would return 0.
    z = PauliSum((PauliString(1.0, "Z"),), 1)
    circuit = Circuit((Gate("RY", (0,), 0), Gate("RY", (0,), 0)), 1, 1)
    with pytest.raises(ValueError, match="parameter index 0"):
        exact_parameter_shift_gradient(Problem(circuit, z, -1.0), np.array([0.3]))


def test_exact_gradient_matches_finite_differences():
    problem = tfim_problem(3, 2)
    rng = np.random.default_rng(2)
    theta = rng.uniform(-np.pi, np.pi, problem.circuit.param_count)
    grad = exact_parameter_shift_gradient(problem, theta)
    eps = 1e-6
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = eps
        fd = (
            loss(problem.circuit, problem.hamiltonian, theta + e)
            - loss(problem.circuit, problem.hamiltonian, theta - e)
        ) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_blocking_charges_one_extra_loss_eval():
    problem = tfim_problem()
    config = OptimizerConfig(samples=5, shots=128, blocking=True, max_steps=2)
    result = run("QNSTEIN2", problem, config, seed=0)
    # one charged candidate evaluation per step plus one initial measurement
    assert result.records[0].circuits_charged == 1
    assert result.records[1].circuits_charged == 1 + 4 * 5 + 1
    assert result.records[2].circuits_charged == 1 + 2 * (4 * 5 + 1)


def test_raw_vs_charged_conventions():
    problem = tfim_problem()
    config = OptimizerConfig(samples=10, shots=128, blocking=False, max_steps=1)
    r2 = run("QNSTEIN2", problem, config, seed=0).records[-1]
    assert r2.circuits_raw == 2 * 10 + (10 + 1)
    assert r2.circuits_charged == 4 * 10
    r3 = run("QNSTEIN3", problem, config, seed=0).records[-1]
    assert r3.circuits_raw == 2 * 10 + (2 * 10 + 1)
    assert r3.circuits_charged == 5 * 10


def test_qng_step_makes_one_derivative_pass(monkeypatch):
    # The gradient and the metric come from one derivative block, so the only
    # losses a step queries are the blocking candidate's and the energy readout.
    problem = tfim_problem(3, 2)
    config = OptimizerConfig(shots=256, blocking=True, max_steps=1)
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, kwargs.get("shots")))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(estimators, "derivative_states")
    counted(optimizers, "loss")
    rng = np.random.default_rng(5)
    state = OptimizerState(rng.uniform(-np.pi, np.pi, problem.circuit.param_count), loss_current=0.0)
    step("QNG", state, problem, config, rng)
    assert calls == [("derivative_states", None), ("loss", 256), ("loss", None)]
    assert state.circuits_raw == state.circuits_charged == 2 * problem.circuit.param_count + 1


def test_run_zero_steps_initial_row_only():
    problem = tfim_problem()
    config = OptimizerConfig(max_steps=0, shots=None, blocking=False)
    result = run("GD", problem, config, seed=3)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.step == 0 and rec.circuits_raw == 0 and not rec.blocked
    assert rec.energy_error == pytest.approx(rec.energy - problem.ground_energy)


@pytest.mark.parametrize("kind", ["GD", "QNSPSA", "QNSTEIN3"])
def test_stepping_a_fresh_state_matches_run(kind):
    # run = draw theta0, read the initial loss (one circuit), record, then step.
    problem = tfim_problem()
    config = OptimizerConfig(samples=4, shots=64, blocking=True, max_steps=5)
    rng = np.random.default_rng(11)
    theta0 = rng.uniform(-np.pi, np.pi, problem.circuit.param_count)
    loss0 = loss(problem.circuit, problem.hamiltonian, theta0, shots=config.shots, rng=rng)
    assert math.isnan(OptimizerState(theta0).loss_current)
    state = OptimizerState(theta0, loss0)
    assert (state.k, state.metric_avg, state.metric_count, state.trace) == (0, None, 0, [])
    state.add_circuits(1)
    assert (state.circuits_raw, state.circuits_charged) == (1, 1)
    for _ in range(config.max_steps):
        step(kind, state, problem, config, rng)
    expected = run(kind, problem, config, seed=11)
    assert tuple(state.trace) == expected.records[1:]  # totals included


def test_gd_converges_on_small_tfim():
    problem = tfim_problem()
    config = OptimizerConfig(eta=0.01, shots=None, blocking=False, max_steps=300)
    finals = [run("GD", problem, config, seed=s).records[-1].energy_error for s in range(10)]
    assert sum(err < 0.5 for err in finals) >= 8


def test_qng_strictly_decreases_loss():
    problem = tfim_problem()
    good = 0
    for seed in range(10):
        config = OptimizerConfig(eta=0.01, beta=0.1, shots=None, blocking=False, max_steps=50)
        energies = [rec.energy for rec in run("QNG", problem, config, seed=seed).records]
        good += all(b < a for a, b in zip(energies, energies[1:]))
    assert good >= 9


def test_blocked_step_keeps_parameters():
    problem = tfim_problem()
    # Absurd learning rate forces loss increases; tolerance 0 blocks them.
    config = OptimizerConfig(
        eta=50.0, samples=2, shots=4096, blocking=True, blocking_multiplier=0.0, max_steps=6
    )
    result = run("SPSA", problem, config, seed=5)
    blocked = [rec.blocked for rec in result.records[1:]]
    assert any(blocked)
    # After a blocked step the recorded exact energy is unchanged.
    for prev, cur in zip(result.records, result.records[1:]):
        if cur.blocked:
            assert cur.energy == prev.energy


@pytest.mark.parametrize("update_metric_on_block", [True, False])
def test_blocked_step_metric_average(update_metric_on_block):
    problem = tfim_problem()
    # As in test_blocked_step_keeps_parameters: tolerance 0 blocks every loss increase.
    config = OptimizerConfig(
        eta=50.0, samples=2, shots=4096, blocking=True, blocking_multiplier=0.0, max_steps=6,
        update_metric_on_block=update_metric_on_block,
    )
    rng = np.random.default_rng(5)
    theta0 = rng.uniform(-np.pi, np.pi, problem.circuit.param_count)
    loss0 = loss(problem.circuit, problem.hamiltonian, theta0, shots=config.shots, rng=rng)
    state = OptimizerState(theta0, loss0)
    blocked_steps = 0
    for _ in range(config.max_steps):
        before_avg, before_count = state.metric_avg, state.metric_count
        step("QNSPSA", state, problem, config, rng)
        blocked = state.trace[-1].blocked
        blocked_steps += blocked
        if blocked and not update_metric_on_block:
            assert state.metric_count == before_count
            assert state.metric_avg is before_avg
        else:
            assert state.metric_count == before_count + 1
            assert state.metric_avg is not before_avg
    assert blocked_steps >= 1
    kept = config.max_steps if update_metric_on_block else config.max_steps - blocked_steps
    assert state.metric_count == kept


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_marks_nonfinite_failure():
    huge = PauliSum.from_terms(
        [PauliString(1e308, "ZI"), PauliString(1e308, "IZ"), PauliString(1e308, "II")], 2
    )
    problem = Problem(hardware_efficient(2, 1), huge, 0.0)
    config = OptimizerConfig(eta=10.0, shots=None, blocking=False, max_steps=5)
    result = run("GD", problem, config, seed=1)
    assert result.failed
    assert 1 <= len(result.records) <= 6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["SPSA", "STEIN", "QNSTEIN2"])
def test_a_diverging_sampled_run_ends_failed_with_its_trace(kind):
    # eta = 1e308 overflows a step into a non-finite candidate, whose state is
    # NaN. Blocking must not sample it (the multinomial would raise and take
    # the whole grid down): the run ends failed with its partial trace, as
    # QNSTEIN2 already does without shots.
    config = OptimizerConfig(eta=1e308, shots=100, max_steps=5)
    result = run(kind, tfim_problem(), config, seed=0)
    energies = [r.energy for r in result.records]
    assert result.failed
    assert not math.isfinite(energies[-1])
    assert all(math.isfinite(e) for e in energies[:-1])
    if kind == "QNSTEIN2":
        exact = run(kind, tfim_problem(), replace(config, shots=None), seed=0)
        assert exact.failed and len(exact.records) == len(result.records) == 2


def test_unknown_kind_rejected():
    problem = tfim_problem()
    with pytest.raises(ValueError):
        run("ADAM", problem, OptimizerConfig(max_steps=0), seed=0)
    state = OptimizerState(np.zeros(2))
    with pytest.raises(ValueError):
        step("NEWTON", state, problem, OptimizerConfig(), np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(samples=0)
    # The estimators check c and samples again; b is checked only here.
    with pytest.raises(ValueError, match="^c must be > 0, got 0.0"):
        OptimizerConfig(c=0.0)
    with pytest.raises(ValueError, match="^b must be > 0, got -1.0"):
        OptimizerConfig(b=-1.0)
    # beta = 0 leaves a zero metric singular, so the Cholesky solve would fail mid-run.
    with pytest.raises(ValueError, match="^beta must be > 0, got 0.0"):
        OptimizerConfig(beta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(shots=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_steps=-1)


# Frozen final (energy, circuits_charged, circuits_raw) of 6-step exact-mode
# runs at n = 4 with each figure preset's per-kind config. Rounding-only changes
# (one LU solve in place of `natural_step`'s two Cholesky solves, or `eigh`
# reading the upper triangle in `regularize_metric`) moved these energies by
# at most 8.2e-13 relative; one extra RNG draw per step moves every
# stochastic run by far more. Sampled runs are not frozen: the same rounding
# changes flip draws there (see README, "Install and test").
FROZEN_EXACT_RUNS = {
    ("tfim-fig2", "GD", 0): (-1.0520279082567716, 144, 144),
    ("tfim-fig2", "GD", 1): (-1.7783110664918855, 144, 144),
    ("tfim-fig2", "QNG", 0): (-1.8944650921635398, 144, 144),
    ("tfim-fig2", "QNG", 1): (-2.816403810616631, 144, 144),
    ("tfim-fig2", "SPSA", 0): (-1.0568821137815707, 120, 120),
    ("tfim-fig2", "SPSA", 1): (-1.5926996718278863, 120, 120),
    ("tfim-fig2", "QNSPSA", 0): (-4.502124285094246, 360, 360),
    ("tfim-fig2", "QNSPSA", 1): (-3.5862693592023467, 360, 360),
    ("tfim-fig2", "STEIN", 0): (-1.0644694995942963, 120, 120),
    ("tfim-fig2", "STEIN", 1): (-1.7510797424043847, 120, 120),
    ("tfim-fig2", "QNSTEIN2", 0): (-1.2410708852043082, 240, 186),
    ("tfim-fig2", "QNSTEIN2", 1): (-3.857318973443303, 240, 186),
    ("tfim-fig2", "QNSTEIN3", 0): (-1.2417122050596179, 300, 246),
    ("tfim-fig2", "QNSTEIN3", 1): (-3.7308465644973916, 300, 246),
    ("schwinger-fig5", "GD", 0): (2.269844336813037, 432, 432),
    ("schwinger-fig5", "GD", 1): (1.8595238411468247, 432, 432),
    ("schwinger-fig5", "QNG", 0): (2.215789645592832, 432, 432),
    ("schwinger-fig5", "QNG", 1): (1.7575050698390713, 432, 432),
    ("schwinger-fig5", "SPSA", 0): (2.2807233459373233, 180, 180),
    ("schwinger-fig5", "SPSA", 1): (1.9154602948852195, 180, 180),
    ("schwinger-fig5", "QNSPSA", 0): (1.9279420112235552, 540, 540),
    ("schwinger-fig5", "QNSPSA", 1): (1.5655481805479259, 540, 540),
    ("schwinger-fig5", "STEIN", 0): (2.262300641318374, 180, 180),
    ("schwinger-fig5", "STEIN", 1): (1.910414257143387, 180, 180),
    ("schwinger-fig5", "QNSTEIN2", 0): (2.542658642694718, 360, 276),
    ("schwinger-fig5", "QNSTEIN2", 1): (1.9701955233227086, 360, 276),
    ("schwinger-fig5", "QNSTEIN3", 0): (2.554337805729432, 450, 366),
    ("schwinger-fig5", "QNSTEIN3", 1): (1.96915085520594, 450, 366),
}


@pytest.mark.parametrize("preset", ["tfim-fig2", "schwinger-fig5"])
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_exact_mode_runs_match_frozen_values(preset, kind):
    cfg = preset_config(preset)
    problem = build_problem(cfg, 4)
    entry = next(e for e in cfg.optimizers if e.kind == kind)
    config = replace(optimizer_config(cfg, entry), shots=None, max_steps=6)
    for seed in (0, 1):
        last = run(kind, problem, config, seed).records[-1]
        energy, charged, raw = FROZEN_EXACT_RUNS[preset, kind, seed]
        assert last.energy == pytest.approx(energy, rel=1e-9, abs=0)
        assert (last.circuits_charged, last.circuits_raw) == (charged, raw)
