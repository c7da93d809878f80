import itertools
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import vqebench
from vqebench import ansatz, estimators
from vqebench.ansatz import hardware_efficient, loss, schwinger_ansatz, single_qubit_ry
from vqebench.estimators import (
    MetricEstimate,
    RowOracle,
    displacement_fidelity_oracle,
    exact_gradient_and_metric,
    exact_metric,
    loss_oracle,
    parameter_shift_metric,
    spsa2_hessian,
    spsa_gradient,
    spsa_metric,
    stein_gradient_1eval,
    stein_gradient_2eval,
    stein_hessian_1eval,
    stein_hessian_2eval,
    stein_hessian_3eval,
    stein_metric_2eval,
    stein_metric_3eval,
)
from vqebench.optimizers import OptimizerConfig, OptimizerState, Problem, exact_parameter_shift_gradient, step
from vqebench.pauli import PauliString, PauliSum, build_schwinger, build_tfim
from vqebench.simulator import Circuit, Gate, apply_adjoint_circuit, apply_circuit, sampled_zero_probability

from estimator_moments import (
    gaussian_quadratic_form_moment,
    spsa_metric_expectation,
    spsa_metric_variance,
    stein_metric_expectation,
    stein_metric_variance,
)


@pytest.fixture
def quad():
    """Quadratic test function 0.5 theta^T A theta with a frozen symmetric A."""
    rng = np.random.default_rng(1234)
    a = rng.uniform(-1, 1, (4, 4))
    a = (a + a.T) / 2
    return a, RowOracle(lambda rows: 0.5 * np.einsum("bi,ij,bj->b", rows, a, rows))


def test_row_oracle_counts_rows():
    oracle = RowOracle(lambda rows: rows.sum(axis=1))
    for _ in range(3):
        assert np.array_equal(oracle(np.ones((2, 4))), [4.0, 4.0])
    assert oracle.calls == 6
    for bad in (np.ones(4), np.ones((1, 2, 4))):
        with pytest.raises(ValueError, match="rows"):
            oracle(bad)
    assert oracle.calls == 6


STOCHASTIC_ESTIMATORS = (
    spsa_gradient,
    spsa2_hessian,
    stein_gradient_1eval,
    stein_gradient_2eval,
    stein_hessian_1eval,
    stein_hessian_2eval,
    stein_hessian_3eval,
    spsa_metric,
    stein_metric_2eval,
    stein_metric_3eval,
)


@pytest.mark.parametrize("estimator", STOCHASTIC_ESTIMATORS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize(
    "key, value",
    [
        ("c", 0.0), ("c", -0.1), ("c", np.nan), ("c", np.inf), ("c", True),
        ("samples", 0), ("samples", -1), ("samples", 2.5), ("samples", True),
    ],
)
def test_stochastic_estimators_reject_bad_arguments(estimator, key, value):
    # The config's rules and messages for c and samples.
    args = {"c": 0.1, "samples": 5, key: value}
    oracle = RowOracle(lambda rows: np.ones(len(rows)))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^({key} must be|key {key!r} expects (float|int), got {value!r}$)"):
        estimator(oracle, np.zeros(3), args["c"], args["samples"], rng)
    # Rejected before any draw or query.
    assert oracle.calls == 0
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.zeros((2, 3)), "^metric must be square, got shape \\(2, 3\\)$"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "^metric estimate has non-finite entries$"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^metric estimate has non-finite entries$"),
    ],
    ids=["non-square", "non-finite", "nan"],
)
def test_metric_estimate_rejects_bad_matrices(matrix, expected):
    with pytest.raises(ValueError, match=expected):
        MetricEstimate(matrix, 0, 0)


def test_metric_estimate_requires_exact_symmetry():
    with pytest.raises(ValueError):
        MetricEstimate(np.array([[0.0, 1e-14], [0.0, 0.0]]), 0, 0)


def test_spsa_gradient_linear_first_coordinate():
    # f = theta_0: each single-sample estimate has first component exactly 1.
    f = RowOracle(lambda rows: rows[:, 0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = spsa_gradient(f, np.zeros(3), 0.1, 1, rng)
        assert g[0] == pytest.approx(1.0, abs=1e-12)


def test_spsa_gradient_constant_function():
    f = RowOracle(lambda rows: np.full(len(rows), 4.2))
    g = spsa_gradient(f, np.zeros(3), 0.1, 50, np.random.default_rng(1))
    assert np.all(g == 0.0)
    assert f.calls == 100


def test_spsa_gradient_quadratic(quad):
    a, f = quad
    theta0 = np.array([0.3, -0.7, 0.2, 1.1])
    g = spsa_gradient(f, theta0, 0.1, 100_000, np.random.default_rng(2))
    assert np.max(np.abs(g - a @ theta0)) < 0.05


def test_spsa2_hessian_linear_exact_zero():
    f = RowOracle(lambda rows: 2.0 * rows[:, 0] - rows[:, 1])
    h = spsa2_hessian(f, np.zeros(2), 0.1, 30, np.random.default_rng(4))
    assert np.max(np.abs(h)) < 1e-12


def test_spsa2_hessian_symmetric_per_sample():
    f = RowOracle(lambda rows: np.sin(rows[:, 0]) * rows[:, 1] ** 2)
    h = spsa2_hessian(f, np.array([0.5, -0.2]), 0.2, 1, np.random.default_rng(5))
    assert np.array_equal(h, h.T)


def test_spsa2_hessian_per_sample_algebra(quad):
    # For a quadratic, the four-point second difference is exactly
    # 2 c^2 Delta1^T A Delta2, so one sample gives that weight on
    # sym(Delta1 Delta2^T); reproduce the draws from a same-seeded generator.
    a, f = quad
    c = 0.2
    h = spsa2_hessian(f, np.zeros(4), c, 1, np.random.default_rng(77))
    probe = np.random.default_rng(77)
    d1 = probe.integers(0, 2, size=(1, 4))[0] * 2.0 - 1.0
    d2 = probe.integers(0, 2, size=(1, 4))[0] * 2.0 - 1.0
    weight = d1 @ a @ d2
    expected = weight * (np.outer(d1, d2) + np.outer(d2, d1)) / 2
    assert np.max(np.abs(h - expected)) < 1e-12


def test_stein_gradient_2eval_constant_exact_zero():
    f = RowOracle(lambda rows: np.full(len(rows), -3.0))
    g = stein_gradient_2eval(f, np.zeros(3), 0.1, 40, np.random.default_rng(6))
    assert np.all(g == 0.0)
    assert f.calls == 80


def test_stein_gradient_2eval_linear():
    direction = np.array([0.6, -0.8, 0.0, 0.0])
    f = RowOracle(lambda rows: rows @ direction)
    g = stein_gradient_2eval(f, np.zeros(4), 0.1, 100_000, np.random.default_rng(7))
    assert np.max(np.abs(g - direction)) < 0.05


def test_stein_gradient_2eval_quadratic(quad):
    a, f = quad
    theta0 = np.array([-0.4, 0.9, 0.1, -0.3])
    g = stein_gradient_2eval(f, theta0, 0.1, 100_000, np.random.default_rng(8))
    assert np.max(np.abs(g - a @ theta0)) < 0.05


def test_stein_1eval_constant_means():
    # Single-sample values are nonzero (k/c^2 scale) but the means vanish;
    # the Hessian tolerance is 5 standard errors of the noisiest element.
    k = 2.0
    c = 0.1
    samples = 100_000
    f = RowOracle(lambda rows: np.full(len(rows), k))
    rng = np.random.default_rng(9)
    g = stein_gradient_1eval(f, np.zeros(4), c, samples, rng)
    assert np.max(np.abs(g)) < 0.05 * k / c
    h = stein_hessian_1eval(f, np.zeros(4), c, samples, rng)
    assert np.max(np.abs(h)) < 5 * (k / c**2) * np.sqrt(2.0 / samples)


def test_stein_hessian_3eval_linear_exact_zero():
    f = RowOracle(lambda rows: rows[:, 0] - 2.0 * rows[:, 1])
    h = stein_hessian_3eval(f, np.zeros(2), 0.1, 25, np.random.default_rng(12))
    assert np.max(np.abs(h)) < 1e-12


def test_stein_hessian_matches_standard_form_reference(quad):
    """Library estimator vs an inline standard-normal reference, shared draws."""
    a, _ = quad
    f = lambda th: 0.5 * th @ a @ th
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    c, samples = 0.1, 64

    h2 = stein_hessian_2eval(RowOracle(lambda rows: [f(row) for row in rows]), theta, c, samples, np.random.default_rng(99))
    u = np.random.default_rng(99).standard_normal((samples, 4))
    ref = np.zeros((4, 4))
    f0 = f(theta)
    for ui in u:
        ref += (f(theta + c * ui) - f0) / (c * c) * (np.outer(ui, ui) - np.eye(4))
    ref /= samples
    ref = (ref + ref.T) / 2
    assert np.max(np.abs(h2 - ref)) < 1e-12

    h3 = stein_hessian_3eval(RowOracle(lambda rows: [f(row) for row in rows]), theta, c, samples, np.random.default_rng(99))
    ref3 = np.zeros((4, 4))
    for ui in u:
        second = f(theta + c * ui) + f(theta - c * ui) - 2 * f0
        ref3 += second / (2 * c * c) * (np.outer(ui, ui) - np.eye(4))
    ref3 /= samples
    ref3 = (ref3 + ref3.T) / 2
    assert np.max(np.abs(h3 - ref3)) < 1e-12


# The per-sample loops the row-array estimators replaced, one scalar query at a
# time, kept as the reference for their values and their query order.
def _loop_spsa_gradient(f, theta, c, samples, rng):
    d = theta.size
    deltas = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    grad = np.zeros(d)
    for delta in deltas:
        diff = f(theta + c * delta) - f(theta - c * delta)
        grad += diff / (2.0 * c) * delta
    return grad / samples


def _loop_spsa2_hessian(f, theta, c, samples, rng):
    d = theta.size
    d1 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    d2 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    hess = np.zeros((d, d))
    for delta1, delta2 in zip(d1, d2):
        df = (
            f(theta + c * delta1 + c * delta2)
            - f(theta + c * delta1)
            - f(theta - c * delta1 + c * delta2)
            + f(theta - c * delta1)
        )
        hess += df / (2.0 * c * c) * np.outer(delta1, delta2)
    hess /= samples
    return (hess + hess.T) / 2.0


def _loop_stein_gradient_1eval(f, theta, c, samples, rng):
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) for ui in u])
    return (vals @ u) / (c * samples)


def _loop_stein_gradient_2eval(f, theta, c, samples, rng):
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) - f(theta - c * ui) for ui in u])
    return (vals @ u) / (2.0 * c * samples)


def _loop_outer_mean(weights, u):
    m = np.einsum("i,ij,ik->jk", weights, u, u) / len(weights)
    m = m - weights.mean() * np.eye(u.shape[1])
    return (m + m.T) / 2.0


def _loop_stein_hessian_1eval(f, theta, c, samples, rng):
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) for ui in u])
    return _loop_outer_mean(vals / (c * c), u)


def _loop_stein_hessian_2eval(f, theta, c, samples, rng):
    u = rng.standard_normal((samples, len(theta)))
    f0 = f(theta)
    vals = np.array([f(theta + c * ui) - f0 for ui in u])
    return _loop_outer_mean(vals / (c * c), u)


def _loop_stein_hessian_3eval(f, theta, c, samples, rng):
    u = rng.standard_normal((samples, len(theta)))
    f0 = f(theta)
    vals = np.array([f(theta + c * ui) + f(theta - c * ui) - 2.0 * f0 for ui in u])
    return _loop_outer_mean(vals / (2.0 * c * c), u)


LOOP_REFERENCES = {
    spsa_gradient: _loop_spsa_gradient,
    spsa2_hessian: _loop_spsa2_hessian,
    stein_gradient_1eval: _loop_stein_gradient_1eval,
    stein_gradient_2eval: _loop_stein_gradient_2eval,
    stein_hessian_1eval: _loop_stein_hessian_1eval,
    stein_hessian_2eval: _loop_stein_hessian_2eval,
    stein_hessian_3eval: _loop_stein_hessian_3eval,
}


@pytest.mark.parametrize("base", ["zero", "offset"])
@pytest.mark.parametrize("estimator", LOOP_REFERENCES, ids=lambda fn: fn.__name__)
def test_estimators_match_per_sample_loop_reference(estimator, base):
    """Bit for bit equal to the per-sample loop, with the same query order.

    One generator feeds both the perturbation draws and the 1024-shot overlap
    sampling, as in the optimizer loop, so a reordered query changes the
    result and the generator's next draw.
    """
    circuit = hardware_efficient(3, 1)
    theta = np.random.default_rng(32).uniform(-np.pi, np.pi, circuit.param_count)
    start = np.zeros(3) if base == "zero" else np.array([0.05, -0.02, 0.01])
    c, samples = 0.1, 16

    rng = np.random.default_rng(33)
    oracle = displacement_fidelity_oracle(circuit, theta, shots=1024, rng=rng)
    got = estimator(oracle, start, c, samples, rng)

    loop_rng = np.random.default_rng(33)

    # One sampled overlap row spelled out with a fresh psi(theta) per row, so a
    # query that changed the oracle's shared psi would show up here.
    def fid(delta):
        state = apply_adjoint_circuit(circuit, theta + delta, apply_circuit(circuit, theta))
        return sampled_zero_probability(state, 1024, loop_rng)

    want = LOOP_REFERENCES[estimator](fid, start, c, samples, loop_rng)
    assert np.array_equal(got, want)
    assert rng.random() == loop_rng.random()


@pytest.mark.parametrize(
    "shots, passes",
    # (estimators.apply_circuit, ansatz.apply_circuit, ansatz.apply_adjoint_circuit)
    # for N = 12 samples, N + 1 overlap rows: one block pass (a block holds 512 rows
    # at n = 3) when exact, one pass per row when sampled.
    [(None, (2, 0, 0)), (1024, (1, 0, 13))],
    ids=["exact", "sampled"],
)
def test_overlap_oracle_prepares_reference_state_once(monkeypatch, shots, passes):
    """psi(theta) is one forward pass per oracle; then each block of exact rows, or each
    sampled row, is one more circuit pass."""
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(estimators, "apply_circuit")
    counted(ansatz, "apply_circuit")
    counted(ansatz, "apply_adjoint_circuit")
    circuit = hardware_efficient(3, 1)
    theta = np.random.default_rng(34).uniform(-np.pi, np.pi, circuit.param_count)
    rng = np.random.default_rng(35)
    fid = displacement_fidelity_oracle(circuit, theta, shots=shots, rng=rng)
    stein_metric_2eval(fid, theta, 0.1, 12, rng)
    assert fid.calls == 13
    assert tuple(calls.values()) == passes


@pytest.mark.parametrize("shots", [None, 512], ids=["exact", "sampled"])
@pytest.mark.parametrize(
    "circuit, h",
    [
        (hardware_efficient(4, 2), build_tfim(4, -1.0, -2.0)),
        (schwinger_ansatz(4, 1), build_schwinger(4, 1.0, 0.5, 0.0)),
        (hardware_efficient(7, 1), build_tfim(7, -1.0, -2.0)),
        (hardware_efficient(12, 1), build_tfim(12, -1.0, -2.0)),
    ],
    ids=["hardware_efficient", "schwinger_so4", "hardware_efficient_7q", "hardware_efficient_12q"],
)
def test_loss_oracle_matches_the_per_row_loss_loop(circuit, h, shots):
    """Each row's value is its own `loss` bit for bit, and the draws run in row order: at
    n = 4 the 40 rows are one block, at n = 7 (32 rows a block) they span two, and at
    n = 12 each row is a one-row block."""
    rows = np.random.default_rng(36).uniform(-np.pi, np.pi, (40, circuit.param_count))
    rows[3] = -0.0
    rows[35, 0] = np.nan
    rng, loop_rng = np.random.default_rng(37), np.random.default_rng(37)
    oracle = loss_oracle(circuit, h, shots, rng)
    # A NaN state's distributions are refused by the draw, so sampled rows are the finite ones.
    queried = rows if shots is None else rows[np.isfinite(rows).all(axis=1)]
    got = oracle(queried)
    want = [loss(circuit, h, row, shots, loop_rng) for row in queried]
    assert got.tobytes() == np.array(want).tobytes()
    assert oracle.calls == len(queried)
    if shots is None:
        assert np.isnan(got[35]) and not np.isnan(got[:35]).any()
    else:  # both refuse the NaN row after the rows before it have drawn
        with pytest.raises(ValueError, match="NaN"):
            oracle(rows)
        with pytest.raises(ValueError, match="NaN"):
            [loss(circuit, h, row, shots, loop_rng) for row in rows]
    assert rng.random() == loop_rng.random()


@pytest.mark.parametrize("shots", [None, 16], ids=["exact", "sampled"])
def test_oracles_refuse_rows_whose_width_is_not_d(shots):
    """A (B, 1) array would broadcast across all d parameters, and a (B, d + 1) array would reach
    numpy's broadcast error: both oracles refuse each shape with the parameter-count message,
    and a refusal draws nothing and is not counted."""
    circuit = hardware_efficient(2, 1)
    h = build_tfim(2, -1.0, -2.0)
    theta = np.array([0.3, -0.2])
    rng, twin = np.random.default_rng(38), np.random.default_rng(38)
    oracles = [loss_oracle(circuit, h, shots, rng), displacement_fidelity_oracle(circuit, theta, shots, rng)]
    for oracle in oracles:
        for width in (1, 3):
            with pytest.raises(ValueError, match=rf"^expected 2 parameters, got shape \(3, {width}\)$"):
                oracle(np.full((3, width), 0.1))
        assert oracle.calls == 0
    assert rng.random() == twin.random()


CONSTANT_FID_DIM = 3


def constant_fid_oracle():
    return RowOracle(lambda deltas: np.ones(len(deltas)))


def test_stein_metrics_zero_for_constant_overlap():
    theta = np.zeros(CONSTANT_FID_DIM)
    c, samples = 0.1, 30
    m2 = stein_metric_2eval(constant_fid_oracle(), theta, c, samples, np.random.default_rng(14))
    assert np.all(m2.matrix == 0.0)
    m3 = stein_metric_3eval(constant_fid_oracle(), theta, c, samples, np.random.default_rng(15))
    assert np.all(m3.matrix == 0.0)
    ms = spsa_metric(constant_fid_oracle(), theta, 0.1, 30, np.random.default_rng(16))
    assert np.all(ms.matrix == 0.0)


def test_metric_estimator_eval_counts():
    theta = np.zeros(CONSTANT_FID_DIM)
    c, samples = 0.1, 25
    fid = constant_fid_oracle()
    m2 = stein_metric_2eval(fid, theta, c, samples, np.random.default_rng(17))
    assert (m2.raw_evals, m2.charged_evals, fid.calls) == (26, 50, 26)
    fid = constant_fid_oracle()
    m3 = stein_metric_3eval(fid, theta, c, samples, np.random.default_rng(18))
    assert (m3.raw_evals, m3.charged_evals, fid.calls) == (51, 75, 51)
    fid = constant_fid_oracle()
    ms = spsa_metric(fid, theta, 0.1, 25, np.random.default_rng(19))
    assert (ms.raw_evals, ms.charged_evals, fid.calls) == (100, 100, 100)


def test_stein_metrics_agree_on_two_qubit_circuit():
    circuit = hardware_efficient(2, 1)
    theta = np.random.default_rng(23).uniform(-np.pi, np.pi, 2)
    exact = exact_metric(circuit, theta).matrix
    c, samples = 0.01, 30_000
    m2 = stein_metric_2eval(
        displacement_fidelity_oracle(circuit, theta), theta, c, samples, np.random.default_rng(24)
    )
    m3 = stein_metric_3eval(
        displacement_fidelity_oracle(circuit, theta), theta, c, samples, np.random.default_rng(25)
    )
    assert np.max(np.abs(m2.matrix - exact)) < 0.08
    assert np.max(np.abs(m3.matrix - exact)) < 0.08
    assert np.max(np.abs(m2.matrix - m3.matrix)) < 0.1


@pytest.mark.parametrize("shots", [None, 1024])
def test_metric_estimators_are_minus_half_their_overlap_hessian(shots):
    # Each stochastic metric is -1/2 times its Hessian estimator of the overlap
    # at zero displacement, bit for bit, given the same oracle and draw streams.
    circuit = hardware_efficient(3, 1)
    theta = np.random.default_rng(29).uniform(-np.pi, np.pi, circuit.param_count)
    zero = np.zeros(circuit.param_count)
    c, samples = 0.1, 20

    def fid():
        return displacement_fidelity_oracle(circuit, theta, shots=shots, rng=np.random.default_rng(30))

    def rng():
        return np.random.default_rng(31)

    pairs = (
        (spsa_metric(fid(), theta, c, samples, rng()), spsa2_hessian),
        (stein_metric_2eval(fid(), theta, c, samples, rng()), stein_hessian_2eval),
        (stein_metric_3eval(fid(), theta, c, samples, rng()), stein_hessian_3eval),
    )
    for metric, hessian in pairs:
        hess = hessian(fid(), zero, c, samples, rng())
        assert np.array_equal(metric.matrix, -0.5 * hess), hessian.__name__


def test_parameter_shift_single_qubit():
    m = parameter_shift_metric(single_qubit_ry(), np.array([0.7]))
    assert m.matrix[0, 0] == pytest.approx(0.25, abs=1e-10)
    assert m.raw_evals == 4


def test_parameter_shift_matches_exact_metric():
    rng = np.random.default_rng(26)
    # The SO(4) circuits add RX/RZ generators and the S, Sdg, H, X and CNOT gates.
    for circuit, draws in (
        (hardware_efficient(2, 2), 5),
        (schwinger_ansatz(4, 1, "even_first"), 2),
        (schwinger_ansatz(4, 1, "odd_first"), 2),
    ):
        for _ in range(draws):
            theta = rng.uniform(-np.pi, np.pi, circuit.param_count)
            shift = parameter_shift_metric(circuit, theta).matrix
            exact = exact_metric(circuit, theta).matrix
            assert np.max(np.abs(shift - exact)) < 1e-12
            assert np.all(np.diag(shift) >= -1e-12)
    circuit = hardware_efficient(2, 2)
    d = circuit.param_count
    assert parameter_shift_metric(circuit, np.zeros(d)).raw_evals == 2 * d * (d + 1)


def test_shared_parameter_index():
    # RY(t) RY(t) = RY(2t): the metric in t is 4 * 1/4, but the +-pi/2 shift
    # rule assumes one gate per parameter and would return 0. With H = Z,
    # <Z> = cos 2t, so the gradient at t = 0.3 is -2 sin(0.6): the derivative
    # block sums one term per gate, while the shift-rule gradient refuses.
    circuit = Circuit((Gate("RY", (0,), 0), Gate("RY", (0,), 0)), 1, 1)
    theta = np.array([0.3])
    assert abs(exact_metric(circuit, theta).matrix[0, 0] - 1.0) < 1e-12
    with pytest.raises(ValueError, match="parameter index 0"):
        parameter_shift_metric(circuit, theta)
    z = PauliSum((PauliString(1.0, "Z"),), 1)
    grad, metric = exact_gradient_and_metric(circuit, z, theta)
    assert abs(grad[0] + 2.0 * np.sin(0.6)) < 1e-12
    assert np.array_equal(metric.matrix, exact_metric(circuit, theta).matrix)
    with pytest.raises(ValueError, match="parameter index 0"):
        exact_parameter_shift_gradient(Problem(circuit, z, -1.0), theta)
    # GD reads the same block, charged as 2d shifted losses.
    config = OptimizerConfig()
    state = step("GD", OptimizerState(theta.copy()), Problem(circuit, z, -1.0), config, np.random.default_rng(0))
    assert abs(state.theta[0] - (0.3 + config.eta * 2.0 * np.sin(0.6))) < 1e-15
    assert state.circuits_raw == state.circuits_charged == 2


_GRADIENT_CASES = {
    **{f"tfim{n}": (hardware_efficient(n, 2), build_tfim(n, -1.0, -2.0)) for n in range(2, 7)},
    **{
        f"schwinger{n}_{order}": (schwinger_ansatz(n, 2, order), build_schwinger(n, 1.0, 0.5, 0.0))
        for n in (4, 6)
        for order in ("even_first", "odd_first")
    },
    "identity_term": (
        hardware_efficient(3, 2),
        PauliSum.from_terms(
            [PauliString(2.5, "III"), PauliString(-0.7, "XZY"), PauliString(0.4, "ZZI"), PauliString(1.1, "IYX")], 3
        ),
    ),
}


@pytest.mark.parametrize("h_qubits", [6, 2, 3])
def test_block_gradient_refuses_a_hamiltonian_on_another_register(h_qubits):
    circuit = hardware_efficient(4, 1)
    theta = np.zeros(circuit.param_count)
    with pytest.raises(ValueError, match=f"Hamiltonian on {h_qubits} qubits, circuit on 4"):
        exact_gradient_and_metric(circuit, build_tfim(h_qubits, -1.0, -2.0), theta)


@pytest.mark.parametrize("circuit, h", _GRADIENT_CASES.values(), ids=_GRADIENT_CASES.keys())
def test_block_gradient_matches_the_shift_rule(circuit, h):
    # grad_i = 2 Re <d_i psi|H|psi> from the derivative block against the 2d
    # exact shifted losses; the metric from the same block is exact_metric's.
    rng = np.random.default_rng(circuit.param_count)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, circuit.param_count)
        grad, metric = exact_gradient_and_metric(circuit, h, theta)
        shift = exact_parameter_shift_gradient(Problem(circuit, h, 0.0), theta)
        assert np.max(np.abs(grad - shift)) <= 1e-12 * np.max(np.abs(shift))
        assert np.array_equal(metric.matrix, exact_metric(circuit, theta).matrix)
        assert metric.raw_evals == metric.charged_evals == 0


_BLOCK_DIGESTS = """
import hashlib
import numpy as np
from vqebench.ansatz import hardware_efficient, schwinger_ansatz
from vqebench.estimators import exact_gradient_and_metric
from vqebench.pauli import build_schwinger, build_tfim
for circuit, h in (
    (schwinger_ansatz(6, 2), build_schwinger(6, 1.0, 0.5, 0.0)),
    (hardware_efficient(12, 3), build_tfim(12, -1.0, -2.0)),
):
    theta = np.random.default_rng(circuit.param_count).uniform(-np.pi, np.pi, circuit.param_count)
    grad, metric = exact_gradient_and_metric(circuit, h, theta)
    print(circuit.param_count, hashlib.sha256(grad.tobytes() + metric.matrix.tobytes()).hexdigest())
"""


def test_block_gradient_and_metric_do_not_depend_on_blas_threads():
    # A seeded QNG run's bytes must not depend on the BLAS thread count. Its
    # gradient and metric (Schwinger n = 6, d = 60; TFIM n = 12, d = 36) are
    # computed in two processes, one with one BLAS thread and one with two, and
    # must be equal bit for bit.
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(estimators.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _BLOCK_DIGESTS], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        outputs.append(proc.stdout)
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["60", "36"]
    assert outputs[0] == outputs[1]


def test_exact_metric_single_qubit():
    m = exact_metric(single_qubit_ry(), np.array([-1.2]))
    assert m.matrix[0, 0] == pytest.approx(0.25, abs=1e-8)
    assert m.raw_evals == 0 and m.charged_evals == 0


def test_exact_metric_ignores_fixed_phase_gates():
    base = hardware_efficient(2, 1)
    theta = np.array([0.4, -0.9])
    decorated = Circuit(
        base.gates + (Gate("S", (0,)), Gate("H", (1,)), Gate("S", (1,))),
        2,
        base.param_count,
    )
    m_base = exact_metric(base, theta).matrix
    m_dec = exact_metric(decorated, theta).matrix
    assert np.max(np.abs(m_base - m_dec)) < 1e-9


def test_exact_metric_subtracts_global_phase_direction():
    # An RZ on |0> only changes the global phase, so the metric vanishes even
    # though the bare derivative overlap does not.
    c = Circuit((Gate("RZ", (0,), 0),), 1, 1)
    m = exact_metric(c, np.array([0.6]))
    assert abs(m.matrix[0, 0]) < 1e-8


def test_exact_metric_positive_semidefinite():
    rng = np.random.default_rng(27)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        layers = int(rng.integers(1, 3))
        circuit = hardware_efficient(n, layers)
        theta = rng.uniform(-np.pi, np.pi, circuit.param_count)
        eigs = np.linalg.eigvalsh(exact_metric(circuit, theta).matrix)
        assert eigs.min() > -1e-8


def test_all_estimators_return_exactly_symmetric_matrices(quad):
    a, f = quad
    rng = np.random.default_rng(28)
    for h in (
        spsa2_hessian(f, np.zeros(4), 0.1, 10, rng),
        stein_hessian_1eval(f, np.zeros(4), 0.1, 10, rng),
        stein_hessian_2eval(f, np.zeros(4), 0.1, 10, rng),
        stein_hessian_3eval(f, np.zeros(4), 0.1, 10, rng),
    ):
        assert np.array_equal(h, h.T)
    circuit = hardware_efficient(2, 1)
    theta = np.zeros(2)
    c, samples = 0.05, 10
    for est in (
        stein_metric_2eval(displacement_fidelity_oracle(circuit, theta), theta, c, samples, rng),
        stein_metric_3eval(displacement_fidelity_oracle(circuit, theta), theta, c, samples, rng),
        spsa_metric(displacement_fidelity_oracle(circuit, theta), theta, 0.05, 10, rng),
        parameter_shift_metric(circuit, theta),
        exact_metric(circuit, theta),
    ):
        assert np.array_equal(est.matrix, est.matrix.T)


@pytest.mark.parametrize("d", [1, 3, 12])
def test_gaussian_moment_of_the_squared_norm(d):
    # With every A_k = I the product is ||u||^(2m), a chi-square moment d (d + 2) ... (d + 2m - 2).
    for m in range(1, 5):
        expected = np.prod([d + 2 * k for k in range(m)])
        assert gaussian_quadratic_form_moment([np.eye(d)] * m) == pytest.approx(expected, rel=1e-12)


def test_spsa_metric_variance_is_the_enumerated_one():
    # Every pair of Rademacher vectors at d = 4 is equally likely, so the mean over all
    # of them is the expectation itself.
    rng = np.random.default_rng(41)
    f = rng.normal(size=(4, 4))
    f = f + f.T
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    total = 0.0
    for d1, d2 in itertools.product(signs, repeat=2):
        outer = np.outer(d1, d2)
        total += np.sum(((d1 @ f @ d2) * (outer + outer.T) / 2.0 - f) ** 2)
    assert spsa_metric_variance(f) == pytest.approx(total / len(signs) ** 2, rel=1e-12)


@pytest.mark.parametrize(
    "estimator, variance, seed",
    [
        (stein_metric_2eval, stein_metric_variance, 1),
        (stein_metric_3eval, stein_metric_variance, 2),
        (spsa_metric, spsa_metric_variance, 3),
    ],
    ids=["stein2", "stein3", "spsa"],
)
def test_metric_per_sample_variance_matches_closed_form(estimator, variance, seed):
    # Protocol, fixed before any result was seen. F is the exact metric of
    # hardware_efficient(6, 2) (d = 12) at theta uniform in [0, 2 pi) (seed 0); the
    # oracle is the quadratic overlap 1 - delta^T F delta; c = 0.05. R = 2000
    # estimates of N = 100 samples each; Z = N ||F_hat - F||_F^2 has mean exactly
    # the per-sample variance V, since the samples are independent and unbiased.
    # Pass when |mean Z - V| <= 4 SE, SE = std(Z) / sqrt(R), and 4 SE <= V / 10,
    # so a formula off by more than a tenth cannot pass.
    theta = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 12)
    f = exact_metric(hardware_efficient(6, 2), theta).matrix
    oracle = RowOracle(lambda rows: 1.0 - np.einsum("bi,ij,bj->b", rows, f, rows))
    rng = np.random.default_rng(seed)
    samples, repeats = 100, 2000
    z = np.array(
        [samples * np.sum((estimator(oracle, theta, 0.05, samples, rng).matrix - f) ** 2) for _ in range(repeats)]
    )
    expected, se = variance(f), z.std(ddof=1) / np.sqrt(repeats)
    assert 4.0 * se <= expected / 10.0
    assert abs(z.mean() - expected) <= 4.0 * se, (z.mean(), expected, se)


def test_stochastic_metrics_average_to_their_exact_expectations():
    # Protocol, fixed before any result was seen: criterion 3's circuit and theta,
    # c = 0.2, and per estimator 20 batches of 5,000 samples on one generator seeded
    # as criterion 1 seeds its own. Every entry's batch mean lies within 4 SE of the
    # exact expectation, and at c = 1e-3 each expectation is within 1e-5 relative
    # (Frobenius) of the exact metric, its c -> 0 limit.
    circuit = hardware_efficient(2, 1)
    theta = np.random.default_rng(11).uniform(-np.pi, np.pi, 2)
    fid = displacement_fidelity_oracle(circuit, theta)
    exact = exact_metric(circuit, theta).matrix
    for name, estimator, expectation in (
        ("STEIN2", stein_metric_2eval, stein_metric_expectation),
        ("STEIN3", stein_metric_3eval, stein_metric_expectation),
        ("SPSA", spsa_metric, spsa_metric_expectation),
    ):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        stack = np.array([estimator(fid, theta, 0.2, 5000, rng).matrix for _ in range(20)])
        se = stack.std(axis=0, ddof=1) / np.sqrt(20)
        assert np.all(np.abs(stack.mean(axis=0) - expectation(fid, 2, 0.2)) <= 4.0 * se), name
        limit = expectation(fid, 2, 1e-3)
        assert np.linalg.norm(limit - exact) <= 1e-5 * np.linalg.norm(exact), name


def test_package_reexports_the_block_gradient():
    assert vqebench.exact_gradient_and_metric is estimators.exact_gradient_and_metric
