import numpy as np
import pytest

from vqebench.ansatz import hardware_efficient, schwinger_ansatz, single_qubit_ry
from vqebench.estimators import (
    MetricEstimate,
    ScalarOracle,
    SmoothingParams,
    displacement_fidelity_oracle,
    exact_metric,
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
from vqebench.simulator import Circuit, Gate


@pytest.fixture
def quad():
    """Quadratic test function 0.5 theta^T A theta with a frozen symmetric A."""
    rng = np.random.default_rng(1234)
    a = rng.uniform(-1, 1, (4, 4))
    a = (a + a.T) / 2
    return a, ScalarOracle(lambda th: 0.5 * th @ a @ th)


def test_scalar_oracle_counts_calls():
    oracle = ScalarOracle(lambda th: float(np.sum(th)))
    for _ in range(3):
        oracle(np.ones(2))
    assert oracle.calls == 3


def test_smoothing_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(c=0.0, b=1.0, samples=1)
    with pytest.raises(ValueError):
        SmoothingParams(c=0.1, b=-1.0, samples=1)
    with pytest.raises(ValueError):
        SmoothingParams(c=0.1, b=1.0, samples=0)


def test_metric_estimate_requires_exact_symmetry():
    with pytest.raises(ValueError):
        MetricEstimate(np.array([[0.0, 1e-14], [0.0, 0.0]]), "x", None, 0, 0)


def test_spsa_gradient_linear_first_coordinate():
    # f = theta_0: each single-sample estimate has first component exactly 1.
    f = ScalarOracle(lambda th: th[0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = spsa_gradient(f, np.zeros(3), 0.1, 1, rng)
        assert g[0] == pytest.approx(1.0, abs=1e-12)


def test_spsa_gradient_constant_function():
    f = ScalarOracle(lambda th: 4.2)
    g = spsa_gradient(f, np.zeros(3), 0.1, 50, np.random.default_rng(1))
    assert np.all(g == 0.0)
    assert f.calls == 100


def test_spsa_gradient_quadratic(quad):
    a, f = quad
    theta0 = np.array([0.3, -0.7, 0.2, 1.1])
    g = spsa_gradient(f, theta0, 0.1, 100_000, np.random.default_rng(2))
    assert np.max(np.abs(g - a @ theta0)) < 0.05


def test_spsa2_hessian_quadratic(quad):
    a, f = quad
    h = spsa2_hessian(f, np.zeros(4), 0.1, 100_000, np.random.default_rng(3))
    assert np.max(np.abs(h - a)) < 0.1


def test_spsa2_hessian_linear_exact_zero():
    f = ScalarOracle(lambda th: 2.0 * th[0] - th[1])
    h = spsa2_hessian(f, np.zeros(2), 0.1, 30, np.random.default_rng(4))
    assert np.max(np.abs(h)) < 1e-12


def test_spsa2_hessian_symmetric_per_sample():
    f = ScalarOracle(lambda th: np.sin(th[0]) * th[1] ** 2)
    h = spsa2_hessian(f, np.array([0.5, -0.2]), 0.2, 1, np.random.default_rng(5))
    assert np.array_equal(h, h.T)


def test_spsa2_hessian_per_sample_algebra(quad):
    # For a quadratic, the four-point second difference is exactly
    # 2 c^2 Delta1^T A Delta2, so one sample gives that weight on
    # sym(Delta1 Delta2^T); reproduce the draws from a same-seeded generator.
    a, _ = quad
    f = ScalarOracle(lambda th: 0.5 * th @ a @ th)
    c = 0.2
    h = spsa2_hessian(f, np.zeros(4), c, 1, np.random.default_rng(77))
    probe = np.random.default_rng(77)
    d1 = probe.integers(0, 2, size=(1, 4))[0] * 2.0 - 1.0
    d2 = probe.integers(0, 2, size=(1, 4))[0] * 2.0 - 1.0
    weight = d1 @ a @ d2
    expected = weight * (np.outer(d1, d2) + np.outer(d2, d1)) / 2
    assert np.max(np.abs(h - expected)) < 1e-12


def test_stein_gradient_2eval_constant_exact_zero():
    f = ScalarOracle(lambda th: -3.0)
    g = stein_gradient_2eval(f, np.zeros(3), 0.1, 40, np.random.default_rng(6))
    assert np.all(g == 0.0)
    assert f.calls == 80


def test_stein_gradient_2eval_linear():
    direction = np.array([0.6, -0.8, 0.0, 0.0])
    f = ScalarOracle(lambda th: direction @ th)
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
    f = ScalarOracle(lambda th: k)
    rng = np.random.default_rng(9)
    g = stein_gradient_1eval(f, np.zeros(4), c, samples, rng)
    assert np.max(np.abs(g)) < 0.05 * k / c
    h = stein_hessian_1eval(f, np.zeros(4), c, samples, rng)
    assert np.max(np.abs(h)) < 5 * (k / c**2) * np.sqrt(2.0 / samples)


def test_stein_hessian_1eval_quadratic(quad):
    a, f = quad
    h = stein_hessian_1eval(f, np.zeros(4), 0.1, 100_000, np.random.default_rng(10))
    assert np.max(np.abs(h - a)) < 0.2


def test_stein_hessian_23eval_quadratic(quad):
    a, f = quad
    h2 = stein_hessian_2eval(f, np.zeros(4), 0.1, 100_000, np.random.default_rng(11))
    assert np.max(np.abs(h2 - a)) < 0.1
    h3 = stein_hessian_3eval(f, np.zeros(4), 0.1, 100_000, np.random.default_rng(11))
    assert np.max(np.abs(h3 - a)) < 0.1


def test_stein_hessian_3eval_linear_exact_zero():
    f = ScalarOracle(lambda th: th[0] - 2.0 * th[1])
    h = stein_hessian_3eval(f, np.zeros(2), 0.1, 25, np.random.default_rng(12))
    assert np.max(np.abs(h)) < 1e-12


def test_stein_hessian_call_counts(quad):
    _, f = quad
    before = f.calls
    stein_hessian_2eval(f, np.zeros(4), 0.1, 50, np.random.default_rng(13))
    assert f.calls - before == 51
    before = f.calls
    stein_hessian_3eval(f, np.zeros(4), 0.1, 50, np.random.default_rng(13))
    assert f.calls - before == 101
    before = f.calls
    stein_hessian_1eval(f, np.zeros(4), 0.1, 50, np.random.default_rng(13))
    assert f.calls - before == 50


def test_stein_hessian_matches_standard_form_reference(quad):
    """Library estimator vs an inline standard-normal reference, shared draws."""
    a, _ = quad
    f = lambda th: 0.5 * th @ a @ th
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    c, samples = 0.1, 64

    h2 = stein_hessian_2eval(ScalarOracle(f), theta, c, samples, np.random.default_rng(99))
    u = np.random.default_rng(99).standard_normal((samples, 4))
    ref = np.zeros((4, 4))
    f0 = f(theta)
    for ui in u:
        ref += (f(theta + c * ui) - f0) / (c * c) * (np.outer(ui, ui) - np.eye(4))
    ref /= samples
    ref = (ref + ref.T) / 2
    assert np.max(np.abs(h2 - ref)) < 1e-12

    h3 = stein_hessian_3eval(ScalarOracle(f), theta, c, samples, np.random.default_rng(99))
    ref3 = np.zeros((4, 4))
    for ui in u:
        second = f(theta + c * ui) + f(theta - c * ui) - 2 * f0
        ref3 += second / (2 * c * c) * (np.outer(ui, ui) - np.eye(4))
    ref3 /= samples
    ref3 = (ref3 + ref3.T) / 2
    assert np.max(np.abs(h3 - ref3)) < 1e-12


CONSTANT_FID_DIM = 3


def constant_fid_oracle():
    return ScalarOracle(lambda delta: 1.0)


def test_stein_metrics_zero_for_constant_overlap():
    theta = np.zeros(CONSTANT_FID_DIM)
    params = SmoothingParams(c=0.1, b=1.0, samples=30)
    m2 = stein_metric_2eval(constant_fid_oracle(), theta, params, np.random.default_rng(14))
    assert np.all(m2.matrix == 0.0)
    m3 = stein_metric_3eval(constant_fid_oracle(), theta, params, np.random.default_rng(15))
    assert np.all(m3.matrix == 0.0)
    ms = spsa_metric(constant_fid_oracle(), theta, 0.1, 30, np.random.default_rng(16))
    assert np.all(ms.matrix == 0.0)


def test_metric_estimator_eval_counts():
    theta = np.zeros(CONSTANT_FID_DIM)
    params = SmoothingParams(c=0.1, b=1.0, samples=25)
    fid = constant_fid_oracle()
    m2 = stein_metric_2eval(fid, theta, params, np.random.default_rng(17))
    assert (m2.raw_evals, m2.charged_evals, fid.calls) == (26, 50, 26)
    fid = constant_fid_oracle()
    m3 = stein_metric_3eval(fid, theta, params, np.random.default_rng(18))
    assert (m3.raw_evals, m3.charged_evals, fid.calls) == (51, 75, 51)
    fid = constant_fid_oracle()
    ms = spsa_metric(fid, theta, 0.1, 25, np.random.default_rng(19))
    assert (ms.raw_evals, ms.charged_evals, fid.calls) == (100, 100, 100)


def test_stein_metrics_single_qubit_benchmark():
    # Analytic metric of the single-RY circuit is 1/4.
    circuit = single_qubit_ry()
    theta = np.array([0.3])
    params = SmoothingParams(c=0.01, b=1.0, samples=30_000)
    fid = displacement_fidelity_oracle(circuit, theta)
    m2 = stein_metric_2eval(fid, theta, params, np.random.default_rng(20))
    assert m2.matrix[0, 0] == pytest.approx(0.25, abs=0.04)
    m3 = stein_metric_3eval(
        displacement_fidelity_oracle(circuit, theta), theta, params, np.random.default_rng(21)
    )
    assert m3.matrix[0, 0] == pytest.approx(0.25, abs=0.04)
    ms = spsa_metric(
        displacement_fidelity_oracle(circuit, theta), theta, 0.01, 30_000, np.random.default_rng(22)
    )
    assert ms.matrix[0, 0] == pytest.approx(0.25, abs=0.04)


def test_stein_metrics_agree_on_two_qubit_circuit():
    circuit = hardware_efficient(2, 1)
    theta = np.random.default_rng(23).uniform(-np.pi, np.pi, 2)
    exact = exact_metric(circuit, theta).matrix
    params = SmoothingParams(c=0.01, b=1.0, samples=30_000)
    m2 = stein_metric_2eval(
        displacement_fidelity_oracle(circuit, theta), theta, params, np.random.default_rng(24)
    )
    m3 = stein_metric_3eval(
        displacement_fidelity_oracle(circuit, theta), theta, params, np.random.default_rng(25)
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
    params = SmoothingParams(c=c, b=1.0, samples=samples)

    def fid():
        return displacement_fidelity_oracle(circuit, theta, shots=shots, rng=np.random.default_rng(30))

    def rng():
        return np.random.default_rng(31)

    pairs = (
        (spsa_metric(fid(), theta, c, samples, rng()), spsa2_hessian),
        (stein_metric_2eval(fid(), theta, params, rng()), stein_hessian_2eval),
        (stein_metric_3eval(fid(), theta, params, rng()), stein_hessian_3eval),
    )
    for metric, hessian in pairs:
        hess = hessian(fid(), zero, c, samples, rng())
        assert np.array_equal(metric.matrix, -0.5 * hess), metric.kind


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
    # rule assumes one gate per parameter and would return 0.
    circuit = Circuit((Gate("RY", (0,), 0), Gate("RY", (0,), 0)), 1, 1)
    theta = np.array([0.3])
    assert abs(exact_metric(circuit, theta).matrix[0, 0] - 1.0) < 1e-12
    with pytest.raises(ValueError, match="parameter index 0"):
        parameter_shift_metric(circuit, theta)


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
    params = SmoothingParams(c=0.05, b=1.0, samples=10)
    for est in (
        stein_metric_2eval(displacement_fidelity_oracle(circuit, theta), theta, params, rng),
        stein_metric_3eval(displacement_fidelity_oracle(circuit, theta), theta, params, rng),
        spsa_metric(displacement_fidelity_oracle(circuit, theta), theta, 0.05, 10, rng),
        parameter_shift_metric(circuit, theta),
        exact_metric(circuit, theta),
    ):
        assert np.array_equal(est.matrix, est.matrix.T)
