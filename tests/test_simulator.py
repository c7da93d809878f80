import numpy as np
import pytest

from vqebench.pauli import PauliString, PauliSum, build_tfim, to_dense
from vqebench.simulator import (
    Circuit,
    Gate,
    apply_adjoint_circuit,
    apply_circuit,
    circuit_to_text,
    derivative_states,
    expectation,
    rotation_matrix,
    sampled_expectation,
    sampled_zero_probability,
    _FIXED_MATRICES,
    _apply_gates,
)


def random_circuit(rng, n, n_gates):
    gates = []
    param = 0
    for _ in range(n_gates):
        kind = rng.choice(["RX", "RY", "RZ", "H", "S", "Sdg", "X", "CNOT"])
        if kind == "CNOT" and n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(a), int(b))))
        elif kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (int(rng.integers(n)),), param))
            param += 1
        elif kind != "CNOT":
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    if param == 0:
        gates.append(Gate("RY", (0,), 0))
        param = 1
    return Circuit(tuple(gates), n, param)


def test_empty_circuit_is_identity():
    c = Circuit((), 2, 0)
    s = apply_circuit(c, [])
    assert s[0] == 1.0
    assert np.all(s[1:] == 0)


def test_ry_pi_flips_qubit():
    c = Circuit((Gate("RY", (0,), 0),), 1, 1)
    s = apply_circuit(c, [np.pi])
    assert abs(s[1] - 1.0) < 1e-12
    assert abs(s[0]) < 1e-12


def test_bell_state():
    c = Circuit((Gate("RY", (0,), 0), Gate("CNOT", (0, 1))), 2, 1)
    s = apply_circuit(c, [np.pi / 2])
    assert np.allclose(s, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_cnot_reversed_control():
    # control on the higher site index: |01> -> |11>
    c = Circuit((Gate("X", (1,)), Gate("CNOT", (1, 0))), 2, 0)
    s = apply_circuit(c, [])
    assert abs(s[0b11] - 1.0) < 1e-12


def test_adjoint_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, 12)
        theta = rng.uniform(-np.pi, np.pi, c.param_count)
        s = apply_circuit(c, theta)
        back = apply_adjoint_circuit(c, theta, s)
        assert abs(back[0]) ** 2 > 1 - 1e-10


def test_adjoint_of_s_is_sdg():
    # The circuit S then Sdg is the identity operator, so its adjoint must be
    # too; a wrong S/Sdg inverse pairing would turn it into S^2 = Z.
    c = Circuit((Gate("S", (0,)), Gate("Sdg", (0,))), 1, 0)
    plus = np.array([1.0 + 0j, 1.0]) / np.sqrt(2)
    out = apply_adjoint_circuit(c, [], plus)
    assert np.allclose(out, plus)


def test_adjoint_rotation_negates_angle():
    c = Circuit((Gate("RY", (0,), 0),), 1, 1)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi)
    s = apply_circuit(c, [theta])
    via_adjoint = apply_adjoint_circuit(c, [-theta], np.array([1.0 + 0j, 0]))
    assert np.allclose(s, via_adjoint)


def edge_site_circuit(n):
    """Every gate kind on the first and the last site, CNOTs between them both ways."""
    gates = []
    p = 0
    for site in sorted({0, n - 1}):
        gates += [Gate(kind, (site,)) for kind in ("H", "S", "Sdg", "X")]
        for kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (site,), p))
            p += 1
    if n > 1:
        gates += [Gate("CNOT", (0, n - 1)), Gate("CNOT", (n - 1, 0)), Gate("CNOT", (1, 2))]
    gates.append(Gate("RY", (n - 1,), 0))  # parameter 0 drives two gates
    return Circuit(tuple(gates), n, p)


@pytest.mark.parametrize("n", [1, 5])
def test_block_kernels_match_single_states_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    c = edge_site_circuit(n)
    theta = rng.uniform(-np.pi, np.pi, c.param_count)
    block = rng.standard_normal((6, 2**n)) + 1j * rng.standard_normal((6, 2**n))
    block[0] = 0.0
    block[0, 0] = 1.0
    forward = block.copy()
    _apply_gates(forward, n, c.gates, theta)
    assert np.array_equal(forward[0], apply_circuit(c, theta))
    backward = block.copy()
    _apply_gates(backward, n, c.gates, theta, adjoint=True)
    for row, fwd, bwd in zip(block, forward, backward):
        single = row.copy()
        _apply_gates(single, n, c.gates, theta)
        assert np.array_equal(fwd, single)
        assert np.array_equal(bwd, apply_adjoint_circuit(c, theta, row))


def test_derivative_states_match_finite_differences():
    rng = np.random.default_rng(44)
    for n in (1, 3, 5):
        c = edge_site_circuit(n) if n != 3 else random_circuit(rng, n, 16)
        theta = rng.uniform(-np.pi, np.pi, c.param_count)
        block = derivative_states(c, theta)
        assert block.shape == (c.param_count + 1, 2**n)
        assert np.array_equal(block[0], apply_circuit(c, theta))
        eps = 1e-6
        for i in range(c.param_count):
            e = np.zeros(c.param_count)
            e[i] = eps
            fd = (apply_circuit(c, theta + e) - apply_circuit(c, theta - e)) / (2 * eps)
            assert np.max(np.abs(block[i + 1] - fd)) < 1e-8


def test_parameter_length_mismatch():
    c = Circuit((Gate("RY", (0,), 0),), 1, 1)
    with pytest.raises(ValueError):
        apply_circuit(c, [0.1, 0.2])


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0,), param_index=0)
    with pytest.raises(ValueError):
        Gate("RY", (0,))
    with pytest.raises(ValueError):
        Circuit((Gate("RY", (3,), 0),), 2, 1)
    with pytest.raises(ValueError):
        Circuit((Gate("RY", (0,), 0),), 1, 2)  # param 1 never referenced


def test_expectation_basics():
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    zero = np.array([1.0 + 0j, 0.0])
    plus = np.array([1.0 + 0j, 1.0]) / np.sqrt(2)
    assert expectation(zero, z) == pytest.approx(1.0, abs=1e-12)
    assert expectation(plus, z) == pytest.approx(0.0, abs=1e-12)


def test_expectation_ground_eigenvector():
    h = build_tfim(2, -1, -2)
    eigvals, eigvecs = np.linalg.eigh(to_dense(h))
    ground = eigvecs[:, 0].astype(complex)
    assert expectation(ground, h) == pytest.approx(eigvals[0], abs=1e-10)
    assert expectation(ground, h) == pytest.approx(-np.sqrt(17), abs=1e-10)


def test_expectation_dimension_mismatch():
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    with pytest.raises(ValueError):
        expectation(np.zeros(4, dtype=complex), z)


@pytest.mark.parametrize("shape", [(2,), (3,), (8,), (1, 4)])
def test_state_length_must_match_the_register(shape):
    # Two qubits take exactly 4 amplitudes in one axis.
    c = Circuit((Gate("RY", (0,), 0), Gate("CNOT", (0, 1))), 2, 1)
    h = build_tfim(2, -1.0, -2.0)
    state = np.full(shape, 1.0 + 0j) / np.sqrt(np.prod(shape))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="state must be"):
        expectation(state, h)
    with pytest.raises(ValueError, match="state must be"):
        sampled_expectation(state, h, 8, rng)
    with pytest.raises(ValueError, match="state must be"):
        apply_adjoint_circuit(c, [0.3], state)


@pytest.mark.parametrize("shape", [(), (1,), (3,), (6,), (1, 4)])
def test_zero_probability_needs_a_power_of_two_length(shape):
    state = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match="state must be"):
        sampled_zero_probability(state, 8, np.random.default_rng(0))


def test_sampled_expectation_constant_only():
    h = PauliSum.from_terms([PauliString(3.25, "II")], 2)
    s = np.array([0.5] * 4, dtype=complex)
    rng = np.random.default_rng(0)
    assert sampled_expectation(s, h, 17, rng) == 3.25


def test_sampled_expectation_deterministic_outcome():
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    s = np.array([1.0 + 0j, 0.0])
    rng = np.random.default_rng(1)
    for shots in (1, 7, 100):
        assert sampled_expectation(s, z, shots, rng) == 1.0


def test_expectation_matches_dense_on_random_sums():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for _ in range(4):
            terms = [PauliString(float(rng.normal()), "I" * n)] + [
                PauliString(float(rng.normal()), "".join(rng.choice(list("IXYZ"), n)))
                for _ in range(8)
            ]
            h = PauliSum.from_terms(terms, n)
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            dense = np.real(np.vdot(amps, to_dense(h) @ amps))
            assert abs(expectation(amps, h) - dense) < 1e-12


@pytest.mark.parametrize(
    "axes, amps, eigenvalue",
    [
        ("X", [1, 1], 1.0),
        ("X", [1, -1], -1.0),
        ("Y", [1, 1j], 1.0),
        ("Y", [1, -1j], -1.0),
        ("XY", np.kron([1, 1], [1, 1j]), 1.0),
        ("XY", np.kron([1, -1], [1, 1j]), -1.0),
    ],
)
def test_sampled_expectation_on_x_and_y_eigenstates(axes, amps, eigenvalue):
    n = len(axes)
    h = PauliSum.from_terms([PauliString(1.0, axes)], n)
    amps = np.asarray(amps, dtype=complex)
    s = amps / np.linalg.norm(amps)
    rng = np.random.default_rng(3)
    for shots in (1, 7, 100):
        assert sampled_expectation(s, h, shots, rng) == eigenvalue


def test_sampled_expectation_binomial_statistics():
    # <Z> = 0 on |+>; mean over 100 repeats of 8192-shot estimates ~ N(0, 1/sqrt(100*8192))
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    plus = np.array([1.0 + 0j, 1.0]) / np.sqrt(2)
    rng = np.random.default_rng(7)
    estimates = [sampled_expectation(plus, z, 8192, rng) for _ in range(100)]
    assert abs(np.mean(estimates)) < 0.005
    assert np.std(estimates) == pytest.approx(1 / np.sqrt(8192), rel=0.35)


def test_sampled_expectation_unbiased_multi_term():
    h = build_tfim(2, -1.0, -2.0)
    rng = np.random.default_rng(21)
    c = Circuit((Gate("RY", (0,), 0), Gate("CNOT", (0, 1)), Gate("RY", (1,), 1)), 2, 2)
    s = apply_circuit(c, [0.7, -1.1])
    exact = expectation(s, h)
    estimates = [sampled_expectation(s, h, 256, rng) for _ in range(400)]
    scale = np.sqrt(sum(t.coefficient**2 for t in h.terms) / (256 * 400))
    assert abs(np.mean(estimates) - exact) < 5 * scale


def test_sampled_expectation_rejects_zero_shots():
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    s = np.array([1.0 + 0j, 0.0])
    with pytest.raises(ValueError):
        sampled_expectation(s, z, 0, np.random.default_rng(0))


def test_zero_probability_cases():
    rng = np.random.default_rng(9)
    all_zeros = np.array([1.0 + 0j, 0, 0, 0])
    assert sampled_zero_probability(all_zeros, 13, rng) == 1.0
    one = np.array([0.0 + 0j, 1.0])
    assert sampled_zero_probability(one, 13, rng) == 0.0


def test_sampled_zero_probability_uniform_state():
    uniform = np.full(4, 0.5, dtype=complex)
    rng = np.random.default_rng(13)
    shots = 4096
    estimate = sampled_zero_probability(uniform, shots, rng)
    sigma = np.sqrt(0.25 * 0.75 / shots)
    assert abs(estimate - 0.25) < 3 * sigma


def test_norm_preserved_across_random_circuits():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, 10)
        theta = rng.uniform(-np.pi, np.pi, c.param_count)
        s = apply_circuit(c, theta)
        assert abs(np.sum(np.abs(s) ** 2) - 1.0) < 1e-10


def test_gate_matrices_unitary():
    rng = np.random.default_rng(23)
    for kind in ("RX", "RY", "RZ"):
        for _ in range(10):
            m = rotation_matrix(kind, rng.uniform(-2 * np.pi, 2 * np.pi))
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-14
    for kind, m in _FIXED_MATRICES.items():
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-14
    s = _FIXED_MATRICES["S"]
    h = _FIXED_MATRICES["H"]
    assert np.allclose(s @ s, np.diag([1, -1]))  # S^2 = Z
    assert np.allclose(h @ h, np.eye(2))


def test_circuit_to_text():
    c = Circuit((Gate("RY", (0,), 0), Gate("CNOT", (0, 1)), Gate("X", (1,))), 2, 1)
    text = circuit_to_text(c)
    assert text.splitlines() == [
        "qubits 2 params 1",
        "RY 0 p0",
        "CNOT 0 1 -",
        "X 1 -",
    ]
