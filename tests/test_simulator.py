import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vqebench import ansatz, estimators, optimizers, pauli, simulator
from vqebench.ansatz import fidelity, hardware_efficient, loss, schwinger_ansatz, so4_block_gates
from vqebench.bench import build_problem, preset_config
from vqebench.estimators import exact_metric
from vqebench.optimizers import OPTIMIZER_KINDS, OptimizerConfig
from vqebench.pauli import (
    PauliString,
    PauliSum,
    build_schwinger,
    _outcome_probabilities,
    build_tfim,
    to_dense,
)
from vqebench.simulator import (
    Circuit,
    Gate,
    apply_adjoint_circuit,
    apply_circuit,
    circuit_to_text,
    derivative_states,
    expectation,
    inverse_gates,
    sampled_expectation,
    sampled_zero_probability,
    _check_state,
)

from dense_reference import PAULI_MATRICES, so4_gate

# Reference: the generic update. Every gate is a 2x2 matrix applied with a
# copy, four products and two sums, and CNOT swaps through fancy indexing.
# The compiled plans must give the same bits up to the sign of zeros.

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_FIXED_MATRICES = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.diag([1.0, 1.0j]),
    "Sdg": np.diag([1.0, -1.0j]),
    "X": PAULI_MATRICES["X"],
}
_GENERATOR_MATRICES = {kind: -0.5j * PAULI_MATRICES[kind[1]] for kind in ("RX", "RY", "RZ")}
# Self-inverse kinds map to themselves; S and Sdg swap.
_INVERSE_KIND = {"H": "H", "S": "Sdg", "Sdg": "S", "X": "X", "CNOT": "CNOT"}
# Gates, in order, that map an X or Y eigenbasis onto Z (V = H S^dagger for Y).
_TO_Z_BASIS = {"X": ("H",), "Y": ("Sdg", "H")}


def rotation_matrix(kind, angle):
    """2x2 matrix of exp(-i * angle * P / 2) for P in {X, Y, Z}."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])
    raise ValueError(f"not a rotation kind: {kind!r}")


def _apply_gates(amps, n, gates, theta, adjoint=False):
    """A plain gate list run in place through its plan, compiled for this call."""
    plan = simulator._compile(n, inverse_gates(gates) if adjoint else gates)
    theta = np.asarray(theta, dtype=float)
    amps[...] = plan.run(amps, -theta if adjoint else theta)


def _ref_apply_single(amps, n, matrix, site):
    view = amps.reshape(-1, 2, 2 ** (n - site - 1))
    v0 = view[:, 0, :].copy()
    v1 = view[:, 1, :]
    view[:, 0, :] = matrix[0, 0] * v0 + matrix[0, 1] * v1
    view[:, 1, :] = matrix[1, 0] * v0 + matrix[1, 1] * v1


def _ref_apply_cnot(amps, n, control, target):
    a, b = sorted((control, target))
    view = amps.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
    if control < target:
        sub = view[:, 1, :, :, :]
        sub[:, :, [0, 1], :] = sub[:, :, [1, 0], :]
    else:
        sub = view[:, :, :, 1, :]
        sub[:, [0, 1], :, :] = sub[:, [1, 0], :, :]


def _ref_apply_gates(amps, n, gates, theta, adjoint=False):
    for g in reversed(gates) if adjoint else gates:
        if g.kind == "CNOT":
            _ref_apply_cnot(amps, n, g.sites[0], g.sites[1])
        elif g.param_index is not None:
            angle = theta[g.param_index]
            _ref_apply_single(amps, n, rotation_matrix(g.kind, -angle if adjoint else angle), g.sites[0])
        else:
            kind = _INVERSE_KIND[g.kind] if adjoint else g.kind
            _ref_apply_single(amps, n, _FIXED_MATRICES[kind], g.sites[0])


def _ref_derivative_states(c, theta):
    theta = np.asarray(theta, dtype=float)
    n = c.qubit_count
    block = np.zeros((c.param_count + 1, 2**n), dtype=complex)
    block[0, 0] = 1.0
    for g in c.gates:
        _ref_apply_gates(block, n, (g,), theta)
        if g.param_index is not None:
            term = block[0].copy()
            _ref_apply_single(term, n, _GENERATOR_MATRICES[g.kind], g.sites[0])
            block[g.param_index + 1] += term
    return block


def _ref_signs(axes, kinds):
    """(-1)^(number of sites with axis in `kinds` whose bit is set in j), for every j."""
    n = len(axes)
    j = np.arange(2**n)
    return np.prod([1 - 2 * (j >> (n - 1 - site) & 1) for site, a in enumerate(axes) if a in kinds], axis=0)


def _ref_distribution(state, axes):
    """Born probabilities of the state rotated into the measurement basis of `axes`."""
    rotated = np.array(state, dtype=complex)
    for site, axis in enumerate(axes):
        for kind in _TO_Z_BASIS.get(axis, ()):
            _ref_apply_single(rotated, len(axes), _FIXED_MATRICES[kind], site)
    return _outcome_probabilities(rotated)


def _ref_sampled_expectation(state, h, shots, rng):
    state = _check_state(state, h.qubit_count)
    total = 0.0
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
            continue
        counts = rng.multinomial(shots, _ref_distribution(state, t.axes))
        total += t.coefficient * float(counts @ _ref_signs(t.axes, "XYZ")) / shots
    return total


def _ref_expectation(state, h):
    """Term by term, each string applied as phase * (signs * amps[j ^ flip_mask]), where
    phase is (-i)^(number of Y's) and signs[j] is -1 per Y or Z site whose bit is set in j."""
    amps = _check_state(state, h.qubit_count)
    j = np.arange(amps.size)
    total = 0.0
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
        else:
            phase = (1 + 0j, -1j, -1 + 0j, 1j)[t.axes.count("Y") % 4]
            flips = int("".join("1" if a in "XY" else "0" for a in t.axes), 2)
            applied = phase * (_ref_signs(t.axes, "YZ") * amps[j ^ flips])
            total += t.coefficient * np.real(np.vdot(amps, applied))
    return float(total)


def _ref_apply_circuit(c, theta):
    if np.ndim(theta) == 2:  # a (B, d) array of angle rows: the per-row states, stacked
        return np.array([_ref_apply_circuit(c, row) for row in theta])
    state = np.zeros(2**c.qubit_count, dtype=complex)
    state[0] = 1.0
    _ref_apply_gates(state, c.qubit_count, c.gates, np.asarray(theta, dtype=float))
    return state


def _ref_apply_adjoint_circuit(c, theta, state):
    out = np.array(_check_state(state, c.qubit_count), dtype=complex)
    _ref_apply_gates(out, c.qubit_count, c.gates, np.asarray(theta, dtype=float), adjoint=True)
    return out


def use_reference_kernels(monkeypatch):
    """Route every circuit, overlap and readout query through the references above."""
    for module, name, ref in (
        (ansatz, "apply_circuit", _ref_apply_circuit),
        (estimators, "apply_circuit", _ref_apply_circuit),
        (optimizers, "apply_circuit", _ref_apply_circuit),
        (ansatz, "apply_adjoint_circuit", _ref_apply_adjoint_circuit),
        (estimators, "derivative_states", _ref_derivative_states),
        (ansatz, "expectation", _ref_expectation),
        (ansatz, "sampled_expectation", _ref_sampled_expectation),
    ):
        monkeypatch.setattr(module, name, ref)


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


_KERNEL_CASES = [(kind, n) for kind in simulator.GATE_KINDS for n in (1, 5) if (kind, n) != ("CNOT", 1)]


@pytest.mark.parametrize("kind, n", _KERNEL_CASES)
def test_kernel_matches_generic_update_per_gate_kind(kind, n):
    # n = 1 gives halves of one amplitude, where numpy takes other loops.
    rng = np.random.default_rng(50 + n)
    c = edge_site_circuit(n)
    gates = [g for g in c.gates if g.kind == kind]
    block = rng.standard_normal((8, 2**n)) + 1j * rng.standard_normal((8, 2**n))
    for theta, adjoint in itertools.product(rng.uniform(-2 * np.pi, 2 * np.pi, (8, c.param_count)), (False, True)):
        for amps in (*block, block):
            got, want = amps.copy(), amps.copy()
            _apply_gates(got, n, gates, theta, adjoint)
            _ref_apply_gates(want, n, gates, theta, adjoint)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_derivative_states_and_so4_gate_match_generic_update(n):
    rng = np.random.default_rng(60 + n)
    for c in (edge_site_circuit(n), random_circuit(rng, n, 24)):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, c.param_count)
        assert np.array_equal(derivative_states(c, theta), _ref_derivative_states(c, theta))
    alpha = rng.uniform(-2 * np.pi, 2 * np.pi, 6)
    want = np.eye(4, dtype=complex)
    _ref_apply_gates(want, 2, so4_block_gates(0, 1, range(6)), alpha)
    assert np.array_equal(so4_gate(alpha), want.T)


def test_derivative_rows_join_at_their_first_rotation_in_any_index_order():
    # Index 3 comes first and is shared, and 0 comes after 1: rows join the block out of order.
    gates = [("RY", (0,), 3), ("H", (1,), None), ("RX", (2,), 1), ("CNOT", (0, 1), None)]
    gates += [("RZ", (1,), 3), ("RY", (2,), 0), ("RZ", (0,), 2)]
    c = Circuit(tuple(Gate(*g) for g in gates), 3, 4)
    rng = np.random.default_rng(66)
    thetas = [*rng.uniform(-2 * np.pi, 2 * np.pi, (20, 4)), [-0.0, 0.4, -0.0, 1.1], [0.3, np.nan, -0.0, 0.9]]
    for theta in thetas:
        got, want = derivative_states(c, theta), _ref_derivative_states(c, theta)
        assert got.shape == (5, 8) and np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[1:]).all()  # every derivative row meets RX(nan), directly or through psi


def fixed_run_circuit(rng, n, runs=6):
    """Long runs of X, CNOT (both directions), S and Sdg between single H or rotation gates."""
    gates, p = [], 0
    for _ in range(runs):
        for _ in range(int(rng.integers(3, 12))):
            kind = str(rng.choice(["X", "S", "Sdg", "CNOT"] if n > 1 else ["X", "S", "Sdg"]))
            sites = rng.choice(n, size=2, replace=False) if kind == "CNOT" else rng.integers(n, size=1)
            gates.append(Gate(kind, tuple(int(q) for q in sites)))
        kind = str(rng.choice(["H", "RX", "RY", "RZ"]))
        gates.append(Gate(kind, (int(rng.integers(n)),), None if kind == "H" else p))
        p += kind != "H"
    gates.append(Gate("RZ", (n - 1,), p))
    return Circuit(tuple(gates), n, p + 1)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_plans_of_long_fixed_runs_match_generic_update(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(6):
        c = fixed_run_circuit(rng, n)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, c.param_count)
        block = rng.standard_normal((4, 2**n)) + 1j * rng.standard_normal((4, 2**n))
        want = _ref_apply_circuit(c, theta)
        assert np.array_equal(apply_circuit(c, theta), want)
        for adjoint in (False, True):
            got, ref = block.copy(), block.copy()
            _apply_gates(got, n, c.gates, theta, adjoint)
            _ref_apply_gates(ref, n, c.gates, theta, adjoint)
            assert np.array_equal(got, ref)
        for row in block:
            assert np.array_equal(apply_adjoint_circuit(c, theta, row), _ref_apply_adjoint_circuit(c, theta, row))
        assert np.array_equal(derivative_states(c, theta), _ref_derivative_states(c, theta))


def test_a_circuit_compiles_its_plan_once(monkeypatch):
    compiled = []

    def counting_compile(n, gates):
        compiled.append(list(gates))
        return compile_plan(n, gates)

    compile_plan = simulator._compile
    monkeypatch.setattr(simulator, "_compile", counting_compile)
    c = schwinger_ansatz(4, 1)
    theta = np.linspace(-1.0, 1.0, c.param_count)
    for _ in range(3):
        psi = apply_circuit(c, theta)
        apply_adjoint_circuit(c, theta, psi)
        derivative_states(c, theta)
    assert compiled == [list(c.gates), inverse_gates(c.gates)]  # the forward plan, then the adjoint


def test_equal_but_distinct_circuits_each_get_a_correct_plan():
    rng = np.random.default_rng(90)
    first = fixed_run_circuit(rng, 3)
    second = Circuit(first.gates, first.qubit_count, first.param_count)
    other = fixed_run_circuit(rng, 3)
    theta = rng.uniform(-np.pi, np.pi, first.param_count)
    want = _ref_apply_circuit(first, theta)
    assert second == first and second is not first
    assert np.array_equal(apply_circuit(first, theta), want)
    apply_circuit(other, rng.uniform(-np.pi, np.pi, other.param_count))
    assert np.array_equal(apply_circuit(second, theta), want)
    assert second._plan is not first._plan


def _pinned_quantities(c, h, seed):
    """Bytes of every loss, overlap and metric query on c, and of the next draw."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, c.param_count)
    step = rng.normal(0.0, 0.1, c.param_count)
    theta_prime = theta + step
    values = [
        loss(c, h, theta),
        loss(c, h, theta, shots=512, rng=rng),
        fidelity(c, ansatz.apply_circuit(c, theta), theta_prime, shots=512, rng=rng),
        estimators.displacement_fidelity_oracle(c, theta)(step[None]),
        ansatz.sampled_expectation(ansatz.apply_circuit(c, theta_prime), h, 512, rng),
        exact_metric(c, theta).matrix,
        rng.random(),
    ]
    return [np.asarray(v).tobytes() for v in values]


@pytest.mark.parametrize(
    "c, h",
    [
        (schwinger_ansatz(6, 2), build_schwinger(6, 1.0, 0.5, 0.0)),
        (hardware_efficient(6, 2), build_tfim(6, -1.0, -2.0)),
    ],
    ids=["schwinger_so4", "hardware_efficient"],
)
def test_queries_match_generic_update_bit_for_bit(monkeypatch, c, h):
    got = _pinned_quantities(c, h, 70)
    use_reference_kernels(monkeypatch)
    assert got == _pinned_quantities(c, h, 70)


def test_whole_runs_match_the_reference_kernels(monkeypatch):
    # Three steps of every optimizer kind, with sampled losses and overlaps
    # (shots) and exact references (GD, QNG), on TFIM and on Schwinger.
    config = OptimizerConfig(samples=3, shots=256, max_steps=3)
    problems = (
        build_problem(replace(preset_config("tfim-fig2"), sizes=(4,), layers=2), 4),
        build_problem(replace(preset_config("schwinger-fig5"), sizes=(4,), layers=1), 4),
    )
    jobs = [(kind, problem) for problem in problems for kind in OPTIMIZER_KINDS]
    got = [optimizers.run(kind, problem, config, seed=11) for kind, problem in jobs]
    use_reference_kernels(monkeypatch)
    assert got == [optimizers.run(kind, problem, config, seed=11) for kind, problem in jobs]
    assert all(len(r.records) == 4 and not r.failed for r in got)


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


def test_angle_rows_run_as_one_block_bit_for_bit():
    # Every gate kind, with NaN, -0.0 and negated rows: each row of the block is its own pass.
    rng = np.random.default_rng(45)
    for n in (1, 3, 5):
        c = random_circuit(rng, n, 24)
        rows = rng.uniform(-np.pi, np.pi, (6, c.param_count))
        rows[1, 0], rows[2], rows[3] = np.nan, -0.0, -rows[0]
        block = apply_circuit(c, rows)
        assert block.shape == (6, 2**n)
        assert block.tobytes() == np.array([apply_circuit(c, row) for row in rows]).tobytes()


def test_parameter_length_mismatch():
    c = Circuit((Gate("RY", (0,), 0),), 1, 1)
    for theta in ([0.1, 0.2], np.zeros((2, 2)), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="^expected 1 parameters"):
            apply_circuit(c, theta)
    # Only the forward pass takes rows of angles.
    with pytest.raises(ValueError, match="^expected 1 parameters"):
        derivative_states(c, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^expected 1 parameters"):
        apply_adjoint_circuit(c, np.zeros((2, 1)), [1.0, 0.0])


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
    with pytest.raises(ValueError, match="^unknown gate kind 'CZ'$"):
        Gate("CZ", (0, 1))
    with pytest.raises(ValueError, match=re.escape("RY takes 1 site(s), got (0, 1)")):
        Gate("RY", (0, 1), 0)
    for qubits in (0, 21):
        with pytest.raises(ValueError, match=re.escape(f"qubit_count must be in [1, 20], got {qubits}")):
            Circuit((), qubits, 0)
    with pytest.raises(ValueError, match="^param_index 1 out of range$"):
        Circuit((Gate("RY", (0,), 1),), 1, 1)


@pytest.mark.parametrize(
    "gates, qubits, params, expected",
    [
        ((), 1, -1, "param_count must be >= 0, got -1"),
        ((Gate("RY", (0,), 0),), 1, True, "key 'param_count' expects int, got True"),
        ((), True, 0, "key 'qubit_count' expects int, got True"),
        ((), 2.0, 0, "key 'qubit_count' expects int, got 2.0"),
        ((Gate("RY", (0.5,), 0),), 2, 1, "key 'sites' expects int, got 0.5"),
        ((Gate("RY", (True,), 0),), 2, 1, "key 'sites' expects int, got True"),
        ((Gate("CNOT", (0, 1.0)),), 2, 0, "key 'sites' expects int, got 1.0"),
        ((Gate("RY", (0,), 0.0),), 1, 1, "key 'param_index' expects int, got 0.0"),
        ((Gate("RY", (0,), False),), 1, 1, "key 'param_index' expects int, got False"),
    ],
    ids=[
        "negative-params", "bool-params", "bool-qubits", "float-qubits",
        "float-site", "bool-site", "float-target", "float-index", "bool-index",
    ],
)
def test_circuit_sizes_must_be_ints(gates, qubits, params, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        Circuit(gates, qubits, params)


def test_numpy_int_sites_and_indices_still_run():
    c = Circuit((Gate("RY", (np.int64(1),), np.int64(0)),), 2, 1)
    np.testing.assert_array_equal(
        apply_circuit(c, [0.3]), apply_circuit(Circuit((Gate("RY", (1,), 0),), 2, 1), [0.3])
    )


def test_inverse_gates_reverse_the_list_and_swap_s_and_sdg():
    gates = [
        Gate("S", (0,)), Gate("RY", (1,), 0), Gate("Sdg", (1,)), Gate("CNOT", (0, 1)),
        Gate("H", (1,)), Gate("X", (0,)), Gate("RX", (0,), 1), Gate("RZ", (1,), 0),
    ]
    assert inverse_gates(gates) == [
        Gate("RZ", (1,), 0), Gate("RX", (0,), 1), Gate("X", (0,)), Gate("H", (1,)),
        Gate("CNOT", (0, 1)), Gate("S", (1,)), Gate("RY", (1,), 0), Gate("Sdg", (0,)),
    ]
    for circuit in (gates, edge_site_circuit(5).gates, schwinger_ansatz(4, 1).gates):
        assert inverse_gates(inverse_gates(circuit)) == list(circuit)


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
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


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
    "sums, c",
    [
        ((build_schwinger(2, 1.0, 0.5, 0.2), build_tfim(2, -1.0, -2.0)), None),
        ((build_schwinger(6, 1.0, 0.5, 0.2), build_tfim(6, -1.0, -2.0)), None),
        ((build_tfim(12, -1.0, -2.0),), hardware_efficient(12, 3)),
        ((build_schwinger(6, 1.0, 0.5, 0.0),), schwinger_ansatz(6, 2)),
    ],
    ids=["2", "6", "tfim12", "schwinger6"],
)
def test_expectation_matches_the_per_term_formula_bit_for_bit(sums, c):
    # Random states (also checked against the dense matrix), then the sums and
    # ansatz states of the benchmark's exact losses, at its sizes: every term's dot
    # comes from one stacked vecdot, which must give the per-term vdot's bits.
    n = sums[0].qubit_count
    rng = np.random.default_rng(30 + n)
    for h in sums:
        dense = to_dense(h) if c is None else None
        for _ in range(20):
            if c is None:
                amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                amps /= np.linalg.norm(amps)
            else:
                amps = apply_circuit(c, rng.uniform(-np.pi, np.pi, c.param_count))
            value = expectation(amps, h)
            assert value == _ref_expectation(amps, h)
            if dense is not None:
                assert abs(value - np.real(np.vdot(amps, dense @ amps))) < 1e-12


def random_sums(rng, n):
    """Random sums on n sites: one mixing I, X, Y and Z with an identity term, a
    term with one Y (a complex weight), terms that repeat another's flip mask
    under other letters (X <-> Y, I <-> Z) and terms that repeat its rotation
    (I <-> Z only); and one with no X or Y at all."""
    mixed = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(6)]
    twins = [axes.translate(str.maketrans("XYIZ", "YXZI")) for axes in mixed[:3]]
    twins += [axes.translate(str.maketrans("IZ", "ZI")) for axes in mixed[3:]]
    z_only = ["".join(rng.choice(list("IZ"), n)) for _ in range(4)]
    for axes in (["I" * n, "Y" + "Z" * (n - 1), *mixed, *twins], ["I" * n, *z_only]):
        yield PauliSum.from_terms([PauliString(float(rng.normal()), a) for a in axes], n)


def _measured_rows(h, amps):
    """Each non-identity term with its row of outcome_distributions' chunks, in order."""
    rows = [row for p, _ in h.outcome_distributions(amps) for row in p]
    return zip([t for t in h.terms if not t.is_identity], rows, strict=True)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_energies_match_the_per_term_references_bit_for_bit(n):
    # Every string is applied, rotated and sampled from one set of stacked
    # tables; each value must equal the per-term reference, and a sampled one
    # must also leave the generator where the reference leaves it.
    rng = np.random.default_rng(40 + n)
    for h in random_sums(rng, n):
        for _ in range(4):
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            amps /= np.linalg.norm(amps)
            assert expectation(amps, h) == _ref_expectation(amps, h)
            # A last-bit change in a distribution seldom moves a draw, so the
            # distributions are compared too.
            for t, p in _measured_rows(h, amps):
                assert np.array_equal(p, _ref_distribution(amps, t.axes))
            got, want = np.random.default_rng(n), np.random.default_rng(n)
            assert sampled_expectation(amps, h, 257, got) == _ref_sampled_expectation(amps, h, 257, want)
            assert got.random() == want.random()


@pytest.mark.parametrize(
    "c, h",
    [
        (hardware_efficient(12, 3), build_tfim(12, -1.0, -2.0)),
        (schwinger_ansatz(6, 2), build_schwinger(6, 1.0, 0.5, 0.0)),
    ],
    ids=["tfim12", "schwinger6"],
)
def test_sampled_energies_match_the_per_term_reference_at_benchmark_sizes(c, h):
    # random_sums stops at n = 6; these are the sums and states the benchmark's
    # sampled losses measure, at its sizes. A last-bit change in a distribution
    # seldom moves a draw, so the distributions are compared too.
    rng = np.random.default_rng(c.qubit_count)
    amps = apply_circuit(c, rng.uniform(-np.pi, np.pi, c.param_count))
    for t, p in _measured_rows(h, amps):
        assert np.array_equal(p, _ref_distribution(amps, t.axes))
    got, want = np.random.default_rng(5), np.random.default_rng(5)
    assert sampled_expectation(amps, h, 8192, got) == _ref_sampled_expectation(amps, h, 8192, want)
    assert got.random() == want.random()


@pytest.mark.parametrize("rows", [1, 2])
def test_chunked_draws_match_the_per_term_reference(monkeypatch, rows):
    # Chunks of one or two rows split the draws at every term and between the
    # identity and Y terms; the stream and the values must not notice.
    monkeypatch.setattr(pauli, "_SAMPLED_ROW_BYTES", rows * 8 * 2**6)
    rng = np.random.default_rng(50 + rows)
    for h in random_sums(rng, 6):
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        amps /= np.linalg.norm(amps)
        assert max(len(p) for p, _ in h.outcome_distributions(amps)) == rows
        for t, p in _measured_rows(h, amps):
            assert np.array_equal(p, _ref_distribution(amps, t.axes))
        got, want = np.random.default_rng(rows), np.random.default_rng(rows)
        assert sampled_expectation(amps, h, 257, got) == _ref_sampled_expectation(amps, h, 257, want)
        assert got.random() == want.random()


def test_a_sampled_energy_holds_two_chunks_beyond_the_rotated_x_block():
    # At n = 14 the TFIM's 27 measured rows (3.4 MiB of probabilities, as many
    # of counts) overflow the 2 MiB cap. Past the tables, rotating the X block
    # (14 complex rows) holds it and its signed copy, and drawing holds the Born
    # rows and one chunk's probabilities and counts: both within two chunks, one
    # block and two states. All rows drawn at once beside the Born rows are not.
    n = 14
    h = build_tfim(n, -1.0, -2.0)
    amps = apply_circuit(hardware_efficient(n, 2), np.linspace(-1.0, 1.0, 2 * n))
    sampled_expectation(amps, h, 8, np.random.default_rng(0))  # builds the tables
    tracemalloc.start()
    try:
        sampled_expectation(amps, h, 8192, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pauli._SAMPLED_ROW_BYTES + n * amps.nbytes + 2 * amps.nbytes


@pytest.mark.parametrize("n", [6, 12])
def test_stacked_row_sums_equal_one_dimensional_sums(n):
    # The sampler normalizes a block of rotated states row by row; each row's
    # distribution must be the one a lone state gets from p / p.sum().
    rng = np.random.default_rng(n)
    block = rng.standard_normal((7, 2**n)) + 1j * rng.standard_normal((7, 2**n))
    sums = (np.abs(block) ** 2).sum(axis=-1)
    for amps, total, p in zip(block, sums, _outcome_probabilities(block), strict=True):
        alone = np.abs(amps.copy()) ** 2
        assert total == alone.sum()
        assert np.array_equal(p, alone / alone.sum())


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
    # The config's rule for shots, checked before any draw: 5.5 shots would
    # draw 5 and divide by 5.5, and True would run one shot.
    z = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    s = np.array([1.0 + 0j, 0.0])
    samplers = (
        lambda shots, rng: sampled_expectation(s, z, shots, rng),
        lambda shots, rng: sampled_zero_probability(s, shots, rng),
    )
    for shots, expected in [
        (0, "shots must be >= 1, got 0"),
        (5.5, "key 'shots' expects int, got 5.5"),
        (True, "key 'shots' expects int, got True"),
    ]:
        for sampler in samplers:
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                sampler(shots, rng)
            assert rng.random() == np.random.default_rng(0).random()


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
