import numpy as np
import pytest

from vqebench.ansatz import (
    AnsatzKind,
    build_ansatz,
    fidelity,
    hardware_efficient,
    loss,
    schwinger_ansatz,
    single_qubit_ry,
    so4_block_gates,
)
from vqebench.estimators import displacement_fidelity_oracle
from vqebench.pauli import PauliString, PauliSum, build_schwinger, build_tfim, to_dense
from vqebench.simulator import (
    Gate,
    apply_adjoint_circuit,
    apply_circuit,
    expectation,
    inverse_gates,
    sampled_zero_probability,
)

from dense_reference import so4_gate


def gate_kinds(circuit):
    return [g.kind for g in circuit.gates]


def test_hardware_efficient_minimal_layout():
    c = hardware_efficient(2, 1)
    assert gate_kinds(c) == ["RY", "RY", "CNOT"]
    assert c.param_count == 2


def test_hardware_efficient_paper_sizes():
    assert hardware_efficient(12, 3).param_count == 36


def test_hardware_efficient_layer_sequence():
    c = hardware_efficient(3, 2)
    assert gate_kinds(c) == ["RY", "RY", "RY", "CNOT", "CNOT"] * 2
    chains = [g.sites for g in c.gates if g.kind == "CNOT"]
    assert chains == [(0, 1), (1, 2), (0, 1), (1, 2)]
    assert c.param_count == 6


def test_hardware_efficient_guards():
    with pytest.raises(ValueError):
        hardware_efficient(1, 1)
    with pytest.raises(ValueError):
        hardware_efficient(2, 0)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: hardware_efficient(2, True), "key 'layers' expects int, got True"),
        (lambda: hardware_efficient(2.0, 1), "key 'qubit_count' expects int, got 2.0"),
        (lambda: schwinger_ansatz(4, 2.0), "key 'layers' expects int, got 2.0"),
        (lambda: AnsatzKind("hardware_efficient", 2, 1.5), "key 'layers' expects int, got 1.5"),
        (lambda: AnsatzKind("ry1", True, 1), "key 'qubit_count' expects int, got True"),
    ],
    ids=["he-bool-layers", "he-float-qubits", "so4-float-layers", "spec-float-layers", "ry1-bool-qubits"],
)
def test_ansatz_sizes_must_be_ints(build, expected):
    # hardware_efficient(2, True) used to build one layer, and a float size
    # failed inside range with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{expected}$"):
        build()


def test_ansatz_sizes_take_numpy_ints():
    assert hardware_efficient(np.int64(3), np.int64(2)) == hardware_efficient(3, 2)
    assert schwinger_ansatz(np.int64(4), np.int64(1)) == schwinger_ansatz(4, 1)


def phase_normalized(matrix):
    idx = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    return matrix * (np.abs(matrix[idx]) / matrix[idx])


def test_so4_zero_angles_identity():
    g = phase_normalized(so4_gate(np.zeros(6)))
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_so4_random_draws_real_orthogonal():
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = phase_normalized(so4_gate(rng.uniform(-np.pi, np.pi, 6)))
        assert np.max(np.abs(g.imag)) < 1e-9
        r = g.real
        assert np.max(np.abs(r @ r.T - np.eye(4))) < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_so4_composition_stays_orthogonal():
    rng = np.random.default_rng(37)
    g = phase_normalized(so4_gate(rng.uniform(-np.pi, np.pi, 6)) @ so4_gate(rng.uniform(-np.pi, np.pi, 6)))
    assert np.max(np.abs(g.imag)) < 1e-9
    assert np.max(np.abs(g.real @ g.real.T - np.eye(4))) < 1e-9


def test_so4_block_is_m_then_rotations_then_m_dagger():
    gates = so4_block_gates(2, 3, range(6, 12))
    assert gates[:4] == [Gate("S", (2,)), Gate("S", (3,)), Gate("H", (2,)), Gate("CNOT", (2, 3))]
    assert [(g.kind, g.sites, g.param_index) for g in gates[4:10]] == [
        ("RZ", (2,), 6), ("RX", (2,), 7), ("RZ", (2,), 8), ("RZ", (3,), 9), ("RX", (3,), 10), ("RZ", (3,), 11),
    ]
    assert gates[10:] == inverse_gates(gates[:4])
    assert gates[10:] == [Gate("CNOT", (2, 3)), Gate("H", (2,)), Gate("Sdg", (3,)), Gate("Sdg", (2,))]


def test_so4_wrong_parameter_count():
    with pytest.raises(ValueError):
        so4_gate(np.zeros(5))
    with pytest.raises(ValueError, match="^SO\\(4\\) block takes 6 parameters, got 5$"):
        so4_block_gates(0, 1, range(5))


def test_schwinger_ansatz_counts():
    c = schwinger_ansatz(4, 1)
    blocks = sum(1 for g in c.gates if g.kind == "RX")  # one RX per qubit half-block
    assert c.param_count == 18
    assert blocks == 6  # 3 blocks x 2 sites
    assert schwinger_ansatz(2, 1).param_count == 6
    assert schwinger_ansatz(8, 2).param_count == 84


def test_schwinger_ansatz_bond_orders():
    even = schwinger_ansatz(4, 1, "even_first")
    odd = schwinger_ansatz(4, 1, "odd_first")
    assert even.param_count == odd.param_count == 18

    def first_cnot_sites(circuit):
        return next(g.sites for g in circuit.gates if g.kind == "CNOT")

    assert first_cnot_sites(even) == (0, 1)
    assert first_cnot_sites(odd) == (1, 2)


def test_schwinger_ansatz_guards():
    with pytest.raises(ValueError):
        schwinger_ansatz(3, 1)
    with pytest.raises(ValueError):
        schwinger_ansatz(4, 1, "diagonal")


def test_schwinger_vacuum_energy():
    # theta = 0 leaves the staggered vacuum |0101...>; hopping expectation is
    # zero there, so the loss equals the diagonal mass + field energy.
    for n in (2, 4, 6):
        h = build_schwinger(n, 1.0, 0.5, 0.0)
        c = schwinger_ansatz(n, 1)
        value = loss(c, h, np.zeros(c.param_count))
        index = int("01" * (n // 2), 2)
        diag = np.real(to_dense(h)[index, index])
        assert value == pytest.approx(diag, abs=1e-10)


def test_fidelity_identical_parameters():
    c = hardware_efficient(3, 2)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-np.pi, np.pi, c.param_count)
    psi = apply_circuit(c, theta)
    # Exact: the inner product of two equal forward states, 1 to rounding.
    exact = displacement_fidelity_oracle(c, theta)(np.zeros((1, c.param_count)))
    assert exact[0] == min(1.0, abs(np.vdot(psi, psi)) ** 2)
    sampled = fidelity(c, psi, theta, shots=64, rng=rng)
    assert sampled == 1.0


def test_fidelity_orthogonal_states():
    c = single_qubit_ry()
    assert displacement_fidelity_oracle(c, [0.0])(np.array([[np.pi]]))[0] < 1e-12


def test_fidelity_closed_form():
    c = single_qubit_ry()
    got = displacement_fidelity_oracle(c, [0.0])(np.array([[0.1]]))[0]
    assert got == pytest.approx(np.cos(0.05) ** 2, abs=1e-12)
    assert got == pytest.approx(0.997502, abs=1e-6)


def test_fidelity_symmetry_and_bounds():
    rng = np.random.default_rng(41)
    c = hardware_efficient(2, 2)
    for _ in range(20):
        a = rng.uniform(-np.pi, np.pi, c.param_count)
        b = rng.uniform(-np.pi, np.pi, c.param_count)
        fab = displacement_fidelity_oracle(c, a)([b - a])[0]
        fba = displacement_fidelity_oracle(c, b)([a - b])[0]
        assert fab == pytest.approx(fba, abs=1e-10)
        assert 0.0 <= fab <= 1.0
        sampled = fidelity(c, apply_circuit(c, a), b, shots=32, rng=rng)
        assert 0.0 <= sampled <= 1.0


_OVERLAP_CIRCUITS = pytest.mark.parametrize(
    "circuit", [hardware_efficient(3, 2), schwinger_ansatz(4, 1)], ids=["hardware_efficient", "schwinger_so4"]
)


_BLOCK_CIRCUITS = pytest.mark.parametrize(
    "circuit",
    [hardware_efficient(3, 2), schwinger_ansatz(4, 1), hardware_efficient(7, 1), hardware_efficient(12, 1)],
    ids=["hardware_efficient", "schwinger_so4", "hardware_efficient_7q", "hardware_efficient_12q"],
)


@_BLOCK_CIRCUITS
def test_exact_fidelity_is_the_forward_inner_product(circuit):
    """The oracle's block passes give each row's per-row value bit for bit: at n = 7 a
    block holds 32 rows, so the 40 rows span two blocks, and at n = 12 each row is a block."""
    rng = np.random.default_rng(23)
    theta = rng.uniform(-np.pi, np.pi, circuit.param_count)
    rows = rng.uniform(-np.pi, np.pi, (40, circuit.param_count))
    rows[1, 0] = np.nan
    rows[32] = -0.0
    rows[39] = -theta
    psi = apply_circuit(circuit, theta)
    got = displacement_fidelity_oracle(circuit, theta)(rows)
    want = [min(abs(np.vdot(psi, apply_circuit(circuit, theta + row))) ** 2, 1.0) for row in rows]
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
    assert np.isnan(got[1])  # a NaN overlap is not clamped to 1, as min(1.0, nan) would do
    for value, row in zip(got, rows):
        if not np.isnan(row).any():
            # The compute-uncompute circuit gives the same overlap to rounding.
            round_trip = abs(apply_adjoint_circuit(circuit, theta + row, psi)[0]) ** 2
            assert abs(value - round_trip) < 1e-14


@_BLOCK_CIRCUITS
def test_sampled_fidelity_blocks_match_the_per_row_fidelity_loop(circuit):
    """The sampled oracle's compute-uncompute blocks give each row the value and the draws of
    its own `fidelity` query, in row order: at n = 7 the 40 rows span two 32-row blocks, and
    at n = 12 each row is a one-row block. The schwinger_so4 case takes S, Sdg, H, RZ and RX
    through the adjoint plan."""
    rng = np.random.default_rng(23)
    theta = rng.uniform(-np.pi, np.pi, circuit.param_count)
    rows = rng.uniform(-np.pi, np.pi, (40, circuit.param_count))
    rows[32] = -0.0
    rows[39] = -theta
    psi = apply_circuit(circuit, theta)
    gen, loop_gen = np.random.default_rng(37), np.random.default_rng(37)
    oracle = displacement_fidelity_oracle(circuit, theta, shots=256, rng=gen)
    got = oracle(rows)
    want = [fidelity(circuit, psi, theta + row, 256, loop_gen) for row in rows]
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
    assert got[32] == 1.0
    assert gen.random() == loop_gen.random()
    # A NaN row raises at its own draw, after every row before it drew (at n = 7, the whole
    # first block and the second block's first row), as the loop does.
    rows[33, 0] = np.nan
    with pytest.raises(ValueError, match="contains NaNs"):
        oracle(rows)
    with pytest.raises(ValueError, match="contains NaNs"):
        for row in rows:
            fidelity(circuit, psi, theta + row, 256, loop_gen)
    assert gen.random() == loop_gen.random()
    assert np.array_equal(psi, apply_circuit(circuit, theta))  # the blocks leave the reference as it was


@_OVERLAP_CIRCUITS
def test_sampled_fidelity_is_the_compute_uncompute_frequency(circuit):
    a, b = np.random.default_rng(29).uniform(-np.pi, np.pi, (2, circuit.param_count))
    gen_a, gen_b = np.random.default_rng(31), np.random.default_rng(31)
    psi = apply_circuit(circuit, a)
    got = fidelity(circuit, psi, b, shots=1024, rng=gen_a)
    # The reference state is shared across queries, so the query leaves it as it was.
    assert np.array_equal(psi, apply_circuit(circuit, a))
    state = apply_adjoint_circuit(circuit, b, apply_circuit(circuit, a))
    assert got == sampled_zero_probability(state, 1024, gen_b)
    assert gen_a.random() == gen_b.random()


def test_loss_zero_angles_tfim():
    for n, J, h in ((2, -1.0, -2.0), (4, 0.7, 1.3)):
        circuit = hardware_efficient(n, 1)
        ham = build_tfim(n, J, h)
        assert loss(circuit, ham, np.zeros(n)) == pytest.approx(J * (n - 1), abs=1e-10)


def test_loss_constant_hamiltonian():
    c = hardware_efficient(2, 1)
    ham = PauliSum.from_terms([PauliString(-1.5, "II")], 2)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi, 2)
    assert loss(c, ham, theta) == -1.5
    assert loss(c, ham, theta, shots=16, rng=rng) == -1.5


def test_loss_matches_expectation():
    c = hardware_efficient(3, 2)
    ham = build_tfim(3, -1.0, -2.0)
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, c.param_count)
    assert loss(c, ham, theta) == pytest.approx(
        expectation(apply_circuit(c, theta), ham), abs=1e-12
    )


def test_loss_and_oracle_refuse_rows_of_angles():
    # apply_circuit maps (B, d) rows to a block; a loss or an oracle's reference is one state.
    c = hardware_efficient(2, 1)
    h = build_tfim(2, -1.0, -2.0)
    for shots, rng in ((None, None), (16, np.random.default_rng(0))):
        with pytest.raises(ValueError, match=r"^expected 2 parameters, got shape \(2, 2\)$"):
            loss(c, h, np.zeros((2, 2)), shots=shots, rng=rng)
        with pytest.raises(ValueError, match=r"^expected 2 parameters, got shape \(2, 2\)$"):
            displacement_fidelity_oracle(c, np.zeros((2, 2)), shots=shots, rng=rng)


def test_sampled_queries_need_a_random_generator():
    c = single_qubit_ry()
    h = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    with pytest.raises(ValueError, match="^sampled fidelity needs a random generator$"):
        fidelity(c, apply_circuit(c, [0.0]), [0.1], shots=16)
    with pytest.raises(ValueError, match="^sampled fidelity needs a random generator$"):
        displacement_fidelity_oracle(c, [0.0], shots=16)  # refused when built, before any pass
    with pytest.raises(ValueError, match="^sampled loss needs a random generator$"):
        loss(c, h, [0.1], shots=16)


def test_build_ansatz_dispatch():
    assert build_ansatz(AnsatzKind("ry1", 1, 1)).param_count == 1
    assert build_ansatz(AnsatzKind("hardware_efficient", 4, 2)).param_count == 8
    assert build_ansatz(AnsatzKind("schwinger_so4", 4, 1, "odd_first")).param_count == 18
    with pytest.raises(ValueError, match="^unknown ansatz kind 'ring'$"):
        AnsatzKind("ring", 2, 1)
    with pytest.raises(ValueError):
        AnsatzKind("schwinger_so4", 5, 1)
    with pytest.raises(ValueError):
        AnsatzKind("hardware_efficient", 4, 1, "ring")
    for qubits, layers in ((0, 1), (2, 1), (1, 2)):
        with pytest.raises(ValueError, match="ry1 takes qubits = 1 and layers = 1"):
            AnsatzKind("ry1", qubits, layers)
