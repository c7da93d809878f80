import itertools
import tracemalloc

import numpy as np
import pytest

from vqebench.pauli import (
    MAX_DENSE_QUBITS,
    PauliString,
    PauliSum,
    build_schwinger,
    build_tfim,
    exact_ground_energy,
    pauli_string_matrix,
    to_dense,
)

# Dense diagonalization fixture for the n=4 Schwinger benchmark point.
SCHWINGER_4_GROUND = 0.20639550666515885


def terms_dict(h):
    return {t.axes: t.coefficient for t in h.terms}


def test_tfim_n2_benchmark_terms():
    h = build_tfim(2, -1, -2)
    assert terms_dict(h) == {"ZZ": -1.0, "XI": -2.0, "IX": -2.0}


def test_tfim_zero_couplings_pruned():
    assert build_tfim(2, 0.0, 0.0).terms == ()


def test_tfim_term_count():
    h = build_tfim(3, 1.0, 1.0)
    assert len(h.terms) == 5
    zz = [t for t in h.terms if t.axes.count("Z") == 2]
    x = [t for t in h.terms if "X" in t.axes]
    assert len(zz) == 2 and len(x) == 3


def test_sum_needs_a_qubit():
    with pytest.raises(ValueError, match="^qubit_count must be >= 1, got 0$"):
        PauliSum.from_terms([], 0)


@pytest.mark.parametrize("qubits", [2.0, True])
def test_sum_size_must_be_an_int(qubits):
    # A float size used to be accepted, and expectation then failed inside numpy.
    terms = [PauliString(1.0, "ZZ")]
    with pytest.raises(ValueError, match=f"^key 'qubit_count' expects int, got {qubits}$"):
        PauliSum.from_terms(terms, qubits)
    assert PauliSum.from_terms(terms, np.int64(2)).qubit_count == 2


def test_tfim_rejects_single_site():
    with pytest.raises(ValueError):
        build_tfim(1, -1.0, -2.0)


def test_schwinger_n2_expansion():
    h = build_schwinger(2, 1.0, 0.5, 0.0)
    expected = {"XX": 0.5, "YY": 0.5, "ZI": 0.25, "IZ": -0.25, "II": 0.75}
    got = terms_dict(h)
    assert set(got) == set(expected)
    for axes, coeff in expected.items():
        assert got[axes] == pytest.approx(coeff, abs=1e-12)


def test_schwinger_gauge_only():
    h = build_schwinger(2, 0.0, 0.0, 0.0)
    assert terms_dict(h) == {"II": 0.25}


def test_schwinger_n4_zz_couplings():
    got = terms_dict(build_schwinger(4, 1.0, 0.5, 0.0))
    assert got["ZZII"] == pytest.approx(-1.0)  # bonds j=1 and j=2 both contribute
    assert got["ZIZI"] == pytest.approx(0.5)
    assert got["IZZI"] == pytest.approx(-0.5)


def test_schwinger_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        build_schwinger(3, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        build_schwinger(1, 1.0, 0.5, 0.0)


def unexpanded_schwinger_dense(n, x, mu, l):
    """Oracle: dense operator built directly from the unexpanded form."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        h += (x / 2) * pauli_string_matrix("I" * k + "XX" + "I" * (n - k - 2))
        h += (x / 2) * pauli_string_matrix("I" * k + "YY" + "I" * (n - k - 2))
    for k in range(n):
        zk = pauli_string_matrix("I" * k + "Z" + "I" * (n - k - 1))
        h += (mu / 2) * (np.eye(dim) + (-1) ** k * zk)
    for j in range(n - 1):
        field = l * np.eye(dim, dtype=complex)
        for k in range(j + 1):
            field += 0.5 * (-1) ** k * pauli_string_matrix("I" * k + "Z" + "I" * (n - k - 1))
        h += field @ field
    return h


@pytest.mark.parametrize("n", [2, 4, 6])
def test_schwinger_expansion_matches_unexpanded_operator(n):
    expanded = to_dense(build_schwinger(n, 1.0, 0.5, 0.25))
    direct = unexpanded_schwinger_dense(n, 1.0, 0.5, 0.25)
    assert np.max(np.abs(expanded - direct)) < 1e-10


def test_to_dense_single_z():
    h = PauliSum.from_terms([PauliString(1.0, "Z")], 1)
    assert np.allclose(to_dense(h), np.diag([1.0, -1.0]))


def test_site_zero_is_most_significant_bit():
    # Fixed index convention: site 0 is the leftmost tensor factor.
    zi = PauliSum.from_terms([PauliString(1.0, "ZI")], 2)
    assert np.allclose(to_dense(zi), np.diag([1.0, 1.0, -1.0, -1.0]))
    iz = PauliSum.from_terms([PauliString(1.0, "IZ")], 2)
    assert np.allclose(to_dense(iz), np.diag([1.0, -1.0, 1.0, -1.0]))


def test_to_dense_xx_antidiagonal():
    h = PauliSum.from_terms([PauliString(1.0, "XX")], 2)
    assert np.allclose(to_dense(h), np.fliplr(np.eye(4)))


def test_to_dense_tfim_structure():
    m = np.real(to_dense(build_tfim(2, -1, -2)))
    assert np.allclose(np.diag(m), [-1, 1, 1, -1])
    # -2 on every single-bit-flip pair, 0 on the double flip
    assert m[0, 1] == m[0, 2] == m[1, 3] == m[2, 3] == -2
    assert m[0, 3] == m[1, 2] == 0


def test_to_dense_rejects_large_systems():
    h = PauliSum.from_terms([PauliString(1.0, "Z" * 15)], 15)
    with pytest.raises(ValueError):
        to_dense(h)


def test_dense_guard_stops_14_qubits_before_allocating():
    # 16 * 4**14 B = 4.3 GB, and eigvalsh holds about twice that: more than an 8 GB machine.
    assert MAX_DENSE_QUBITS == 13
    h = PauliSum.from_terms([PauliString(1.0, "X" * 14)], 14)
    tracemalloc.start()
    try:
        for dense_op in (to_dense, exact_ground_energy):
            with pytest.raises(ValueError, match="n=14 qubits exceeds the n<=13 guard"):
                dense_op(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dense_hermitian_on_random_sums():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        terms = [
            PauliString(float(rng.normal()), "".join(rng.choice(list("IXYZ"), n)))
            for _ in range(6)
        ]
        h = PauliSum.from_terms(terms, n)
        m = to_dense(h)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        # The per-term scatter adds the same values in the same order as the
        # Kronecker-product reference, so the matrices agree exactly.
        reference = np.zeros(m.shape, dtype=complex)
        for t in h.terms:
            reference += t.coefficient * pauli_string_matrix(t.axes)
        assert np.array_equal(m, reference)


def test_string_encoding_matches_kron_reference():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        # Every string on n sites, one stacked row each in term order.
        h = PauliSum.from_terms([PauliString(1.0, "".join(a)) for a in itertools.product("IXYZ", repeat=n)], n)
        gather, signs = h.term_tables
        assert signs.dtype == np.int8
        for t, g, s in zip(h.terms, gather, signs, strict=True):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            v = np.concatenate((psi, -1j * psi, -psi, 1j * psi))
            assert np.array_equal(v[g], pauli_string_matrix(t.axes) @ psi)
            # Measured in its own eigenbasis the string reads as Z on its support.
            z_on_support = pauli_string_matrix(t.axes.translate(str.maketrans("XY", "ZZ")))
            assert np.array_equal(s, np.real(np.diag(z_on_support)))


def test_term_tables_need_only_numpy_1_24(monkeypatch):
    # np.bitwise_count is new in numpy 2.0; the tables must not need it.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    h = build_schwinger(6, 1.0, 0.5, 0.3)
    gather, signs = h.term_tables
    psi = np.random.default_rng(3).normal(size=64) + 0j
    for t, row in zip(h.terms, h.apply_terms(psi), strict=True):
        assert np.array_equal(row, pauli_string_matrix(t.axes) @ psi)
    groups, rows = h.measurement_tables
    z_rows = {r for t, r in zip(h.terms, rows) if not set(t.axes) & set("XY")}
    assert z_rows == {0} and groups[0] == ()  # Z-only terms and the constant share the unrotated state


def test_merging_invariance():
    rng = np.random.default_rng(11)
    terms = [
        PauliString(0.7, "XZI"),
        PauliString(-0.2, "IIZ"),
        PauliString(0.3, "XZI"),
        PauliString(1.1, "YYY"),
    ]
    base = PauliSum.from_terms(terms, 3)
    for _ in range(5):
        perm = [terms[i] for i in rng.permutation(len(terms))]
        dup = perm + [PauliString(0.0, "XZI")]
        other = PauliSum.from_terms(dup, 3)
        assert other == base
        assert np.allclose(to_dense(other), to_dense(base))


def test_ground_energy_tfim_closed_form():
    assert exact_ground_energy(build_tfim(2, -1, -2)) == pytest.approx(
        -np.sqrt(17.0), abs=1e-10
    )


def test_ground_energy_constant_operator():
    h = PauliSum.from_terms([PauliString(2.5, "II")], 2)
    assert exact_ground_energy(h) == pytest.approx(2.5, abs=1e-12)


def test_ground_energy_schwinger_fixture():
    h = build_schwinger(4, 1.0, 0.5, 0.0)
    assert exact_ground_energy(h) == pytest.approx(SCHWINGER_4_GROUND, abs=1e-10)


def test_tfim_ground_energy_monotone_in_field():
    energies = [exact_ground_energy(build_tfim(4, -1.0, -h)) for h in (0.0, 1.0, 2.0, 3.0)]
    assert all(e1 >= e2 for e1, e2 in zip(energies, energies[1:]))


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(float("nan"), "IZ")
    with pytest.raises(ValueError):
        PauliString(1.0, "IQ")
    with pytest.raises(ValueError):
        PauliSum.from_terms([PauliString(1.0, "IZ")], 3)


def test_dense_is_real_exactly_when_every_phase_is():
    # An even number of Y's gives a real phase; the data picks the dtype.
    assert to_dense(build_tfim(3, -1.0, -2.0)).dtype == np.float64
    assert to_dense(build_schwinger(4, 1.0, 0.5, 0.25)).dtype == np.float64
    assert to_dense(PauliSum.from_terms([PauliString(1.0, "YY"), PauliString(0.5, "XZ")], 2)).dtype == np.float64
    odd = PauliSum.from_terms([PauliString(1.0, "YZ"), PauliString(0.5, "XX")], 2)
    assert to_dense(odd).dtype == np.complex128


def _free_fermion_ground_energy(n, J, h):
    """Open-chain TFIM E0: minus the summed singular values of the n x n
    bidiagonal matrix with h on the diagonal and J just above it
    (Lieb, Schultz & Mattis 1961; Pfeuty 1970). Independent of the dense oracle."""
    bidiagonal = np.diag(np.full(n, float(h))) + np.diag(np.full(n - 1, float(J)), 1)
    return -float(np.linalg.svd(bidiagonal, compute_uv=False).sum())


# (-1, 0) has no field, so both spin-flip sectors hold the degenerate ground state.
@pytest.mark.parametrize("J, h", [(-1.0, -2.0), (0.7, 0.3), (-1.0, 0.0)])
@pytest.mark.parametrize("n", range(2, 12))
def test_tfim_ground_energy_matches_free_fermion_solution(n, J, h):
    assert exact_ground_energy(build_tfim(n, J, h)) == pytest.approx(_free_fermion_ground_energy(n, J, h), abs=1e-10)


def _random_sum(rng, n):
    terms = [PauliString(float(rng.normal()), "".join(rng.choice(list("IXYZ"), n))) for _ in range(6)]
    return PauliSum.from_terms(terms, n)


def _symmetric_random_sum(rng, n):
    """Random terms with an even number of Y and Z factors each."""
    terms = []
    while len(terms) < 6:
        axes = "".join(rng.choice(list("IXYZ"), n))
        if (axes.count("Y") + axes.count("Z")) % 2 == 0:
            terms.append(PauliString(float(rng.normal()), axes))
    return PauliSum.from_terms(terms, n)


def test_spin_flip_rule_agrees_with_the_matrix():
    rng = np.random.default_rng(17)
    sums = [build_tfim(n, -1.0, -2.0) for n in (2, 3, 6)]
    sums += [build_schwinger(n, 1.0, 0.5, 0.25) for n in (2, 4, 6)]
    sums += [build_schwinger(4, 1.0, 0.0, 0.0)]  # no single-Z terms: symmetric
    sums += [_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    sums += [_symmetric_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    flags = []
    for h in sums:
        m = to_dense(h)
        flags.append(h.spin_flip_symmetric)
        assert h.spin_flip_symmetric == np.array_equal(m, m[::-1, ::-1]), [t.axes for t in h.terms]
    assert any(flags) and not all(flags)


def test_folded_ground_energy_matches_full_solve():
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = _symmetric_random_sum(rng, int(rng.integers(1, 7)))
        full = float(np.linalg.eigvalsh(to_dense(h))[0])
        assert exact_ground_energy(h) == pytest.approx(full, abs=1e-12)


def test_folded_ground_energy_of_a_complex_centrosymmetric_sum():
    # Each term has an even Y + Z count but an odd number of Y's: complex and symmetric.
    h = PauliSum.from_terms(
        [PauliString(1.0, "YZ"), PauliString(0.5, "ZY"), PauliString(0.3, "XX"), PauliString(-0.7, "XI")], 2
    )
    m = to_dense(h)
    assert m.dtype == np.complex128 and h.spin_flip_symmetric
    assert exact_ground_energy(h) == pytest.approx(float(np.linalg.eigvalsh(m)[0]), abs=1e-12)


def test_the_fold_holds_about_one_matrix():
    # The sector blocks overwrite two quadrants of the matrix: no half-size copies.
    h = build_tfim(10, -1.0, -2.0)
    matrix_bytes = to_dense(h).nbytes
    tracemalloc.start()
    try:
        exact_ground_energy(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * matrix_bytes


def test_folded_ground_energy_of_one_qubit():
    # half = 1: each sector block is 1 x 1, b +- a.
    h = PauliSum.from_terms([PauliString(0.3, "X"), PauliString(0.5, "I")], 1)
    assert h.spin_flip_symmetric
    assert exact_ground_energy(h) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("n", [4, 6])
def test_schwinger_ground_energy_is_the_full_solve(n):
    # Single-Z terms break the spin-flip symmetry, so the whole matrix is diagonalized.
    h = build_schwinger(n, 1.0, 0.5, 0.0)
    assert not h.spin_flip_symmetric
    assert exact_ground_energy(h) == float(np.linalg.eigvalsh(to_dense(h))[0])
