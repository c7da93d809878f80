import itertools
import re
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
    to_dense,
)

from dense_reference import pauli_string_matrix


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


@pytest.mark.parametrize("build", [PauliSum, PauliSum.from_terms], ids=["constructor", "from_terms"])
def test_sum_checks_its_size_and_term_lengths(build):
    # The constructor used to check nothing: a ZZ term in a 3-site sum was then
    # read on sites 1 and 2, so <100|ZZ|100> came out +1 where ZZI gives -1.
    with pytest.raises(ValueError, match="^qubit_count must be >= 1, got 0$"):
        build((), 0)
    with pytest.raises(ValueError, match="^key 'qubit_count' expects int, got 2.0$"):
        build((PauliString(1.0, "ZZ"),), 2.0)
    with pytest.raises(ValueError, match="^term 'ZZ' has 2 sites, expected 3$"):
        build((PauliString(1.0, "ZZ"),), 3)
    assert build((PauliString(1.0, "ZZI"),), 3).qubit_count == 3


def test_from_terms_checks_a_term_it_would_prune():
    with pytest.raises(ValueError, match="^term 'ZZ' has 2 sites, expected 3$"):
        PauliSum.from_terms([PauliString(1e-13, "ZZ")], 3)


def test_sum_rejects_a_repeated_axes_string_that_from_terms_merges():
    # invariant reads one coefficient per axes string: this sum, with ZII twice, was
    # taken for reversal-symmetric, and its ground energy came out -3.35577250663599.
    terms = [PauliString(-1.0, a) for a in ("XII", "IIX", "IXI")]
    terms += [PauliString(0.5, a) for a in ("ZII", "IIZ", "ZII")]
    with pytest.raises(ValueError, match="^term 'ZII' is repeated; PauliSum.from_terms merges repeats$"):
        PauliSum(tuple(terms), 3)
    h = PauliSum.from_terms(terms, 3)
    assert terms_dict(h) == {"IIX": -1.0, "IIZ": 0.5, "IXI": -1.0, "XII": -1.0, "ZII": 1.0}
    assert not h.invariant(True, False)
    assert exact_ground_energy(h) == pytest.approx(-3.53224755112299, abs=1e-12)
    assert exact_ground_energy(h) == _reference_ground_energy(h)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: build_tfim(3.0, -1, -2), "key 'n' expects int, got 3.0"),
        (lambda: build_tfim(True, -1, -2), "key 'n' expects int, got True"),
        (lambda: build_schwinger(4.0, 1, 0.5, 0), "key 'n' expects int, got 4.0"),
    ],
    ids=["tfim-float", "tfim-bool", "schwinger-float"],
)
def test_model_sizes_must_be_ints(build, expected):
    # A float size used to fail inside range or string repetition with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{expected}$"):
        build()


def test_model_sizes_take_numpy_ints():
    assert build_tfim(np.int64(3), -1, -2) == build_tfim(3, -1, -2)
    assert build_schwinger(np.int64(4), 1, 0.5, 0) == build_schwinger(4, 1, 0.5, 0)


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


def _complex_sum():
    # Odd numbers of Y's give imaginary weights.
    return PauliSum.from_terms([PauliString(1.0, "YZI"), PauliString(0.5, "XXY"), PauliString(-0.3, "ZIZ")], 3)


@pytest.mark.parametrize(
    "h, dtype",
    [
        (build_tfim(4, -1.0, -2.0), np.float64),
        (build_schwinger(4, 1.0, 0.5, 0.25), np.float64),
        (_complex_sum(), np.complex128),
    ],
    ids=["tfim", "schwinger", "complex"],
)
def test_to_dense_rows_are_the_top_of_the_matrix(h, dtype):
    whole = to_dense(h)
    assert whole.dtype == dtype
    for rows in (1, len(whole) // 2, len(whole)):
        top = to_dense(h, rows=np.arange(rows))
        assert top.dtype == dtype and np.array_equal(top, whole[:rows])


@pytest.mark.parametrize("h", [build_tfim(4, -1.0, -2.0), _complex_sum()], ids=["real", "complex"])
def test_to_dense_block_is_those_rows_of_the_matrix(h):
    whole = to_dense(h)
    size = len(whole)
    picks = [[0], [size - 1], [5, 2, 7, 2], [3, 3, 3], list(range(size - 1, -1, -1)), list(range(size))]
    for rows in picks + [np.array([6, 1], dtype=np.int32), np.array([size - 1, 0], dtype=np.uint8)]:
        block = to_dense(h, rows=rows)
        assert block.dtype == whole.dtype and np.array_equal(block, whole[rows])


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, 1], [2, 3]], "rows must be a nonempty 1-D integer array, got int64 of shape (2, 2)"),
        (4, "rows must be a nonempty 1-D integer array, got int64 of shape ()"),
        (np.arange(4.0), "rows must be a nonempty 1-D integer array, got float64 of shape (4,)"),
        ([True, False], "rows must be a nonempty 1-D integer array, got bool of shape (2,)"),
        (np.arange(0), "rows must be a nonempty 1-D integer array, got int64 of shape (0,)"),
        (np.arange(9), "rows must be in [0, 8), got 8"),
        ([0, -1], "rows must be in [0, 8), got -1"),
    ],
    ids=["2-D", "row-count", "float", "bool", "empty", "past-the-end", "negative"],
)
def test_to_dense_refuses_rows_outside_the_matrix(rows, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        to_dense(_complex_sum(), rows=rows)
    assert to_dense(_complex_sum(), rows=np.arange(4, 8)).shape == (4, 8)


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


def test_ground_energy_constant_operator():
    h = PauliSum.from_terms([PauliString(2.5, "II")], 2)
    assert exact_ground_energy(h) == pytest.approx(2.5, abs=1e-12)


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
@pytest.mark.parametrize("n", range(2, 13))
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


def _reversal(n):
    """The basis permutation of the site reversal: b with its n bits reversed."""
    return np.array([int(format(b, f"0{n}b")[::-1], 2) for b in range(2**n)])


def _reversal_random_sum(rng, n, reverse, flip=False):
    """Six random strings, each with an even number of Y and Z factors if flip, and
    each with its reversed string carrying its coefficient times reverse per Y or Z
    factor: a sum the reversal R (reverse = 1) or FR (reverse = -1) leaves unchanged.
    The coefficients are quarters, so entries the symmetry maps onto each other are
    sums of the same values in another order, and equal exactly."""
    terms = []
    while len(terms) < 12:
        axes = "".join(rng.choice(list("IXYZ"), n))
        parity = (axes.count("Y") + axes.count("Z")) % 2
        if not (flip and parity):
            c = float(rng.integers(1, 9)) / 4
            terms += [PauliString(c, axes), PauliString(c * reverse**parity, axes[::-1])]
    return PauliSum.from_terms(terms, n)


def _symmetry_flags(sums):
    """invariant(reverse, flip) for F, R and FR on each sum, checked against the matrix
    under that basis permutation."""
    flags = {(False, True): [], (True, False): [], (True, True): []}  # F, R, FR
    for h in sums:
        m, r = to_dense(h), _reversal(h.qubit_count)
        for (reverse, flip), held in flags.items():
            g = (r if reverse else np.arange(len(m)))[:: -1 if flip else 1]
            held.append(h.invariant(reverse, flip))
            assert held[-1] == np.array_equal(m[g][:, g], m), ([t.axes for t in h.terms], reverse, flip)
    return flags


def test_spin_flip_rule_agrees_with_the_matrix():
    rng = np.random.default_rng(17)
    sums = [build_tfim(n, -1.0, -2.0) for n in (2, 3, 6)]
    sums += [build_schwinger(n, 1.0, 0.5, 0.25) for n in (2, 4, 6)]
    sums += [build_schwinger(4, 1.0, 0.0, 0.0)]  # no single-Z terms: F holds
    sums += [_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    sums += [_symmetric_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    sums += [_complex_centrosymmetric_sum()]  # complex, and F holds
    flags = _symmetry_flags(sums)[False, True]
    assert any(flags) and not all(flags)


def test_reversal_rule_agrees_with_the_matrix():
    rng = np.random.default_rng(23)
    sums = [build_tfim(n, -1.0, -2.0) for n in (2, 3, 6)]
    sums += [build_schwinger(n, 1.0, 0.5, 0.25) for n in (4, 6)]
    sums += [_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    sums += [_reversal_random_sum(rng, int(rng.integers(2, 6)), reverse) for reverse in (1, -1) for _ in range(10)]
    sums += [PauliSum.from_terms([PauliString(0.5, "Z"), PauliString(0.3, "Y")], 1)]
    flags = _symmetry_flags(sums)
    for reverse_flags in (flags[True, False], flags[True, True]):  # R, FR
        assert any(reverse_flags) and not all(reverse_flags)
    assert all(h.symmetric_sector is not None for h in sums[:3])  # the TFIM keeps F and R
    for h in sums[3:5]:  # Schwinger: none of F, R or FR holds, so it is solved whole
        assert not any(h.invariant(reverse, flip) for reverse, flip in flags)
        assert h.symmetric_sector is None
    # At n = 1 the reversal is the identity: it holds, and the sum is solved whole.
    assert sums[-1].invariant(True, False) and sums[-1].symmetric_sector is None


def _stoquastic_random_sum(rng, n, reverse=0, flip=False):
    """Six random strings, each X-only with a negative coefficient or Z-only of either
    sign (an even number of Z's if flip), so each off-diagonal entry of the matrix is one
    X string's coefficient, below zero. With reverse = 1 or -1 each string comes with its
    reversal, as in _reversal_random_sum: a stoquastic sum R or FR leaves unchanged."""
    terms = []
    while len(terms) < 6 * (1 + abs(reverse)):
        axes = "".join(rng.choice(list(rng.choice(["IX", "IZ"])), n))
        zs = axes.count("Z")
        if not (flip and zs % 2):
            c = float(rng.integers(1, 9)) / 4 * (-1.0 if "X" in axes else float(rng.choice([-1, 1])))
            terms += [PauliString(c, axes)] + [PauliString(c * reverse**zs, axes[::-1])] * abs(reverse)
    return PauliSum.from_terms(terms, n)


def test_stoquastic_rule_agrees_with_the_matrix():
    one_qubit = [[(-0.3, "X"), (0.5, "Z")], [(0.3, "X")], [(0.5, "Z")], [(-0.3, "Y")]]
    # Terms that share a flip mask: -XX - YY has entries 0 and -2, -YY a +1; -XI + c XZ has
    # -1 +- c; and -0.3 + 0.1 + 0.2, zero in exact arithmetic, rounds to +2.8e-17 in term order.
    shared = [[(-1.0, "XX"), (-1.0, "YY")], [(-1.0, "YY")]]
    shared += [[(-1.0, "XI"), (c, "XZ")] for c in (-1.5, -1.0, 0.5, 1.5)]
    shared += [[(-0.3, "XII"), (0.1, "XIZ"), (0.2, "XZI")]]
    sums = [build_tfim(n, -1.0, h) for n in (2, 3, 6) for h in (-2.0, 0.0, 2.0)]
    sums += [build_schwinger(n, 1.0, 0.5, 0.25) for n in (2, 4)]  # hopping entries +x
    sums += [_complex_sum(), _complex_centrosymmetric_sum()]
    for terms in one_qubit + shared:
        sums.append(PauliSum.from_terms([PauliString(c, a) for c, a in terms], len(terms[0][1])))
    expected = [0, 0, 1] * 3 + [None] * 4  # TFIM h = -2, 0, +2; Schwinger; complex
    expected += [0, 1, 0, None] + [0, None, None, 0, 0, None, None]
    rng = np.random.default_rng(31)
    sums += [_random_sum(rng, int(rng.integers(1, 6))) for _ in range(20)]
    sums += [_stoquastic_random_sum(rng, int(rng.integers(1, 6)), reverse) for reverse in (0, 1, -1) for _ in range(5)]
    sums += [_z_conjugate(h) for h in sums[-15:]]
    gauges, z_flags = [], []
    for h in sums:
        m = to_dense(h)
        off_diagonal = m[~np.eye(len(m), dtype=bool)]
        stoquastic = not m.imag.any() and (off_diagonal.real <= 0).all()
        z = _z_signs(len(m))
        z_flags.append(_is_stoquastic(z[:, None] * m * z))
        gauges.append(h.gauge)
        assert h.gauge == (0 if stoquastic else 1 if z_flags[-1] else None), [t.axes for t in h.terms]
        assert (_z_conjugate(h).gauge == 0) == z_flags[-1], [t.axes for t in h.terms]
    assert gauges[: len(expected)] == expected
    assert z_flags[:9] == [False, True, True] * 3  # TFIM h = -2, 0, +2
    assert {0, 1, None} <= set(gauges[len(expected) :])
    assert any(z_flags[len(expected) :]) and not all(z_flags[len(expected) :])


def _z_conjugate(h):
    """The sum conjugated by Z on every site: each term with an odd number of X and Y factors negated."""
    return PauliSum(tuple(PauliString(-t.coefficient if (t.axes.count("X") + t.axes.count("Y")) % 2 else t.coefficient,
                                      t.axes) for t in h.terms), h.qubit_count)


def _z_signs(size):
    """The diagonal of Z on every site: -1 at the basis states with an odd number of bits set."""
    return 1 - 2 * (np.array([bin(b).count("1") for b in range(size)]) % 2)


def _is_stoquastic(m):
    return not m.imag.any() and (m[~np.eye(len(m), dtype=bool)].real <= 0).all()


def _symmetric_block_ground_energy(m, n):
    """The lowest eigenvalue of the chi = 1 block formed from the whole matrix m if F and R
    leave m unchanged at n >= 2, else None. The block is sum_g m[a, g.b] / sqrt(|Stab a|
    |Stab b|) over the orbit minima a and b, the terms added in the order 1, F, R, FR."""
    j, reverse = np.arange(len(m)), _reversal(n)
    group = [j, j[::-1], reverse, reverse[::-1]]
    if n < 2 or not all(np.allclose(m[g][:, g], m, rtol=0, atol=1e-12) for g in group[1:3]):
        return None
    states = np.flatnonzero(np.min(group, axis=0) == j)
    stabilizers = (np.array(group) == j).sum(axis=0)[states]
    block = m[np.ix_(states, group[0][states])]
    for g in group[1:]:
        block = block + m[np.ix_(states, g[states])]
    return float(np.linalg.eigvalsh(block / np.sqrt(np.outer(stabilizers, stabilizers)))[0])


def _reference_ground_energy(h):
    """exact_ground_energy from the whole matrix m: the chi = 1 block of m, or else of m
    conjugated by Z on every site, if that one is stoquastic and has the block; otherwise
    all of m."""
    m, z = to_dense(h), _z_signs(2**h.qubit_count)  # + 0.0 below: to_dense's zeros are never -0.0
    stoquastic = [c for c in (m, z[:, None] * m * z + 0.0) if _is_stoquastic(c)]
    block = _symmetric_block_ground_energy(stoquastic[0], h.qubit_count) if stoquastic else None
    return float(np.linalg.eigvalsh(m)[0]) if block is None else block


# (invariant under F, under R, under FR) per symmetry class, how to draw its sums, and the
# (reverse, flip) that draw stoquastic ones. Only the class that keeps both F and R has a
# symmetric_sector, so a stoquastic sum of it is solved in the sector chi = 1 only; the
# classes that keep one of F, R and FR at most are solved whole.
@pytest.mark.parametrize(
    "group, draw, stoquastic",
    [
        ((False, False, False), _random_sum, (0, False)),
        ((True, False, False), _symmetric_random_sum, (0, True)),
        ((False, True, False), lambda rng, n: _reversal_random_sum(rng, n, 1), (1, False)),
        ((False, False, True), lambda rng, n: _reversal_random_sum(rng, n, -1), (-1, False)),
        ((True, True, True), lambda rng, n: _reversal_random_sum(rng, n, 1, flip=True), (1, True)),
    ],
    ids=["{1}", "{1,F}", "{1,R}", "{1,FR}", "{1,F,R,FR}"],
)
def test_split_ground_energy_matches_full_solve(group, draw, stoquastic):
    rng = np.random.default_rng(29)
    sums = [draw(rng, int(rng.integers(2, 7))) for _ in range(500)]
    stoquastic_sums = [_stoquastic_random_sum(rng, int(rng.integers(2, 7)), *stoquastic) for _ in range(100)]
    sums += stoquastic_sums + [_z_conjugate(h) for h in stoquastic_sums]
    # Not stoquastic (h > 0), but its Z conjugate is: at odd n the ground state is odd under F.
    sums += [build_tfim(n, -1.0, 2.0) for n in (3, 5, 7)]
    blocked = all(group)
    checked = {np.float64: 0, np.complex128: 0, "stoquastic": 0, "gauged": 0}
    outside = 0  # sums of gauge None whose ground state is outside the sector chi = 1
    for h in sums:
        if tuple(h.invariant(reverse, flip) for reverse, flip in ((False, True), (True, False), (True, True))) == group:
            assert (h.symmetric_sector is not None) == blocked, [t.axes for t in h.terms]
            m = to_dense(h)
            full = float(np.linalg.eigvalsh(m)[0])
            checked[m.dtype.type] += 1
            checked["stoquastic"] += h.gauge == 0
            checked["gauged"] += h.gauge == 1
            if blocked and h.gauge is None:
                outside += _symmetric_block_ground_energy(m, h.qubit_count) > full + 1e-9
            assert exact_ground_energy(h) == (_reference_ground_energy(h) if blocked else full), [t.axes for t in h.terms]
            assert exact_ground_energy(h) == pytest.approx(full, abs=1e-12)
    assert min(checked.values()) >= 5, checked
    # A shortcut that solved the sector chi = 1 of any sum with the group would miss these.
    assert (outside > 0) == blocked, outside


def _complex_centrosymmetric_sum():
    # Each term has an even Y + Z count but an odd number of Y's: complex and symmetric.
    return PauliSum.from_terms(
        [PauliString(1.0, "YZ"), PauliString(0.5, "ZY"), PauliString(0.3, "XX"), PauliString(-0.7, "XI")], 2
    )


def _inexact_stoquastic_sum(rng, n):
    """X^n and random X-only strings with negative coefficients and Z-only strings with an
    even number of Z's, each with its reversal: a stoquastic sum F and R leave unchanged,
    whose block entries add inexact values, so their order [1, F, R, FR] shows in the bits."""
    terms = [PauliString(-abs(rng.normal()), "X" * n)]
    while len(terms) < 17:
        axes = "".join(rng.choice(list(rng.choice(["IX", "IZ"])), n))
        if axes.count("Z") % 2 == 0:
            c = -abs(rng.normal()) if "X" in axes else rng.normal()
            terms += [PauliString(c, axes), PauliString(c, axes[::-1])]
    return PauliSum.from_terms(terms, n)


def test_ground_energy_is_the_block_of_the_whole_matrix():
    # Solving the rows built in chunks gives the same block as the one formed from the
    # whole matrix, so the same bits. At h > 0 the TFIM is solved through its Z conjugate.
    # The other sums keep F but not R, or have one qubit, so they are solved whole.
    rng = np.random.default_rng(19)
    fields = ((-1.0, -2.0), (-1.0, 2.0), (0.7, 0.3), (-1.0, 0.0))
    blocked = [build_tfim(n, J, h) for n in range(2, 12) for J, h in fields]
    blocked += [_inexact_stoquastic_sum(rng, n) for n in range(3, 9) for _ in range(3)]
    others = [_symmetric_random_sum(rng, int(rng.integers(1, 7))) for _ in range(20)]
    others += [PauliSum.from_terms([PauliString(0.3, "X"), PauliString(0.5, "I")], 1)]
    others += [_complex_centrosymmetric_sum(), _complex_sum()]
    for h in blocked + others:
        assert exact_ground_energy(h) == _reference_ground_energy(h), [t.axes for t in h.terms]
    assert all(h.symmetric_sector is not None for h in blocked)
    assert all(h.symmetric_sector is None for h in others)
    # Some block entry adds three or more nonzero entries of the matrix.
    columns, states, _ = blocked[-1].symmetric_sector
    assert ((to_dense(blocked[-1])[states][:, columns] != 0).sum(axis=1) >= 3).any()


@pytest.mark.parametrize("J, h", [(-1.0, 2.0), (0.7, 0.3)])
@pytest.mark.parametrize("n", range(2, 14))
def test_tfim_ground_energy_is_even_in_the_field(n, J, h, monkeypatch):
    # Z on every site maps the field h to -h, and the solve takes the same block. At h > 0
    # the gauge is a sign on the rows built: the solve builds no second sum.
    positive, negative = build_tfim(n, J, h), build_tfim(n, J, -h)
    built = []
    monkeypatch.setattr(PauliSum, "__post_init__", lambda s, init=PauliSum.__post_init__: built.append(s) or init(s))
    assert exact_ground_energy(positive) == exact_ground_energy(negative)
    assert built == []


def test_tfim_ground_energy_holds_a_ninth_of_the_matrix():
    # The TFIM is stoquastic at h <= 0, and its Z conjugate is at h > 0, so only the
    # sector chi = 1 is built: its block (8.5 MiB, 1/16 of the matrix), plus one chunk of
    # its rows, about 2 MiB with the block's columns summed from it, signed in place at h > 0
    # (about 0.083x at n = 12 at either sign). Pruning the bonds (J = 0) or the field (h = 0)
    # leaves both F and R, so those take the block too; a whole solve would read about 1x.
    # LAPACK's working copy is outside numpy's traced memory.
    for J, field in ((-1.0, -2.0), (-1.0, 2.0), (0.0, -2.0), (0.0, 2.0), (-1.0, 0.0)):
        h = build_tfim(12, J, field)
        matrix_bytes = to_dense(h, rows=[0]).itemsize * 4**h.qubit_count
        tracemalloc.start()
        try:
            exact_ground_energy(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.11 * matrix_bytes, (J, field)


def test_ground_energy_of_one_qubit():
    # F holds, and R is the identity at n = 1: no group of four, so the sum is solved whole.
    h = PauliSum.from_terms([PauliString(0.3, "X"), PauliString(0.5, "I")], 1)
    assert h.invariant(False, True) and h.symmetric_sector is None
    assert exact_ground_energy(h) == float(np.linalg.eigvalsh(to_dense(h))[0])
    assert exact_ground_energy(h) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("n", [4, 6])
def test_schwinger_ground_energy_is_the_full_solve(n):
    # Single-Z terms break the spin-flip symmetry, so the whole matrix is diagonalized.
    h = build_schwinger(n, 1.0, 0.5, 0.0)
    assert not h.invariant(False, True)
    assert exact_ground_energy(h) == float(np.linalg.eigvalsh(to_dense(h))[0])
