"""Pauli-string algebra and benchmark Hamiltonians.

Builds the transverse-field Ising and lattice Schwinger Hamiltonians as
real-weighted sums of Pauli strings, and provides a dense exact-diagonalization
oracle for ground-truth energies at small system sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .values import check_value

# Site 0 is the leftmost tensor factor (most significant bit of the basis
# index). All tests assert this convention.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Coefficients below this magnitude are dropped after merging; symbolic
# expansion cancels exactly only up to rounding.
COEFF_PRUNE_THRESHOLD = 1e-12

# A complex dense matrix takes 16 * 4**n bytes (a real one half that).
# exact_ground_energy holds about 1x it for a spin-flip-symmetric sum and
# about 2x for any other (0.5 GB at n = 12, 2.1 GB at n = 13, 8.6 GB at n = 14
# for a complex one), so this is the largest size at which any sum fits an
# 8 GB machine.
MAX_DENSE_QUBITS = 13


@dataclass(frozen=True)
class PauliString:
    """One weighted Pauli string, e.g. -2.0 * X I Z."""

    coefficient: float
    axes: str  # one character per site, each in {I, X, Y, Z}

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError(f"non-finite coefficient {self.coefficient!r}")
        if not self.axes or any(a not in "IXYZ" for a in self.axes):
            raise ValueError(f"invalid axes string {self.axes!r}")

    @cached_property
    def is_identity(self) -> bool:
        return set(self.axes) == {"I"}


@dataclass(frozen=True)
class PauliSum:
    """Hermitian operator as a merged, pruned sum of Pauli strings.

    Canonical form: unique axes patterns sorted lexicographically, real
    coefficients, terms with |coefficient| <= 1e-12 removed.
    """

    terms: tuple[PauliString, ...]
    qubit_count: int

    @classmethod
    def from_terms(cls, terms, qubit_count: int) -> "PauliSum":
        check_value("qubit_count", "int", qubit_count)
        if qubit_count < 1:
            raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
        merged: dict[str, float] = {}
        for t in terms:
            if len(t.axes) != qubit_count:
                raise ValueError(
                    f"term {t.axes!r} has {len(t.axes)} sites, expected {qubit_count}"
                )
            merged[t.axes] = merged.get(t.axes, 0.0) + t.coefficient
        kept = tuple(
            PauliString(coefficient=c, axes=a)
            for a, c in sorted(merged.items())
            if abs(c) > COEFF_PRUNE_THRESHOLD
        )
        return cls(terms=kept, qubit_count=qubit_count)

    @property
    def spin_flip_symmetric(self) -> bool:
        """Whether the sum commutes with X on every site: each term has an even
        number of Y and Z factors, so its matrix equals its 180-degree rotation."""
        return all((t.axes.count("Y") + t.axes.count("Z")) % 2 == 0 for t in self.terms)

    @cached_property
    def term_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(gather, signs), one row per term in term order, compiled on first use and
        cached on the sum like a circuit's plan. Site 0 is the top bit of the basis
        index j. With v = [psi, -i psi, -psi, i psi], (P psi)[j] = v[gather[j]]: j ^ (the
        X and Y sites) in the copy scaled by (-i)^(number of Y's) times -1 per Y or Z
        site set in j. P's outcome j in its measurement basis has eigenvalue signs[j]."""
        j = np.arange(2**self.qubit_count)
        odd = np.zeros(j.size, dtype=np.int8)  # 1 where j has an odd number of bits set
        for b in range(self.qubit_count):
            odd[1 << b : 2 << b] = 1 - odd[: 1 << b]

        def masks(kinds):  # per term, the bits of j of the sites with axis in kinds
            bits = [int("".join("01"[a in kinds] for a in t.axes), 2) for t in self.terms]
            return np.array(bits, dtype=np.intp).reshape(-1, 1)

        y_counts = np.array([t.axes.count("Y") for t in self.terms], dtype=np.intp).reshape(-1, 1)
        gather = j ^ masks("XY")
        gather += (y_counts + 2 * odd.take(j & masks("YZ"))) % 4 * j.size  # which copy
        return gather, 1 - 2 * odd.take(j & masks("XYZ"))

    def apply_terms(self, amps: np.ndarray) -> np.ndarray:
        """Every term's unweighted string applied to amps, one row per term (a new array)."""
        return np.concatenate((amps, -1j * amps, -amps, 1j * amps)).take(self.term_tables[0])

    @cached_property
    def measurement_tables(self) -> tuple[tuple, np.ndarray]:
        """The rotations into the terms' measurement bases (H on X sites, H S^dagger on Y
        sites), one group of stacked rows per op sequence, and each term's row among the
        groups' rows in group order. An op is (None, phases) for S^dagger, or for H each
        row's flat flipped index (a first op reads the state itself) and int8 sign of x.
        Z-only and identity terms share the group with no ops: the state itself."""
        n, j = self.qubit_count, np.arange(2**self.qubit_count)
        keys = ["".join(a if a in "XY" else "I" for a in t.axes) for t in self.terms]
        groups: dict[str, list[str]] = {}
        for key in dict.fromkeys(keys):
            groups.setdefault(key.replace("I", ""), []).append(key)
        row = {key: r for r, key in enumerate(key for members in groups.values() for key in members)}
        tables = []
        for sequence, members in groups.items():
            sites = np.array([[s for s, a in enumerate(key) if a != "I"] for key in members])
            ops = []
            for m, axis in enumerate(sequence):
                shift = (n - 1 - sites[:, m])[:, None]
                bit = j >> shift & 1
                if axis == "Y":
                    ops.append((None, np.where(bit, -1j, 1 + 0j)))
                flip = (j ^ 1 << shift) + (j.size * np.arange(len(members))[:, None] if ops else 0)
                ops.append((flip, (1 - 2 * bit).astype(np.int8)))
            tables.append(tuple(ops))
        return tuple(tables), np.array([row[key] for key in keys], dtype=np.intp)


def _axes(qubit_count: int, *site_axes: tuple[int, str]) -> str:
    """Axes string with each (site, axis) pair set and I elsewhere."""
    axes = ["I"] * qubit_count
    for site, axis in site_axes:
        axes[site] = axis
    return "".join(axes)


def build_tfim(n: int, J: float, h: float) -> PauliSum:
    """Transverse-field Ising chain with open boundaries.

    H = J * sum_{i=0}^{n-2} Z_i Z_{i+1} + h * sum_{i=0}^{n-1} X_i
    """
    if n < 2:
        raise ValueError(f"TFIM needs at least 2 sites (no bond exists for n={n})")
    terms = []
    for i in range(n - 1):
        terms.append(PauliString(J, _axes(n, (i, "Z"), (i + 1, "Z"))))
    for i in range(n):
        terms.append(PauliString(h, _axes(n, (i, "X"))))
    return PauliSum.from_terms(terms, n)


def build_schwinger(n: int, x: float, mu: float, l: float) -> PauliSum:
    """Lattice Schwinger Hamiltonian in fully expanded Pauli form.

    H = (x/2) sum_{k=0}^{n-2} (X_k X_{k+1} + Y_k Y_{k+1})
      + (mu/2) sum_{k=0}^{n-1} [1 + (-1)^k Z_k]
      + sum_{j=0}^{n-2} (l + (1/2) sum_{k=0}^{j} (-1)^k Z_k)^2

    The squared electric-field term is expanded symbolically using Z^2 = I
    into identity, single-Z, and Z-Z contributions; identity terms are merged
    into a single constant so that absolute energies (not just gaps) are
    reproduced.
    """
    if n < 2:
        raise ValueError(f"Schwinger model needs at least 2 sites, got n={n}")
    if n % 2 != 0:
        # Staggered fermions pair sites.
        raise ValueError(f"schwinger problem needs even qubit counts, got {n}")
    terms = []
    ident = "I" * n
    for k in range(n - 1):
        terms.append(PauliString(x / 2.0, _axes(n, (k, "X"), (k + 1, "X"))))
        terms.append(PauliString(x / 2.0, _axes(n, (k, "Y"), (k + 1, "Y"))))
    for k in range(n):
        terms.append(PauliString(mu / 2.0, ident))
        terms.append(PauliString((mu / 2.0) * (-1) ** k, _axes(n, (k, "Z"))))
    for j in range(n - 1):
        # (l + (1/2) sum_{k<=j} s_k Z_k)^2 with s_k = (-1)^k:
        #   l^2 + (j+1)/4 constant, l*s_k Z_k linear, (1/2) s_k s_m Z_k Z_m cross.
        terms.append(PauliString(l * l + (j + 1) / 4.0, ident))
        for k in range(j + 1):
            terms.append(PauliString(l * (-1) ** k, _axes(n, (k, "Z"))))
        for k in range(j + 1):
            for m in range(k + 1, j + 1):
                sign = (-1) ** k * (-1) ** m
                terms.append(PauliString(0.5 * sign, _axes(n, (k, "Z"), (m, "Z"))))
    return PauliSum.from_terms(terms, n)


def pauli_string_matrix(axes: str) -> np.ndarray:
    """Dense matrix of one unweighted Pauli string; a test reference only."""
    m = PAULI_MATRICES[axes[0]]
    for a in axes[1:]:
        m = np.kron(m, PAULI_MATRICES[a])
    return m


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of a PauliSum, for n up to MAX_DENSE_QUBITS
    (checked before anything is allocated). Each term adds its coefficient times
    copy gather[j] // 2**n's unit (see term_tables) to m[j, gather[j] % 2**n]. The
    matrix is float64 (8 * 4**n bytes) when every term has an even number of Y's,
    so a real weight, and complex128 (16 * 4**n bytes) otherwise."""
    n = h.qubit_count
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix for n={n} qubits exceeds the n<={MAX_DENSE_QUBITS} guard")
    real = all(t.axes.count("Y") % 2 == 0 for t in h.terms)
    idx = np.arange(2**n)
    m = np.zeros((2**n, 2**n), dtype=float if real else complex)
    for t, gather in zip(h.terms, h.term_tables[0]):
        weight = np.array([1, -1j, -1, 1j]).take(gather // idx.size)
        m[idx, gather % idx.size] += t.coefficient * (weight.real if real else weight)
    return m


def exact_ground_energy(h: PauliSum) -> float:
    """Smallest eigenvalue of the dense operator, via a Hermitian eigensolver.

    A sum that commutes with the global spin flip X^n (see
    `PauliSum.spin_flip_symmetric`) has a centrosymmetric matrix m = [[A, B],
    [JBJ, JAJ]], J the exchange matrix. Its spectrum is the union of those of
    the two Hermitian sector blocks A + BJ and A - BJ (Cantoni & Butler, Linear
    Algebra Appl. 13, 275 (1976)), so two half-size solves replace the full one:
    a quarter of the flops. The blocks overwrite the top-left and bottom-right
    quadrants in place, so about 1x the matrix is held, plus LAPACK's working
    copy of the block being solved (a quarter of it); a whole solve holds 2x.
    Any other sum is diagonalized whole."""
    m = to_dense(h)
    if not h.spin_flip_symmetric:
        return float(np.linalg.eigvalsh(m)[0])
    half = len(m) // 2
    a, bj, jaj = m[:half, :half], m[:half, half:][:, ::-1], m[half:, half:]
    np.subtract(a, bj, out=jaj)  # JAJ is never read: the fold needs only the top half
    a += bj
    return min(float(np.linalg.eigvalsh(b)[0]) for b in (a, jaj))
