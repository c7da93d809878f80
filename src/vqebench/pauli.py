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
# exact_ground_energy holds about 1.5x it for a spin-flip-symmetric sum and
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

    # The one encoding of the string's action, cached because a Hamiltonian is
    # fixed for a run. Site 0 is the top bit of the basis index j; (P psi)[j] =
    # weight[j] * psi[gather_index[j]], with gather_index[j] = j ^ flip_mask and
    # weight[j] = (-i)^(number of Y's) times -1 per Y or Z site whose bit is set
    # in j. Outcome j in P's measurement basis has eigenvalue eigenvalue_signs[j].

    @cached_property
    def flip_mask(self) -> int:
        return int("".join("1" if a in "XY" else "0" for a in self.axes), 2)

    @cached_property
    def eigenvalue_signs(self) -> np.ndarray:
        return _parity_signs(self.axes, "XYZ")

    @cached_property
    def weight(self) -> np.ndarray:
        phase = (1 + 0j, -1j, -1 + 0j, 1j)[self.axes.count("Y") % 4]
        return _read_only(phase * _parity_signs(self.axes, "YZ"))

    @cached_property
    def gather_index(self) -> np.ndarray:
        return _read_only(np.arange(2 ** len(self.axes)) ^ self.flip_mask)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The unweighted string applied to an amplitude vector (a new array)."""
        return self.weight * (amps[self.gather_index] if self.flip_mask else amps)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every caller of the cached encoding
    return a


def _parity_signs(axes: str, kinds: str) -> np.ndarray:
    """int8 (-1)^(number of sites with axis in `kinds` whose bit is set in j)."""
    signs = np.ones(2 ** len(axes), dtype=np.int8)
    for site, a in enumerate(axes):
        if a in kinds:
            # Viewed as (2**site, 2, rest), the middle axis is the site's bit of j.
            signs.reshape(2**site, 2, -1)[:, 1] *= -1
    return _read_only(signs)


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
    (checked before anything is allocated). Each term adds its coefficient
    times weight[j] to m[j, gather_index[j]] for every row j. The matrix is
    float64 (8 * 4**n bytes) when every term has an even number of Y's, so a
    real weight, and complex128 (16 * 4**n bytes) otherwise."""
    n = h.qubit_count
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix for n={n} qubits exceeds the n<={MAX_DENSE_QUBITS} guard")
    real = all(t.axes.count("Y") % 2 == 0 for t in h.terms)
    idx = np.arange(2**n)
    m = np.zeros((2**n, 2**n), dtype=float if real else complex)
    for t in h.terms:
        m[idx, t.gather_index] += t.coefficient * (t.weight.real if real else t.weight)
    return m


def exact_ground_energy(h: PauliSum) -> float:
    """Smallest eigenvalue of the dense operator, via a Hermitian eigensolver.

    A sum that commutes with the global spin flip X^n (see
    `PauliSum.spin_flip_symmetric`) has a centrosymmetric matrix m = [[A, B],
    [JBJ, JAJ]], J the exchange matrix. Its spectrum is the union of those of
    the two Hermitian sector blocks A + BJ and A - BJ (Cantoni & Butler, Linear
    Algebra Appl. 13, 275 (1976)), so two half-size solves replace the full one:
    a quarter of the flops, and at most 1.5x the matrix held instead of 2x. Any
    other sum is diagonalized whole."""
    m = to_dense(h)
    if not h.spin_flip_symmetric:
        return float(np.linalg.eigvalsh(m)[0])
    half = len(m) // 2
    a, bj = m[:half, :half], m[:half, half:][:, ::-1]
    blocks = (a + bj, a - bj)
    del m, a, bj  # hold only the two blocks while they are diagonalized
    return min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)
