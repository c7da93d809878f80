"""Pauli-string algebra and benchmark Hamiltonians.

Builds the transverse-field Ising and lattice Schwinger Hamiltonians as
real-weighted sums of Pauli strings. Ground-truth energies come from the TFIM's
closed form, and for any other sum from a dense exact diagonalization of the
whole matrix at small system sizes. A sampled energy's measurement pass,
`PauliSum.outcome_distributions`, is here too: it alone reads the sum's cached
basis-rotation tables.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .values import check_value

# Coefficients below this magnitude are dropped after merging; symbolic
# expansion cancels exactly only up to rounding.
COEFF_PRUNE_THRESHOLD = 1e-12

# A complex dense matrix takes 16 * 4**n bytes (a real one half that). exact_ground_energy
# solves the whole matrix and holds about 2x it (2.1 GB at n = 13, 8.6 GB at n = 14 for a
# complex sum), so this is the largest size at which any sum fits an 8 GB machine. The
# guard holds for every problem kind, the TFIM included, though its closed form needs none.
MAX_DENSE_QUBITS = 13

_SAMPLED_ROW_BYTES = 2**21  # a chunk of PauliSum.outcome_distributions: one at n <= 13 for the TFIM

_H = 1.0 / np.sqrt(2.0)  # the entries of H, here and in the simulator's gate plans


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

    def __post_init__(self):
        check_value("qubit_count", "int", self.qubit_count)
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be >= 1, got {self.qubit_count}")
        seen = set()  # one term per axes string: the canonical form
        for t in self.terms:
            if len(t.axes) != self.qubit_count:
                raise ValueError(f"term {t.axes!r} has {len(t.axes)} sites, expected {self.qubit_count}")
            if t.axes in seen:
                raise ValueError(f"term {t.axes!r} is repeated; PauliSum.from_terms merges repeats")
            seen.add(t.axes)

    @classmethod
    def from_terms(cls, terms, qubit_count: int) -> "PauliSum":
        merged: dict[str, float] = {}
        for t in terms:
            merged[t.axes] = merged.get(t.axes, 0.0) + t.coefficient
        # Checked before pruning, so a term that merging would prune is checked too.
        whole = cls(tuple(PauliString(c, a) for a, c in sorted(merged.items())), qubit_count)
        return cls(tuple(t for t in whole.terms if abs(t.coefficient) > COEFF_PRUNE_THRESHOLD), qubit_count)

    @cached_property
    def term_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(gather, signs), one row per term in term order, compiled on first use and
        cached on the sum like a circuit's plan. Site 0 is the top bit of the basis
        index j. With v = [psi, -i psi, -psi, i psi], (P psi)[j] = v[gather[j]]: j ^ (the
        X and Y sites) in the copy scaled by (-i)^(number of Y's) times -1 per Y or Z
        site set in j. P's outcome j in its measurement basis has eigenvalue signs[j]."""
        j = np.arange(2**self.qubit_count)

        def masks(kinds):  # per term, the bits of j of the sites with axis in kinds
            bits = [int("".join("01"[a in kinds] for a in t.axes), 2) for t in self.terms]
            return np.array(bits, dtype=np.intp).reshape(-1, 1)

        y_counts = np.array([t.axes.count("Y") for t in self.terms], dtype=np.intp).reshape(-1, 1)
        gather = j ^ masks("XY")
        gather += (y_counts + 2 * np.bitwise_count(j & masks("YZ"))) % 4 * j.size  # which copy
        return gather, 1 - 2 * (np.bitwise_count(j & masks("XYZ")) & 1).astype(np.int8)

    def apply_terms(self, amps: np.ndarray) -> np.ndarray:
        """Every term's unweighted string applied to amps, one row per term (a new array)."""
        return np.concatenate((amps, -1j * amps, -amps, 1j * amps)).take(self.term_tables[0])

    @cached_property
    def _weights(self) -> tuple[tuple[float, bool], ...]:  # (coefficient, is_identity) per term, as energies read them
        return tuple((t.coefficient, t.is_identity) for t in self.terms)

    @cached_property
    def _measurement_tables(self) -> tuple[tuple, np.ndarray]:
        """The rotations into the terms' measurement bases (H on X sites, H S^dagger on Y
        sites), one group of stacked rows per op sequence, and each non-identity term's index
        and row among the groups' rows in group order. An op is (None, phases) for S^dagger,
        or for H each row's flat flipped index (a first op reads the state itself) and int8
        sign of x. Z-only terms share the group with no ops: the state itself."""
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
        measured = [(i, row[key]) for i, (key, t) in enumerate(zip(keys, self.terms)) if not t.is_identity]
        return tuple(tables), np.array(measured, dtype=np.intp).reshape(-1, 2).T

    def outcome_distributions(self, amps: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The non-identity terms' Born probabilities of amps in their measurement bases and int8
        outcome signs, two arrays of rows in term order, in chunks of about _SAMPLED_ROW_BYTES of
        probabilities: one pass per op sequence, then one take of the groups' rows per chunk."""
        groups, (measured, rows) = self._measurement_tables
        if not rows.size:
            return
        born = []
        for ops in groups:
            x = np.asarray(amps, dtype=complex)[None]
            for index, table in ops:  # S^dagger: a phase; H: y / sqrt(2) +- x / sqrt(2), y x site-flipped
                x = table * x if index is None else x.take(index) * _H + table * (x * _H)
            born.append(_outcome_probabilities(x))
        born, x, step = np.concatenate(born), None, max(1, _SAMPLED_ROW_BYTES // born[0][0].nbytes)
        for lo in range(0, rows.size, step):  # x's last block is gone before the draws
            yield born.take(rows[lo : lo + step], axis=0), self.term_tables[1].take(measured[lo : lo + step], axis=0)


def _outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    """Born probabilities of a state, or of each row of a block."""
    p = np.abs(np.asarray(amps, dtype=complex)) ** 2
    p /= p.sum(axis=-1, keepdims=True)
    return p


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
    check_value("n", "int", n)
    if n < 2:
        raise ValueError(f"TFIM needs at least 2 sites (no bond exists for n={n})")
    terms = []
    for i in range(n - 1):
        terms.append(PauliString(J, _axes(n, (i, "Z"), (i + 1, "Z"))))
    for i in range(n):
        terms.append(PauliString(h, _axes(n, (i, "X"))))
    return PauliSum.from_terms(terms, n)


def tfim_ground_energy(n: int, J: float, h: float) -> float:
    """Ground energy of build_tfim(n, J, h) in closed form: minus the sum of the singular values of
    the n x n bidiagonal matrix with h on the diagonal and J just above it (Lieb, Schultz & Mattis
    1961; Pfeuty 1970). O(n^3) time and no 2**n-sized array."""
    bidiagonal = np.diag(np.full(n, float(h))) + np.diag(np.full(n - 1, float(J)), 1)
    energy = -float(np.linalg.svd(bidiagonal, compute_uv=False).sum())
    if not math.isfinite(energy):  # finite couplings near the float limit overflow the sum
        raise ValueError(f"non-finite TFIM ground energy {energy!r} for J={J!r}, h={h!r}")
    return energy


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
    check_value("n", "int", n)
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


def to_dense(h: PauliSum) -> np.ndarray:
    """The dense Hermitian matrix of a PauliSum, for n up to MAX_DENSE_QUBITS (checked before
    anything is allocated). Each term adds its coefficient times copy gather[j] // 2**n's unit
    (see term_tables) to m[j, gather[j] % 2**n], for each row j. The matrix is float64 (8 * 4**n
    bytes) when every term has an even number of Y's, so a real weight, and complex128
    (16 * 4**n bytes) otherwise."""
    n = h.qubit_count
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix for n={n} qubits exceeds the n<={MAX_DENSE_QUBITS} guard")
    size = 2**n
    real = all(t.axes.count("Y") % 2 == 0 for t in h.terms)
    m = np.zeros((size, size), dtype=float if real else complex)
    gather = h.term_tables[0]
    weight = np.array([1, -1j, -1, 1j]).take(gather // size)
    coefficients = np.array([t.coefficient for t in h.terms])[:, None]
    np.add.at(m, (np.arange(size), gather % size), coefficients * (weight.real if real else weight))  # in term order
    return m


def exact_ground_energy(h: PauliSum) -> float:
    """Smallest eigenvalue of the whole dense matrix, via a Hermitian eigensolver: about 2x the
    matrix with LAPACK's working copy. The TFIM's closed form is tfim_ground_energy."""
    return float(np.linalg.eigvalsh(to_dense(h))[0])
