"""Dense statevector engine.

Gate application, exact expectation values, and finite-shot sampling for
losses and all-zeros overlap probabilities. Rotation convention:
R_A(theta) = exp(-i * theta * A / 2).

A state on n qubits is a 1-D complex array of 2**n amplitudes. Site 0 is the
leftmost tensor factor, i.e. the most significant bit of the basis index.

A gate list runs as a plan of array ops, compiled once per `Circuit` and
cached on it (a plain gate list is compiled per call). Each op maps a state or
a (B, 2**n) block to a new array: a maximal run of X, CNOT, S and Sdg is one
gather `x[perm]`, times phases in {1, i, -1, -i} unless all are 1; H, RX and
RY are `a x + b y`, y being x with the site's bit flipped (for RY, signed);
RZ is one multiply by its diagonal. A pass fills every rotation's entries at
once from the cosines and sines of its half angles. The adjoint plan is the
compiled `inverse_gates` list, run at -theta. Energies read the stacked
term tables of a `PauliSum`: one gather applies every string, and one pass per
op sequence rotates the state into every measurement basis, its H op the same
`(y +- x) / sqrt(2)` products as a plan's.

The bits are those of the plain 2x2 update and of the per-term loops, up to
the sign of zero amplitudes. A gather multiplies only by 0, +-1 and +-i, which
is exact. Each entry of H, RX and RY is real or imaginary, so every product is
one rounded real product and the sum rounds alike in either order. Only RZ's
entries c -+ i s have two nonzero parts, and there operand order is part of
the numerics: numpy's SIMD complex multiply (with FMA) is not bitwise
commutative, so the diagonal is always the first operand, `d * x`, into a
fresh array (an in-place `out=` can take numpy's scalar loop instead). The
reductions are the loops' too: one `vdot` per term (not a `gemv`), row-wise
sums, and one `multinomial` per term (a 2-D one draws the same stream but was
no faster: 123-154 against 127-135 us for 11 rows at n = 6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .values import check_value

MAX_QUBITS = 20

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "S", "Sdg", "X", "CNOT")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS

_H = 1.0 / np.sqrt(2.0)
# A rotation's entries (a, b), as (a.re, a.im, b.re, b.im) codes into the
# values [cos, sin, -sin, 0]: RX (c, -i s) and RY (c, s) act as a x + b y with
# y the flipped (for RY signed) copy; RZ is the diagonal (c - i s, c + i s).
_ENTRIES = {"RX": (0, 3, 3, 2), "RY": (0, 3, 1, 3), "RZ": (0, 2, 0, 1)}
# d/dtheta R_P(theta) = (-i/2) P R_P(theta); (-i/2) P is this times y (RX, RY) or sign * x (RZ).
_GENERATORS = {"RX": -0.5j, "RY": 0.5, "RZ": 0.5j}


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    Rotation kinds (RX, RY, RZ) carry a param_index into the parameter
    vector; fixed kinds (H, S, Sdg, X, CNOT) carry none.
    """

    kind: str
    sites: tuple[int, ...]
    param_index: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        expected_sites = 2 if self.kind == "CNOT" else 1
        if len(self.sites) != expected_sites:
            raise ValueError(f"{self.kind} takes {expected_sites} site(s), got {self.sites}")
        if self.kind == "CNOT" and self.sites[0] == self.sites[1]:
            raise ValueError("CNOT control and target must differ")
        if (self.kind in ROTATION_KINDS) != (self.param_index is not None):
            raise ValueError(f"param_index must be set iff kind is a rotation ({self.kind})")


@dataclass(frozen=True)
class Circuit:
    """Ordered parameterized gate list over a fixed qubit register."""

    gates: tuple[Gate, ...]
    qubit_count: int
    param_count: int

    def __post_init__(self):
        check_value("qubit_count", "int", self.qubit_count)
        check_value("param_count", "int", self.param_count)
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be in [1, {MAX_QUBITS}], got {self.qubit_count}")
        used = set()
        for g in self.gates:  # a plain int skips check_value, which is the costlier call
            for s in g.sites:
                if type(s) is not int:
                    check_value("sites", "int", s)
                if not 0 <= s < self.qubit_count:
                    raise ValueError(f"gate {g} has a site outside [0, {self.qubit_count})")
            if g.param_index is not None:
                if type(g.param_index) is not int:
                    check_value("param_index", "int", g.param_index)
                if not 0 <= g.param_index < self.param_count:
                    raise ValueError(f"param_index {g.param_index} out of range")
                used.add(g.param_index)
        if used != set(range(self.param_count)):
            missing = sorted(set(range(self.param_count)) - used)
            raise ValueError(f"parameter indices never referenced: {missing}")

    @functools.cached_property  # compiled once, like a PauliString's encodings
    def _plan(self) -> "_Plan":
        return _compile(self.qubit_count, self.gates)

    @functools.cached_property
    def _adjoint_plan(self) -> "_Plan":
        return _compile(self.qubit_count, inverse_gates(self.gates))


def inverse_gates(gates) -> list[Gate]:
    """The inverse of a gate list when its rotations run at -theta: the gates in
    reverse order, S and Sdg swapped. H, X and CNOT are their own inverses, and a
    rotation keeps its parameter index."""
    return [Gate({"S": "Sdg", "Sdg": "S"}.get(g.kind, g.kind), g.sites, g.param_index) for g in reversed(gates)]


def circuit_to_text(c: Circuit) -> str:
    """Structured dump: one gate per line as 'KIND sites... param', '-' if none."""
    lines = [f"qubits {c.qubit_count} params {c.param_count}"]
    for g in c.gates:
        p = f"p{g.param_index}" if g.param_index is not None else "-"
        lines.append(f"{g.kind} {' '.join(str(s) for s in g.sites)} {p}")
    return "\n".join(lines) + "\n"


@functools.cache
def _site(n: int, site: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bit, flip, sign) over the 2**n basis indices j: the site's bit of j, j with
    that bit flipped, and -1 or +1 (complex) for bit 0 or 1. Shared by every plan,
    and left writeable: numpy's take copies a read-only index on every call."""
    j = np.arange(2**n)
    bit = j >> (n - 1 - site) & 1
    return bit, j ^ (1 << (n - 1 - site)), (2 * bit - 1).astype(complex)


@dataclass(frozen=True, eq=False)
class _Plan:
    """A gate list compiled to array ops; `params` and `entries` say where each
    rotation slot's two entries (a.re, a.im, b.re, b.im) sit in a pass's values
    [cos, sin, -sin, 0] of the slots' half angles."""

    ops: tuple  # (kind, gather index, phases/signs/H diagonal or None, slot, param)
    params: np.ndarray
    entries: np.ndarray

    def run(self, x: np.ndarray, theta: np.ndarray, derivatives: bool = False) -> np.ndarray:
        """The plan applied to x, a state or a (B, 2**n) block, as a new array.

        With `derivatives`, x is the block [psi, 0, ..., 0] and, after each
        rotation on parameter p, row p + 1 gains (-i/2) P psi for its Pauli P.
        """
        if self.params.size:
            half = theta / 2.0
            cos, sin = np.cos(half)[self.params], np.sin(half)[self.params]
            coef = np.concatenate((cos, sin, -sin, np.zeros(cos.size))).take(self.entries).view(complex)
            pairs = coef.tolist()
        x = np.array(x, dtype=complex)
        for kind, index, table, k, p in self.ops:
            if kind == "RZ":
                x = coef[k].take(index) * x  # coefficient first: see the module docstring
            elif kind == "gather":
                x = x.take(index, axis=-1)
                if table is not None:
                    x *= table
            else:  # a x + b y, y the copy of x with the site flipped (and, for RY, signed)
                a, b = (table, _H) if kind == "H" else pairs[k]
                y = x.take(index, axis=-1)
                if kind == "RY":
                    y *= table
                y *= b
                x *= a
                x += y
            if derivatives and p is not None:
                psi = x[0] if kind == "RZ" else x[0].take(index)
                x[p + 1] += _GENERATORS[kind] * (psi if table is None else table * psi)
        return x


def _compile(n: int, gates) -> _Plan:
    """One op per maximal run of X, CNOT, S and Sdg (a signed gather) and per H or rotation."""
    j = np.arange(2**n)
    perm, phase = j, np.ones(2**n, dtype=complex)  # the pending run maps x to phase * x[perm]
    ops, params, entries = [], [], []
    for g in (*gates, None):  # None closes the last run
        if g is not None and g.kind in ("X", "CNOT", "S", "Sdg"):
            bit, flip, _ = _site(n, g.sites[-1])
            # The target flips where the control is set: always for X, never for S and Sdg.
            step = np.where(_site(n, g.sites[0])[0] if g.kind == "CNOT" else g.kind == "X", flip, j)
            perm, phase = perm[step], phase[step] * np.where(bit, {"S": 1j, "Sdg": -1j}.get(g.kind, 1), 1)
            continue
        if (perm != j).any() or (phase != 1).any():
            ops.append(("gather", perm, None if (phase == 1).all() else phase, None, None))
            perm, phase = j, np.ones(2**n, dtype=complex)
        if g is None:
            continue
        bit, flip, sign = _site(n, g.sites[0])
        tables = {"RX": (flip, None), "RY": (flip, sign), "RZ": (bit, sign)}.get(g.kind) or (flip, -_H * sign)
        ops.append((g.kind, *tables, len(params), g.param_index))
        if g.param_index is not None:
            params.append(g.param_index)
            entries.append(_ENTRIES[g.kind])
    codes = np.array(entries, dtype=np.intp).reshape(-1, 4) * len(params) + np.arange(len(params))[:, None]
    return _Plan(tuple(ops), np.array(params, dtype=np.intp), codes)


def _check_theta(c: Circuit, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.param_count,):
        raise ValueError(f"expected {c.param_count} parameters, got shape {theta.shape}")
    return theta


def _check_state(state, n: int | None = None) -> np.ndarray:
    """`state` as an array, checked to be 1-D of length 2**n (any n >= 1 if None)."""
    state = np.asarray(state)
    size = state.size if n is None else 2**n
    if state.shape != (size,) or size < 2 or size & (size - 1):
        length = "2**n" if n is None else size
        raise ValueError(f"state must be a 1-D array of length {length}, got shape {state.shape}")
    return state


def apply_circuit(c: Circuit, theta) -> np.ndarray:
    """Return U(theta)|0...0>."""
    theta = _check_theta(c, theta)
    state = np.zeros(2**c.qubit_count, dtype=complex)
    state[0] = 1.0
    return c._plan.run(state, theta)


def apply_adjoint_circuit(c: Circuit, theta, state) -> np.ndarray:
    """Return U(theta)^dagger applied to a copy of `state` (inverted gates in reverse order)."""
    theta = _check_theta(c, theta)
    return c._adjoint_plan.run(_check_state(state, c.qubit_count), -theta)


def derivative_states(c: Circuit, theta) -> np.ndarray:
    """Block [psi, d_1 psi, ..., d_d psi] of psi = U(theta)|0...0>, shape (d + 1, 2**n).

    One pass of the block through the plan: every op acts on all rows (the
    chain rule's U d psi part), and after a rotation on parameter i, row
    i + 1 gains (-i/2) P psi for that gate's Pauli P. A parameter shared by
    several gates accumulates one such term per gate. Exact to rounding.
    """
    theta = _check_theta(c, theta)
    block = np.zeros((c.param_count + 1, 2**c.qubit_count), dtype=complex)
    block[0, 0] = 1.0
    return c._plan.run(block, theta, derivatives=True)


def require_one_gate_per_parameter(c: Circuit) -> None:
    """Raise ValueError if a parameter index drives more than one gate.

    The +-pi/2 parameter-shift rule is exact only for a parameter that enters
    through a single Pauli rotation; with a shared index it returns a wrong
    derivative without any sign of it.
    """
    seen = set()
    for g in c.gates:
        if g.param_index in seen:
            raise ValueError(
                f"parameter index {g.param_index} drives more than one gate; "
                "the parameter-shift rule needs one gate per parameter"
            )
        if g.param_index is not None:
            seen.add(g.param_index)


def expectation(state, h: PauliSum) -> float:
    """Exact <s|H|s>, real for Hermitian H. Constant terms are added exactly."""
    amps = _check_state(state, h.qubit_count)
    total = 0.0
    for t, row in zip(h.terms, h.apply_terms(amps)):
        total += t.coefficient if t.is_identity else t.coefficient * np.vdot(amps, row).real
    return float(total)


def _outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    """Born probabilities of a state, or of each row of a block."""
    p = np.abs(np.asarray(amps, dtype=complex)) ** 2
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _rotate(state: np.ndarray, ops: tuple) -> np.ndarray:
    """The state rotated by one group of `PauliSum.measurement_tables`, one row per basis."""
    x = np.asarray(state, dtype=complex)[None]
    for index, table in ops:
        if index is None:  # S^dagger: a phase
            x = table * x
        else:  # H: y / sqrt(2) +- x / sqrt(2), y the copy of x with the site flipped
            y = x.take(index) * _H
            y += table * (x * _H)
            x = y
    return x


def sampled_expectation(state, h: PauliSum, shots: int, rng: np.random.Generator) -> float:
    """Shot-noise estimate of <s|H|s>.

    Each non-identity Pauli term is measured independently with the full shot
    budget: the state is rotated into the term's measurement basis, `shots`
    outcomes are drawn from the exact outcome distribution, and the term's
    expectation is the sample mean of the +-1 eigenvalues. Terms with the same
    rotation (Z-only terms: none) share one distribution. Constant terms are
    added exactly. The outcome distribution is normalized, so this is unbiased
    for expectation(state, h) only for a unit-norm state.
    """
    check_value("shots", "int", shots)
    state = _check_state(state, h.qubit_count)
    groups, rows = h.measurement_tables
    distributions = [p for ops in groups for p in _outcome_probabilities(_rotate(state, ops))]
    total = 0.0
    for t, row, signs in zip(h.terms, rows, h.term_tables[1]):
        if t.is_identity:
            total += t.coefficient
        else:
            counts = rng.multinomial(shots, distributions[row])
            total += t.coefficient * float(counts @ signs) / shots
    return total


def sampled_zero_probability(state, shots: int, rng: np.random.Generator) -> float:
    """All-zeros outcome frequency over `shots` draws from the full distribution."""
    check_value("shots", "int", shots)
    counts = rng.multinomial(shots, _outcome_probabilities(_check_state(state)))
    return float(counts[0]) / shots
