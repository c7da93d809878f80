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
once from the cosines and sines of its half angles; B > 1 angle rows give
(B, 1) columns of entries, one state per row, and one row shares 0-d entries
across its amplitudes, whatever the rank of its array. The adjoint plan is the
compiled `inverse_gates` list, run at -theta; its sweep over [psi, H psi] sums
the loss gradient, a term per rotation (the adjoint method). Energies read the
stacked term tables of a `PauliSum`: one gather applies every string, and
`PauliSum.outcome_distributions` (the measurement pass, which owns the
rotation tables) gives the measured terms' rows; this module only draws. A
compiled plan holds only its ops and tables: it keeps no state between passes,
so every pass from |0...0> runs the whole plan.

The bits are those of the plain 2x2 update and of the per-term loops, up to
the sign of zero amplitudes. A gather multiplies only by 0, +-1 and +-i, which
is exact. Each entry of H, RX and RY is real or imaginary, so every product is
one rounded real product and the sum rounds alike in either order. Only RZ's
entries c -+ i s have two nonzero parts, and there operand order is part of
the numerics: numpy's SIMD complex multiply (with FMA) is not bitwise
commutative, so the diagonal is always the first operand, `d * x`, into a
fresh array (an in-place `out=` can take numpy's scalar loop instead). The
reductions are the loops' too: one `vecdot` over the term rows (a BLAS `zdotc`
per row, as each `vdot` was; not a `gemv`), row-wise sums, and per chunk of at
most 2 MiB of rows one 2-D `multinomial` (numpy draws it row by row: the
per-term stream; 86 -> 76 us for 11 rows at n = 6) and one signed `einsum`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, _H, _outcome_probabilities
from .values import check_value

MAX_QUBITS = 20

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "S", "Sdg", "X", "CNOT")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS

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
    size: int  # amplitudes, 2**n

    def run(self, x: np.ndarray | None, theta: np.ndarray, derivatives: bool = False, sweep=None) -> np.ndarray:
        """The plan applied to x, a state or a (B, 2**n) block, as a new array.

        With x None, the pass starts from |0...0>, as B rows for a (B, d) array of angles.
        With `derivatives`, theta is one (1, d) row and x the block [psi]: row p + 1 joins it, after zero rows
        for any skipped index, at the first rotation on parameter p, and gains (-i/2) P psi for its Pauli P at each;
        with a `sweep` array, x is [psi, lam], and there sweep[p] gains 2 Re <lam|(-i/2) P psi> instead.
        """
        half = theta / 2.0
        cos, sin = np.cos(half).take(self.params, axis=-1), np.sin(half).take(self.params, axis=-1)
        coef = np.concatenate((cos, sin, -sin, np.zeros(cos.shape)), axis=-1).take(self.entries, axis=-1)
        # Slot k's entries (a, b) are diag[k], (2,) or (B, 2) for B rows of angles. Entry j is cols[k, ..., j]:
        # a (B, 1) column for B != 1 rows, and for one row (a vector or a (1, d) block) a 0-d view, no broadcast.
        diag = coef.view(complex).swapaxes(0, -2)
        cols = diag.reshape((len(diag),) + (-1, 1) * (theta.size != theta.shape[-1]) + (2,))
        if x is None:
            x = np.zeros((*theta.shape[:-1], self.size), dtype=complex)
            x[..., 0] = 1.0
        else:
            x = np.array(x, dtype=complex)
        for kind, index, table, k, p in self.ops:
            if kind == "RZ":  # the diagonal first: see the module docstring
                x = diag[k].take(index, axis=-1) * x
            elif kind == "gather":
                x = x.take(index, axis=-1)
                if table is not None:
                    x *= table
            else:  # a x + b y, y the copy of x with the site flipped (and, for RY, signed)
                a, b = (table, _H) if kind == "H" else (cols[k, ..., 0], cols[k, ..., 1])
                y = x.take(index, axis=-1)
                if kind == "RY":
                    y *= table
                y *= b
                x = x * a
                x += y
            if (derivatives or sweep is not None) and p is not None:
                psi = x[0] if kind == "RZ" else x[0].take(index)
                term = _GENERATORS[kind] * (psi if table is None else table * psi)
                if sweep is not None:
                    sweep[p] += 2.0 * np.vdot(x[1], term).real
                    continue
                if p + 1 >= len(x):
                    x = np.concatenate((x, np.zeros((p + 2 - len(x), self.size), dtype=complex)))
                x[p + 1] += term
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
    return _Plan(tuple(ops), np.array(params, dtype=np.intp), codes, 2**n)


def _check_theta(c: Circuit, theta: np.ndarray, rows: bool = False) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (c.param_count,) or theta.ndim > 1 + rows:
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
    """Return U(theta)|0...0>; for a (B, d) array of angle rows, the (B, 2**n) block of those states."""
    return c._plan.run(None, _check_theta(c, theta, rows=True))


def apply_adjoint_circuit(c: Circuit, theta, state) -> np.ndarray:
    """Return U(theta)^dagger applied to a copy of `state` (inverted gates in reverse order)."""
    theta = _check_theta(c, theta)
    return c._adjoint_plan.run(_check_state(state, c.qubit_count), -theta)


def derivative_states(c: Circuit, theta) -> np.ndarray:
    """Block [psi, d_1 psi, ..., d_d psi] of psi = U(theta)|0...0>, shape (d + 1, 2**n).

    One pass from the block [|0...0>]: every op acts on the rows present (the chain
    rule's U d psi part), and each rotation on parameter i adds (-i/2) P psi for its
    Pauli P to row i + 1. That row joins the block at the first such rotation, after
    zero rows for lower indices not yet reached. Exact to rounding.
    """
    return c._plan.run(None, _check_theta(c, theta)[None], derivatives=True)


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
    for (c, constant), dot in zip(h._weights, np.vecdot(amps, h.apply_terms(amps)).real.tolist()):
        total += c if constant else c * dot
    return float(total)


def sampled_expectation(state, h: PauliSum, shots: int, rng: np.random.Generator) -> float:
    """Shot-noise estimate of <s|H|s>.

    Each non-identity Pauli term is measured independently with the full shot
    budget, and its expectation is the mean of the +-1 eigenvalues of `shots`
    outcomes drawn in its measurement basis. Each chunk of
    `PauliSum.outcome_distributions` rows is one 2-D `multinomial` (the per-term
    calls' stream) and one signed sum per row; each term adds coefficient * sum
    / shots in term order. Constant terms are added exactly and draw nothing.
    The distributions are normalized: this is unbiased only for a unit-norm state.
    """
    check_value("shots", "int", shots)
    chunks = h.outcome_distributions(_check_state(state, h.qubit_count))
    sums = iter([s for p, signs in chunks for s in np.einsum("ij,ij->i", rng.multinomial(shots, p), signs).tolist()])
    total = 0.0  # the sums above use einsum: vecdot would copy the int8 signs to int64
    for c, constant in h._weights:
        total += c if constant else c * next(sums) / shots
    return total


def sampled_zero_probability(state, shots: int, rng: np.random.Generator) -> float:
    """All-zeros outcome frequency over `shots` draws from the full distribution."""
    check_value("shots", "int", shots)
    counts = rng.multinomial(shots, _outcome_probabilities(_check_state(state)))
    return float(counts[0]) / shots
