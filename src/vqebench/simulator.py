"""Dense statevector engine.

Gate application, exact expectation values, and finite-shot sampling for
losses and all-zeros overlap probabilities. Rotation convention:
R_A(theta) = exp(-i * theta * A / 2).

A state on n qubits is a 1-D complex array of 2**n amplitudes. Site 0 is the
leftmost tensor factor, i.e. the most significant bit of the basis index.

One kernel, `_apply_gate`, applies every gate, and it picks its update by the
gate's structure. Diagonal gates scale halves of the register: RZ both
halves, S and Sdg only the |1> half. Permutation gates (X, CNOT) swap two
halves through one temporary. Only H, RX and RY take the generic 2x2 update.
A circuit pass evaluates the cosine and sine of every half angle once, as
complex scalars like the amplitudes, so that no product casts a float.

Operand order is part of the numerics. Every product is written
`scalar * view` and assigned back, never `view * scalar` or `view *= scalar`:
numpy's SIMD complex multiply (with FMA) is not bitwise commutative.
`np.multiply(scalar, view, out=view)` is no substitute either; on a half of
one amplitude it takes the in-place loop. Kept this way, the kernel gives the
bits of the plain 2x2 update up to the sign of zero amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum

MAX_QUBITS = 20

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "S", "Sdg", "X", "CNOT")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS

# H's entries are +-_H, complex like the amplitudes so that no product casts.
_H = complex(1.0 / np.sqrt(2.0))
# The |1> half of a phase gate is multiplied by this; the |0> half is kept.
_PHASES = {"S": 1j, "Sdg": -1j}
# Self-inverse kinds map to themselves; S and Sdg swap.
_INVERSE_KIND = {"H": "H", "S": "Sdg", "Sdg": "S", "X": "X", "CNOT": "CNOT"}
# d/dtheta R_P(theta) = (-i/2) P R_P(theta). (-i/2) P is off-diagonal for X
# and Y and diagonal for Z; these are its two nonzero entries, top row first.
_GENERATORS = {"RX": (-0.5j, -0.5j), "RY": (-0.5, 0.5), "RZ": (-0.5j, 0.5j)}
# Gates, in order, that map an X or Y eigenbasis onto Z (V = H S^dagger for Y).
_TO_Z_BASIS = {"X": ("H",), "Y": ("Sdg", "H")}


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
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be in [1, {MAX_QUBITS}], got {self.qubit_count}")
        used = set()
        for g in self.gates:
            if any(not 0 <= s < self.qubit_count for s in g.sites):
                raise ValueError(f"gate {g} has a site outside [0, {self.qubit_count})")
            if g.param_index is not None:
                if not 0 <= g.param_index < self.param_count:
                    raise ValueError(f"param_index {g.param_index} out of range")
                used.add(g.param_index)
        if used != set(range(self.param_count)):
            missing = sorted(set(range(self.param_count)) - used)
            raise ValueError(f"parameter indices never referenced: {missing}")


def circuit_to_text(c: Circuit) -> str:
    """Structured dump: one gate per line as 'KIND sites... param', '-' if none."""
    lines = [f"qubits {c.qubit_count} params {c.param_count}"]
    for g in c.gates:
        p = f"p{g.param_index}" if g.param_index is not None else "-"
        lines.append(f"{g.kind} {' '.join(str(s) for s in g.sites)} {p}")
    return "\n".join(lines) + "\n"


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    t = a.copy()
    a[...] = b
    b[...] = t


def _mix(v0: np.ndarray, v1: np.ndarray, m00, m01, m10, m11) -> None:
    """(v0, v1) <- (m00 v0 + m01 v1, m10 v0 + m11 v1) in place."""
    a = v0.copy()
    v0[...] = m00 * a + m01 * v1
    v1[...] = m10 * a + m11 * v1


def _apply_gate(amps: np.ndarray, n: int, kind: str, sites, c: complex = 1.0, s: complex = 0.0) -> None:
    """Apply one gate in place; a rotation takes c, s = cos, sin of half its angle.

    `amps` is a length-2**n state or a (B, 2**n) block of them. The register
    is viewed as (pre, 2, post) with the target site in the middle, folding
    any leading block axis into pre, so a single state takes the same
    arithmetic as a block row.
    """
    if kind == "CNOT":
        control, target = sites
        a, b = sorted(sites)
        view = amps.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
        if control < target:
            _swap(view[:, 1, :, 0], view[:, 1, :, 1])
        else:
            _swap(view[:, 0, :, 1], view[:, 1, :, 1])
        return
    view = amps.reshape(-1, 2, 2 ** (n - sites[0] - 1))
    v0, v1 = view[:, 0], view[:, 1]
    if kind == "RZ":
        v0[...] = (c - 1j * s) * v0
        v1[...] = (c + 1j * s) * v1
    elif kind in _PHASES:
        v1[...] = _PHASES[kind] * v1
    elif kind == "X":
        _swap(v0, v1)
    elif kind == "H":
        _mix(v0, v1, _H, _H, _H, -_H)
    elif kind == "RY":
        _mix(v0, v1, c, -s, s, c)
    else:  # RX
        _mix(v0, v1, c, -1j * s, -1j * s, c)


def _half_angles(theta: np.ndarray, adjoint: bool = False) -> tuple[list, list]:
    """cos and sin of half of every rotation angle (negated for the adjoint), as complex scalars."""
    half = (-theta if adjoint else theta) / 2.0
    return (np.cos(half) + 0j).tolist(), (np.sin(half) + 0j).tolist()


def _apply_gates(amps: np.ndarray, n: int, gates, theta: np.ndarray, adjoint: bool = False) -> None:
    """Apply `gates` in place to a length-2**n state or a (B, 2**n) block of them."""
    cos, sin = _half_angles(theta, adjoint)
    for g in reversed(gates) if adjoint else gates:
        kind = _INVERSE_KIND.get(g.kind, g.kind) if adjoint else g.kind
        i = g.param_index
        if i is None:
            _apply_gate(amps, n, kind, g.sites)
        else:
            _apply_gate(amps, n, kind, g.sites, cos[i], sin[i])


def _add_generator_term(out: np.ndarray, psi: np.ndarray, n: int, kind: str, site: int) -> None:
    """out += (-i/2) P psi for the Pauli P of rotation `kind` on `site`."""
    k0, k1 = _GENERATORS[kind]
    src = psi.reshape(-1, 2, 2 ** (n - site - 1))
    dst = out.reshape(-1, 2, 2 ** (n - site - 1))
    s0, s1 = (src[:, 0], src[:, 1]) if kind == "RZ" else (src[:, 1], src[:, 0])
    dst[:, 0] += k0 * s0
    dst[:, 1] += k1 * s1


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
    _apply_gates(state, c.qubit_count, c.gates, theta)
    return state


def apply_adjoint_circuit(c: Circuit, theta, state) -> np.ndarray:
    """Return U(theta)^dagger applied to a copy of `state` (inverted gates in reverse order)."""
    theta = _check_theta(c, theta)
    out = np.array(_check_state(state, c.qubit_count), dtype=complex)
    _apply_gates(out, c.qubit_count, c.gates, theta, adjoint=True)
    return out


def derivative_states(c: Circuit, theta) -> np.ndarray:
    """Block [psi, d_1 psi, ..., d_d psi] of psi = U(theta)|0...0>, shape (d + 1, 2**n).

    One pass of the block through the gate list: every gate acts on all rows
    (the chain rule's U d psi part), and after a rotation on parameter i, row
    i + 1 gains (-i/2) P psi for that gate's Pauli P. A parameter shared by
    several gates accumulates one such term per gate. Exact to rounding.
    """
    theta = _check_theta(c, theta)
    n = c.qubit_count
    block = np.zeros((c.param_count + 1, 2**n), dtype=complex)
    block[0, 0] = 1.0
    cos, sin = _half_angles(theta)
    for g in c.gates:
        i = g.param_index
        if i is None:
            _apply_gate(block, n, g.kind, g.sites)
        else:
            _apply_gate(block, n, g.kind, g.sites, cos[i], sin[i])
            _add_generator_term(block[i + 1], block[0], n, g.kind, g.sites[0])
    return block


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
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
        else:
            total += t.coefficient * np.real(np.vdot(amps, t.apply(amps)))
    return float(total)


def _outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    p = np.abs(amps) ** 2
    return p / p.sum()


def sampled_expectation(state, h: PauliSum, shots: int, rng: np.random.Generator) -> float:
    """Shot-noise estimate of <s|H|s>.

    Each non-identity Pauli term is measured independently with the full shot
    budget: the state is rotated into the term's measurement basis, `shots`
    outcomes are drawn from the exact outcome distribution, and the term's
    expectation is the sample mean of the +-1 eigenvalues. Constant terms are
    added exactly. Unbiased for expectation(state, h).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = h.qubit_count
    state = _check_state(state, n)
    total = 0.0
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
            continue
        rotated = np.array(state, dtype=complex)
        for site, axis in enumerate(t.axes):
            for kind in _TO_Z_BASIS.get(axis, ()):
                _apply_gate(rotated, n, kind, (site,))
        counts = rng.multinomial(shots, _outcome_probabilities(rotated))
        total += t.coefficient * float(counts @ t.eigenvalue_signs) / shots
    return total


def sampled_zero_probability(state, shots: int, rng: np.random.Generator) -> float:
    """All-zeros outcome frequency over `shots` draws from the full distribution."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = rng.multinomial(shots, _outcome_probabilities(_check_state(state)))
    return float(counts[0]) / shots
