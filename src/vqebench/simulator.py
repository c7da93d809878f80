"""Dense statevector engine.

Gate application, exact expectation values, and finite-shot sampling for
losses and all-zeros overlap probabilities. Rotation convention:
R_A(theta) = exp(-i * theta * A / 2).

A state on n qubits is a 1-D complex array of 2**n amplitudes. Site 0 is the
leftmost tensor factor, i.e. the most significant bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PAULI_MATRICES, PauliSum

MAX_QUBITS = 20

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "S", "Sdg", "X", "CNOT")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_FIXED_MATRICES = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.diag([1.0, 1.0j]),
    "Sdg": np.diag([1.0, -1.0j]),
    "X": PAULI_MATRICES["X"],
}
# Self-inverse kinds map to themselves; S and Sdg swap.
_INVERSE_KIND = {"H": "H", "S": "Sdg", "Sdg": "S", "X": "X", "CNOT": "CNOT"}
# d/dtheta R_P(theta) = (-i/2) P R_P(theta); these are the (-i/2) P factors.
_GENERATORS = {kind: -0.5j * PAULI_MATRICES[kind[1]] for kind in ROTATION_KINDS}
# Gates, in order, that map an X or Y eigenbasis onto Z (V = H S^dagger for Y).
_TO_Z_BASIS = {"X": ("H",), "Y": ("Sdg", "H")}


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
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


def _apply_single(amps: np.ndarray, n: int, matrix: np.ndarray, site: int) -> None:
    # View the register as (pre, 2, post) with the target site in the middle,
    # folding any leading block axis into pre; contiguous reshape keeps this
    # in place, and a single state takes the same arithmetic as a block row.
    view = amps.reshape(-1, 2, 2 ** (n - site - 1))
    v0 = view[:, 0, :].copy()
    v1 = view[:, 1, :]
    view[:, 0, :] = matrix[0, 0] * v0 + matrix[0, 1] * v1
    view[:, 1, :] = matrix[1, 0] * v0 + matrix[1, 1] * v1


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> None:
    a, b = sorted((control, target))
    view = amps.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
    if control < target:
        sub = view[:, 1, :, :, :]
        sub[:, :, [0, 1], :] = sub[:, :, [1, 0], :]
    else:
        sub = view[:, :, :, 1, :]
        sub[:, [0, 1], :, :] = sub[:, [1, 0], :, :]


def _gate_matrix(gate: Gate, theta: np.ndarray, adjoint: bool = False):
    if gate.kind in ROTATION_KINDS:
        angle = theta[gate.param_index]
        return rotation_matrix(gate.kind, -angle if adjoint else angle)
    kind = _INVERSE_KIND[gate.kind] if adjoint else gate.kind
    return None if kind == "CNOT" else _FIXED_MATRICES[kind]


def _apply_gates(amps: np.ndarray, n: int, gates, theta: np.ndarray, adjoint: bool = False) -> None:
    """Apply `gates` in place to a length-2**n state or a (B, 2**n) block of them."""
    seq = reversed(gates) if adjoint else gates
    for g in seq:
        if g.kind == "CNOT":
            _apply_cnot(amps, n, g.sites[0], g.sites[1])
        else:
            _apply_single(amps, n, _gate_matrix(g, theta, adjoint), g.sites[0])


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
    for g in c.gates:
        _apply_gates(block, n, (g,), theta)
        if g.param_index is not None:
            term = block[0].copy()
            _apply_single(term, n, _GENERATORS[g.kind], g.sites[0])
            block[g.param_index + 1] += term
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
                _apply_single(rotated, n, _FIXED_MATRICES[kind], site)
        counts = rng.multinomial(shots, _outcome_probabilities(rotated))
        total += t.coefficient * float(counts @ t.eigenvalue_signs) / shots
    return total


def sampled_zero_probability(state, shots: int, rng: np.random.Generator) -> float:
    """All-zeros outcome frequency over `shots` draws from the full distribution."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = rng.multinomial(shots, _outcome_probabilities(_check_state(state)))
    return float(counts[0]) / shots
