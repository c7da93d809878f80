"""Dense statevector engine.

Gate application, exact expectation values, and finite-shot sampling for
losses and all-zeros overlap probabilities. Rotation convention:
R_A(theta) = exp(-i * theta * A / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum

MAX_QUBITS = 20

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "S", "Sdg", "X", "CNOT")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_FIXED_MATRICES = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.diag([1.0, 1.0j]),
    "Sdg": np.diag([1.0, -1.0j]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
}
# Self-inverse kinds map to themselves; S and Sdg swap.
_INVERSE_KIND = {"H": "H", "S": "Sdg", "Sdg": "S", "X": "X", "CNOT": "CNOT"}
# d/dtheta R_P(theta) = (-i/2) P R_P(theta); these are the (-i/2) P factors.
_GENERATORS = {
    "RX": -0.5j * _FIXED_MATRICES["X"],
    "RY": -0.5j * np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "RZ": -0.5j * np.diag([1.0 + 0j, -1.0]),
}


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


@dataclass
class Statevector:
    """Complex amplitude vector of length 2**qubit_count, site 0 = leftmost factor."""

    amplitudes: np.ndarray
    qubit_count: int

    def copy(self) -> "Statevector":
        return Statevector(self.amplitudes.copy(), self.qubit_count)


def zero_state(qubit_count: int) -> Statevector:
    amps = np.zeros(2**qubit_count, dtype=complex)
    amps[0] = 1.0
    return Statevector(amps, qubit_count)


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


def apply_circuit(c: Circuit, theta) -> Statevector:
    """Return U(theta)|0...0>."""
    theta = _check_theta(c, theta)
    state = zero_state(c.qubit_count)
    _apply_gates(state.amplitudes, c.qubit_count, c.gates, theta)
    return state


def apply_adjoint_circuit(c: Circuit, theta, state: Statevector) -> Statevector:
    """Return U(theta)^dagger applied to `state` (inverted gates in reverse order)."""
    theta = _check_theta(c, theta)
    if state.qubit_count != c.qubit_count:
        raise ValueError("statevector and circuit qubit counts differ")
    out = state.copy()
    _apply_gates(out.amplitudes, c.qubit_count, c.gates, theta, adjoint=True)
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


def _pauli_apply(amps: np.ndarray, n: int, axes: str) -> np.ndarray:
    """Apply an unweighted Pauli string to an amplitude vector."""
    out = amps
    for site, axis in enumerate(axes):
        if axis == "I":
            continue
        view = out.reshape(2**site, 2, 2 ** (n - site - 1))
        if axis == "X":
            out = np.concatenate(
                (view[:, 1:2, :], view[:, 0:1, :]), axis=1
            ).reshape(-1)
        elif axis == "Y":
            out = np.concatenate(
                (-1j * view[:, 1:2, :], 1j * view[:, 0:1, :]), axis=1
            ).reshape(-1)
        else:  # Z
            out = np.concatenate((view[:, 0:1, :], -view[:, 1:2, :]), axis=1).reshape(-1)
    return out


def expectation(state: Statevector, h: PauliSum) -> float:
    """Exact <s|H|s>, real for Hermitian H. Constant terms are added exactly."""
    if state.qubit_count != h.qubit_count:
        raise ValueError("statevector and operator qubit counts differ")
    amps = state.amplitudes
    total = 0.0
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
        else:
            total += t.coefficient * np.real(
                np.vdot(amps, _pauli_apply(amps, state.qubit_count, t.axes))
            )
    return float(total)


def _eigenvalue_signs(n: int, axes: str) -> np.ndarray:
    """(+-1)^(occupation of non-identity sites) per basis index."""
    idx = np.arange(2**n)
    signs = np.ones(2**n, dtype=float)
    for site, axis in enumerate(axes):
        if axis != "I":
            signs *= 1.0 - 2.0 * ((idx >> (n - site - 1)) & 1)
    return signs


def _outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    p = np.abs(amps) ** 2
    # Clip rounding residue so the multinomial sampler sees a distribution.
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sampled_expectation(state: Statevector, h: PauliSum, shots: int, rng: np.random.Generator) -> float:
    """Shot-noise estimate of <s|H|s>.

    Each non-identity Pauli term is measured independently with the full shot
    budget: the state is rotated into the term's measurement basis, `shots`
    outcomes are drawn from the exact outcome distribution, and the term's
    expectation is the sample mean of the +-1 eigenvalues. Constant terms are
    added exactly. Unbiased for expectation(state, h).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if state.qubit_count != h.qubit_count:
        raise ValueError("statevector and operator qubit counts differ")
    n = state.qubit_count
    total = 0.0
    for t in h.terms:
        if t.is_identity:
            total += t.coefficient
            continue
        rotated = state.amplitudes.copy()
        for site, axis in enumerate(t.axes):
            if axis == "X":
                _apply_single(rotated, n, _FIXED_MATRICES["H"], site)
            elif axis == "Y":
                # V = H S^dagger maps the Y eigenbasis onto the Z basis.
                _apply_single(rotated, n, _FIXED_MATRICES["Sdg"], site)
                _apply_single(rotated, n, _FIXED_MATRICES["H"], site)
        counts = rng.multinomial(shots, _outcome_probabilities(rotated))
        signs = _eigenvalue_signs(n, t.axes)
        total += t.coefficient * float(counts @ signs) / shots
    return total


def zero_probability(state: Statevector) -> float:
    """Exact probability of the all-zeros outcome."""
    return float(np.abs(state.amplitudes[0]) ** 2)


def sampled_zero_probability(state: Statevector, shots: int, rng: np.random.Generator) -> float:
    """All-zeros outcome frequency over `shots` draws from the full distribution."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = rng.multinomial(shots, _outcome_probabilities(state.amplitudes))
    return float(counts[0]) / shots
