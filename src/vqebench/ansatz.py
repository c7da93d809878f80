"""Benchmark ansaetze and the overlap/loss evaluators used by all estimators.

Two circuit families: a hardware-efficient RY+CNOT ladder for the Ising
benchmark, and a brick-wall circuit of two-qubit SO(4) blocks for the
Schwinger benchmark. The fidelity evaluator implements the compute-uncompute
overlap |<psi(theta)|psi(theta')>|^2 as the all-zeros probability of
U(theta')^dagger U(theta) |0>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .simulator import (
    Circuit,
    Gate,
    _apply_gates,
    apply_adjoint_circuit,
    apply_circuit,
    expectation,
    sampled_expectation,
    sampled_zero_probability,
    zero_probability,
)

ANSATZ_KINDS = ("hardware_efficient", "schwinger_so4", "ry1")
BOND_ORDERS = ("even_first", "odd_first")


@dataclass(frozen=True)
class AnsatzKind:
    """Named ansatz family plus its size knobs.

    bond_order only affects schwinger_so4: it selects which brick-wall
    sublayer comes first within a layer. The two orders have the same gate
    and parameter counts but span different state manifolds at low depth.
    """

    kind: str
    qubit_count: int
    layers: int
    bond_order: str = "even_first"

    def __post_init__(self):
        if self.kind not in ANSATZ_KINDS:
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if self.kind != "ry1" and self.qubit_count < 2:
            raise ValueError(f"{self.kind} needs at least 2 qubits")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.kind == "schwinger_so4" and self.qubit_count % 2 != 0:
            raise ValueError("schwinger_so4 needs an even qubit count")
        if self.bond_order not in BOND_ORDERS:
            raise ValueError(f"bond_order must be one of {BOND_ORDERS}, got {self.bond_order!r}")


def build_ansatz(spec: AnsatzKind) -> Circuit:
    if spec.kind == "hardware_efficient":
        return hardware_efficient(spec.qubit_count, spec.layers)
    if spec.kind == "schwinger_so4":
        return schwinger_ansatz(spec.qubit_count, spec.layers, spec.bond_order)
    return single_qubit_ry()


def single_qubit_ry() -> Circuit:
    """One RY rotation on one qubit; the d=1 calibration circuit."""
    return Circuit(gates=(Gate("RY", (0,), 0),), qubit_count=1, param_count=1)


def hardware_efficient(n: int, layers: int) -> Circuit:
    """RY rotation layer followed by a linear CNOT chain, repeated.

    Each layer holds one parameterized RY per qubit and CNOTs i -> i+1 for
    i = 0..n-2; no trailing rotation layer, so param_count = n * layers.
    """
    if n < 2:
        raise ValueError("hardware_efficient needs at least 2 qubits")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    gates = []
    p = 0
    for _ in range(layers):
        for q in range(n):
            gates.append(Gate("RY", (q,), p))
            p += 1
        for q in range(n - 1):
            gates.append(Gate("CNOT", (q, q + 1)))
    return Circuit(gates=tuple(gates), qubit_count=n, param_count=p)


# Magic-basis change M built from S, S-dagger, H, and CNOT. Conjugating a
# pair of single-qubit SU(2) rotations by M yields a real orthogonal
# (det +1) two-qubit gate up to global phase.
def _magic_basis_gates(a: int, b: int) -> list[Gate]:
    return [Gate("S", (a,)), Gate("S", (b,)), Gate("H", (a,)), Gate("CNOT", (a, b))]


def _magic_basis_adjoint_gates(a: int, b: int) -> list[Gate]:
    return [Gate("CNOT", (a, b)), Gate("H", (a,)), Gate("Sdg", (b,)), Gate("Sdg", (a,))]


def so4_block_gates(a: int, b: int, param_indices) -> list[Gate]:
    """Gate sequence for one SO(4) block on sites (a, b).

    M followed by independent RZ-RX-RZ Euler rotations on each site, followed
    by M-dagger; takes exactly six parameter indices.
    """
    p = list(param_indices)
    if len(p) != 6:
        raise ValueError(f"SO(4) block takes 6 parameters, got {len(p)}")
    gates = _magic_basis_gates(a, b)
    gates += [
        Gate("RZ", (a,), p[0]),
        Gate("RX", (a,), p[1]),
        Gate("RZ", (a,), p[2]),
        Gate("RZ", (b,), p[3]),
        Gate("RX", (b,), p[4]),
        Gate("RZ", (b,), p[5]),
    ]
    gates += _magic_basis_adjoint_gates(a, b)
    return gates


def so4_gate(alpha) -> np.ndarray:
    """4x4 matrix of one SO(4) block for six rotation angles."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (6,):
        raise ValueError(f"SO(4) gate takes 6 parameters, got shape {alpha.shape}")
    # Row j of the block starts as basis state j and ends as column j of U.
    block = np.eye(4, dtype=complex)
    _apply_gates(block, 2, so4_block_gates(0, 1, range(6)), alpha)
    return block.T


def schwinger_ansatz(n: int, layers: int, bond_order: str = "even_first") -> Circuit:
    """Brick-wall SO(4) circuit on the staggered vacuum |0101...>.

    State preparation is an X gate on every odd site; each layer applies one
    SO(4) block per bond, even bonds (0,1), (2,3), ... before odd bonds
    (1,2), (3,4), ... (or the reverse for bond_order="odd_first");
    param_count = 6 * (n - 1) * layers. At shallow depth the two sublayer
    orders reach different state manifolds, so the order is exposed as a
    configuration choice.
    """
    if n < 2:
        raise ValueError("schwinger_so4 needs at least 2 qubits")
    if n % 2 != 0:
        raise ValueError("schwinger_so4 needs an even qubit count")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if bond_order not in BOND_ORDERS:
        raise ValueError(f"bond_order must be one of {BOND_ORDERS}, got {bond_order!r}")
    gates = [Gate("X", (q,)) for q in range(1, n, 2)]
    p = 0
    even = [(q, q + 1) for q in range(0, n - 1, 2)]
    odd = [(q, q + 1) for q in range(1, n - 1, 2)]
    bonds = even + odd if bond_order == "even_first" else odd + even
    for _ in range(layers):
        for a, b in bonds:
            gates += so4_block_gates(a, b, range(p, p + 6))
            p += 6
    return Circuit(gates=tuple(gates), qubit_count=n, param_count=p)


@dataclass(frozen=True)
class FidelityQuery:
    """Overlap query |<psi(theta)|psi(theta_prime)>|^2 for one circuit."""

    circuit: Circuit
    theta: np.ndarray
    theta_prime: np.ndarray
    shots: int | None = None


def fidelity(query: FidelityQuery, rng: np.random.Generator | None = None) -> float:
    """Compute-uncompute overlap: all-zeros probability of U(theta')^dag U(theta)|0>.

    Exact when query.shots is None, otherwise estimated from `shots` draws.
    The overlap circuit keeps the register width and doubles the depth. The
    result is clamped into [0, 1]; for identical parameter vectors the exact
    mode returns 1.0 exactly (self-overlap of a normalized state) instead of
    the rounding residue of the simulated round trip.
    """
    theta = np.asarray(query.theta, dtype=float)
    theta_prime = np.asarray(query.theta_prime, dtype=float)
    if query.shots is None and np.array_equal(theta, theta_prime):
        return 1.0
    state = apply_circuit(query.circuit, theta)
    state = apply_adjoint_circuit(query.circuit, theta_prime, state)
    if query.shots is None:
        return min(1.0, max(0.0, zero_probability(state)))
    if rng is None:
        raise ValueError("sampled fidelity needs a random generator")
    return sampled_zero_probability(state, query.shots, rng)


def loss(
    circuit: Circuit,
    h: PauliSum,
    theta,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Energy <0|U(theta)^dag H U(theta)|0>, exact or shot-sampled."""
    state = apply_circuit(circuit, theta)
    if shots is None:
        return expectation(state, h)
    if rng is None:
        raise ValueError("sampled loss needs a random generator")
    return sampled_expectation(state, h, shots, rng)
