"""Benchmark ansaetze and the overlap/loss evaluators used by all estimators.

Two circuit families: a hardware-efficient RY+CNOT ladder for the Ising
benchmark, and a brick-wall circuit of two-qubit SO(4) blocks for the
Schwinger benchmark. The fidelity evaluator samples the overlap
|<psi(theta)|psi(theta')>|^2 for a reference state psi(theta) prepared once by
the caller, as the all-zeros frequency of the compute-uncompute state
U(theta')^dagger psi(theta); exact overlaps come from forward-state blocks
(`estimators.displacement_fidelity_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .simulator import (
    MAX_QUBITS,
    Circuit,
    Gate,
    _check_theta,
    apply_adjoint_circuit,
    apply_circuit,
    expectation,
    inverse_gates,
    sampled_expectation,
    sampled_zero_probability,
)
from .values import check_value

ANSATZ_KINDS = ("hardware_efficient", "schwinger_so4", "ry1")
BOND_ORDERS = ("even_first", "odd_first")


@dataclass(frozen=True)
class AnsatzKind:
    """Named ansatz family plus its size knobs; the one owner of their rules.

    bond_order only applies to schwinger_so4: it selects which brick-wall
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
        check_value("qubit_count", "int", self.qubit_count)
        check_value("layers", "int", self.layers)
        if self.kind == "ry1" and (self.qubit_count, self.layers) != (1, 1):
            raise ValueError(f"ry1 takes qubits = 1 and layers = 1, got {self.qubit_count} and {self.layers}")
        if self.kind != "ry1" and self.qubit_count < 2:
            raise ValueError(f"{self.kind} needs at least 2 qubits")
        if self.qubit_count > MAX_QUBITS:  # refused in Circuit's words, before a model of this size is built
            Circuit((), self.qubit_count, 0)
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.kind == "schwinger_so4" and self.qubit_count % 2 != 0:
            raise ValueError("schwinger_so4 needs an even qubit count")
        if self.bond_order not in BOND_ORDERS:
            raise ValueError(f"bond_order must be one of {BOND_ORDERS}, got {self.bond_order!r}")
        if self.kind != "schwinger_so4" and self.bond_order != "even_first":
            raise ValueError("bond_order only applies to schwinger_so4")


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
    AnsatzKind("hardware_efficient", n, layers)  # raises for a size it does not take
    gates = []
    p = 0
    for _ in range(layers):
        for q in range(n):
            gates.append(Gate("RY", (q,), p))
            p += 1
        for q in range(n - 1):
            gates.append(Gate("CNOT", (q, q + 1)))
    return Circuit(gates=tuple(gates), qubit_count=n, param_count=p)


def so4_block_gates(a: int, b: int, param_indices) -> list[Gate]:
    """Gate sequence for one SO(4) block on sites (a, b).

    The magic-basis change M (S, S, H, CNOT), then independent RZ-RX-RZ Euler
    rotations on each site, then M-dagger; takes exactly six parameter indices.
    Conjugating a pair of single-qubit SU(2) rotations by M yields a real
    orthogonal (det +1) two-qubit gate up to global phase.
    """
    p = list(param_indices)
    if len(p) != 6:
        raise ValueError(f"SO(4) block takes 6 parameters, got {len(p)}")
    magic = [Gate("S", (a,)), Gate("S", (b,)), Gate("H", (a,)), Gate("CNOT", (a, b))]
    rotations = [
        Gate("RZ", (a,), p[0]),
        Gate("RX", (a,), p[1]),
        Gate("RZ", (a,), p[2]),
        Gate("RZ", (b,), p[3]),
        Gate("RX", (b,), p[4]),
        Gate("RZ", (b,), p[5]),
    ]
    return magic + rotations + inverse_gates(magic)


def schwinger_ansatz(n: int, layers: int, bond_order: str = "even_first") -> Circuit:
    """Brick-wall SO(4) circuit on the staggered vacuum |0101...>.

    State preparation is an X gate on every odd site; each layer applies one
    SO(4) block per bond, even bonds (0,1), (2,3), ... before odd bonds
    (1,2), (3,4), ... (or the reverse for bond_order="odd_first");
    param_count = 6 * (n - 1) * layers. At shallow depth the two sublayer
    orders reach different state manifolds, so the order is exposed as a
    configuration choice.
    """
    AnsatzKind("schwinger_so4", n, layers, bond_order)  # raises for a size it does not take
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


def fidelity(
    circuit: Circuit,
    psi: np.ndarray,
    theta_prime,
    shots: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Shot-sampled overlap |<psi|psi(theta')>|^2 with a prepared reference state.

    `psi` is the reference state U(theta)|0>, prepared once by the caller. The
    value is the all-zeros frequency of the compute-uncompute state
    U(theta')^dag psi (doubled depth).
    """
    if rng is None:
        raise ValueError("sampled fidelity needs a random generator")
    return sampled_zero_probability(apply_adjoint_circuit(circuit, theta_prime, psi), shots, rng)


def energy(state, h: PauliSum, shots: int | None, rng: np.random.Generator | None) -> float:
    """<s|H|s> of a prepared state, exact or shot-sampled."""
    if shots is None:
        return expectation(state, h)
    if rng is None:
        raise ValueError("sampled loss needs a random generator")
    return sampled_expectation(state, h, shots, rng)


def loss(
    circuit: Circuit,
    h: PauliSum,
    theta,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Energy <0|U(theta)^dag H U(theta)|0>, exact or shot-sampled."""
    return energy(apply_circuit(circuit, _check_theta(circuit, theta)), h, shots, rng)  # rows of angles are refused
