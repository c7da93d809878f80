"""Dense reference matrices that tests compare the compiled kernels against."""

import numpy as np

from vqebench.ansatz import so4_block_gates
from vqebench.simulator import _compile

# Site 0 is the leftmost tensor factor (most significant bit of the basis
# index). All tests assert this convention.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_matrix(axes: str) -> np.ndarray:
    """Dense matrix of one unweighted Pauli string."""
    m = PAULI_MATRICES[axes[0]]
    for a in axes[1:]:
        m = np.kron(m, PAULI_MATRICES[a])
    return m


def so4_gate(alpha) -> np.ndarray:
    """4x4 matrix of one SO(4) block for six rotation angles."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (6,):
        raise ValueError(f"SO(4) gate takes 6 parameters, got shape {alpha.shape}")
    # Row j of the block starts as basis state j and ends as column j of U.
    return _compile(2, so4_block_gates(0, 1, range(6))).run(np.eye(4), alpha).T
