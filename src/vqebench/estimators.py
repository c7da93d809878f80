"""Stochastic and exact first/second-order estimators.

Simultaneous-perturbation (Rademacher) gradient and Hessian estimators,
Gaussian-smoothing Stein-identity gradient/Hessian estimators, the metric
estimators built from them, the parameter-shift metric, and the exact metric and
gradient (a derivative block) or gradient alone (an adjoint sweep), to rounding.

All stochastic Hessian-family estimators draw standard-normal perturbation
vectors u and displace parameters by c*u, so their target is the Hessian of
the c-smoothed function and their bias relative to the unsmoothed Hessian
vanishes as O(c^2). The generalized-covariance scale b that appears in some
hyperparameter sets does not change the perturbation law here; it is only
validated and recorded in the run configuration.

Each estimator builds its displaced parameter rows as one (B, d) array,
queries its oracle once with them, and combines the B values with array code.
The ten stochastic estimators share the signature (f, theta, c, samples, rng).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import energy, fidelity  # fidelity is not called here: the benchmark tracer wraps this binding
from .pauli import PauliSum
from .simulator import (
    Circuit,
    _check_theta,
    apply_circuit,
    derivative_states,
    require_one_gate_per_parameter,
    sampled_zero_probability,
)
from .values import check_value


class RowOracle:
    """Callable from a (B, d) array of parameter rows to B real values; `calls` counts the rows it answered."""

    def __init__(self, fn):
        self._fn = fn
        self.calls = 0

    def __call__(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"oracle takes a (B, d) array of rows, got shape {rows.shape}")
        values = np.asarray(self._fn(rows), dtype=float).reshape(len(rows))
        self.calls += len(rows)
        return values


@dataclass
class MetricEstimate:
    """Symmetric d x d metric estimate plus its circuit counts.

    raw_evals counts actual overlap-circuit queries; charged_evals counts
    them under the per-sample convention in which the shared base evaluation
    is charged once per sample (2 per sample for the two-evaluation Stein
    estimator, 3 for the three-evaluation one, 4 for the SPSA estimator).
    """

    matrix: np.ndarray
    raw_evals: int
    charged_evals: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("metric estimate has non-finite entries")
        if not np.array_equal(m, m.T):
            raise ValueError("metric estimate must be exactly symmetric")
        self.matrix = m


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _checked(theta, c: float, samples: int) -> np.ndarray:
    """theta as a float vector, once c and samples pass the config's rules for them."""
    check_value("c", "float", c)
    check_value("samples", "int", samples)
    return np.asarray(theta, dtype=float)


def _plus_minus_rows(theta: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Rows theta + s, theta - s for each row s of `steps`, interleaved."""
    return (theta + np.stack([steps, -steps], axis=1)).reshape(-1, len(theta))


def spsa_gradient(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate.

    Mean over `samples` Rademacher draws Delta of
    [f(theta + c*Delta) - f(theta - c*Delta)] / (2c) * Delta.
    Consumes 2 * samples oracle rows.
    """
    theta = _checked(theta, c, samples)
    deltas = rng.integers(0, 2, size=(samples, theta.size)) * 2.0 - 1.0
    values = f(_plus_minus_rows(theta, c * deltas)).reshape(samples, 2)
    diff = values[:, 0] - values[:, 1]
    return (diff[:, None] / (2.0 * c) * deltas).sum(axis=0) / samples


def spsa2_hessian(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Four-point simultaneous-perturbation Hessian estimate.

    Per sample, two independent Rademacher vectors Delta1, Delta2 and the
    second difference
      df = f(theta + c*Delta1 + c*Delta2) - f(theta + c*Delta1)
         - f(theta - c*Delta1 + c*Delta2) + f(theta - c*Delta1)
    give df / (2 c^2) * sym(Delta1 Delta2^T). Consumes 4 * samples rows.
    """
    theta = _checked(theta, c, samples)
    d = theta.size
    d1 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    d2 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    # The four rows per sample in the docstring's order, (theta +- c*Delta1) + c*Delta2
    # associated as written there so each row is bit for bit the formula's.
    plus_minus = _plus_minus_rows(theta, c * d1).reshape(samples, 2, d)
    rows = np.stack([plus_minus + (c * d2)[:, None], plus_minus], axis=2)
    values = f(rows.reshape(-1, d)).reshape(samples, 4)
    df = values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]
    signed = (df / (2.0 * c * c))[:, None] * d1
    # One Hessian column per pass: O(samples * d) memory, not O(samples * d^2).
    hess = np.stack([(signed * column[:, None]).sum(axis=0) for column in d2.T], axis=1)
    return _symmetrize(hess / samples)


def stein_gradient_1eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Single-evaluation smoothed-gradient estimate: mean of f(theta + c*u) * u / c."""
    theta = _checked(theta, c, samples)
    u = rng.standard_normal((samples, theta.size))
    return (f(theta + c * u) @ u) / (c * samples)


def stein_gradient_2eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-evaluation smoothed-gradient estimate.

    Mean over standard-normal draws u of
    [f(theta + c*u) - f(theta - c*u)] / (2c) * u. Consumes 2 * samples rows.
    """
    theta = _checked(theta, c, samples)
    u = rng.standard_normal((samples, theta.size))
    values = f(_plus_minus_rows(theta, c * u)).reshape(samples, 2)
    return ((values[:, 0] - values[:, 1]) @ u) / (2.0 * c * samples)


def _weighted_outer_mean(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mean over samples of w_i * (u_i u_i^T - I)."""
    m = np.einsum("i,ij,ik->jk", weights, u, u) / len(weights)
    return m - weights.mean() * np.eye(u.shape[1])


def stein_hessian_1eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Single-evaluation smoothed-Hessian estimate: mean of f(theta + c*u)(u u^T - I)/c^2."""
    theta = _checked(theta, c, samples)
    u = rng.standard_normal((samples, theta.size))
    return _symmetrize(_weighted_outer_mean(f(theta + c * u) / (c * c), u))


def stein_hessian_2eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-evaluation smoothed-Hessian estimate.

    The base value f(theta), the first row, is shared across samples:
    mean of [f(theta + c*u) - f(theta)] (u u^T - I) / c^2,
    consuming samples + 1 oracle rows.
    """
    theta = _checked(theta, c, samples)
    u = rng.standard_normal((samples, theta.size))
    values = f(np.vstack([theta, theta + c * u]))
    return _symmetrize(_weighted_outer_mean((values[1:] - values[0]) / (c * c), u))


def stein_hessian_3eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Three-evaluation (symmetric-difference) smoothed-Hessian estimate.

    Mean of [f(theta + c*u) + f(theta - c*u) - 2 f(theta)] (u u^T - I) / (2 c^2)
    with the base value, the first row, shared, consuming 2 * samples + 1 rows.
    """
    theta = _checked(theta, c, samples)
    u = rng.standard_normal((samples, theta.size))
    values = f(np.vstack([theta, _plus_minus_rows(theta, c * u)]))
    pairs = values[1:].reshape(samples, 2)
    second = pairs[:, 0] + pairs[:, 1] - 2.0 * values[0]
    return _symmetrize(_weighted_outer_mean(second / (2.0 * c * c), u))


def stein_metric_2eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> MetricEstimate:
    """Two-evaluation Stein estimate of the state-overlap metric tensor.

    `f` maps displacement rows delta to |<psi(theta)|psi(theta + delta)>|^2;
    the zero-displacement overlap is evaluated once through the same circuit
    (1 to rounding in exact simulation, but counted). The metric is -1/2
    times the smoothed Hessian of the overlap:

      F = -1/(2 c^2 N) * sum_i [f(c u_i) - f(0)] (u_i u_i^T - I)

    Raw cost N + 1 overlap queries; charged cost 2 per sample.
    """
    hess = stein_hessian_2eval(f, np.zeros(len(theta)), c, samples, rng)
    return MetricEstimate(-0.5 * hess, raw_evals=samples + 1, charged_evals=2 * samples)


def stein_metric_3eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> MetricEstimate:
    """Three-evaluation Stein estimate of the state-overlap metric tensor.

      F = -1/(4 c^2 N) * sum_i [f(c u_i) + f(-c u_i) - 2 f(0)] (u_i u_i^T - I)

    Raw cost 2N + 1 overlap queries; charged cost 3 per sample.
    """
    hess = stein_hessian_3eval(f, np.zeros(len(theta)), c, samples, rng)
    return MetricEstimate(-0.5 * hess, raw_evals=2 * samples + 1, charged_evals=3 * samples)


def spsa_metric(f, theta, c: float, samples: int, rng: np.random.Generator) -> MetricEstimate:
    """Simultaneous-perturbation estimate of the metric tensor.

    -1/2 times the four-point Hessian estimate of the overlap at zero
    displacement; 4 overlap queries per sample, two Rademacher vectors.
    """
    hess = spsa2_hessian(f, np.zeros(len(theta)), c, samples, rng)
    return MetricEstimate(-0.5 * hess, raw_evals=4 * samples, charged_evals=4 * samples)


def _state_blocks(circuit: Circuit, rows: np.ndarray, reference=None):
    """The states U(row)|0...0> of a (B, d) array of angle rows, in passes of at most 64 KiB of states (one row at
    n >= 12); given a reference psi, the states U(row)^dag psi, each block one adjoint-plan pass over copies of psi."""
    block = max(1, 4096 >> circuit.qubit_count)
    blocks = (rows[i : i + block] for i in range(0, len(rows), block))
    if reference is None:
        return (apply_circuit(circuit, r) for r in blocks)
    return (circuit._adjoint_plan.run(np.broadcast_to(reference, (len(r), 2**circuit.qubit_count)), -r) for r in blocks)


def loss_oracle(circuit: Circuit, h: PauliSum, shots: int | None, rng: np.random.Generator | None) -> RowOracle:
    """Oracle from parameter rows to their losses: each row's `energy`, in row order, from state blocks."""
    return RowOracle(lambda rows: [energy(s, h, shots, rng) for states in _state_blocks(circuit, rows) for s in states])


def displacement_fidelity_oracle(
    circuit: Circuit,
    theta,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
    psi: np.ndarray | None = None,
) -> RowOracle:
    """Oracle from displacement rows delta to |<psi(theta)|psi(theta + delta)>|^2.

    psi(theta) is prepared once, here, unless the caller passes the one it prepared from theta; rows of
    a width other than d are refused before any pass or draw. Sampled, the compute-uncompute state blocks
    draw each row's all-zeros frequency in row order: a per-row `fidelity` loop's values and draws.
    Exact, each state block gives one `vecdot` against psi and the per-row formula's `abs`, clamped to 1.
    """
    theta = _check_theta(circuit, theta)
    psi = apply_circuit(circuit, theta) if psi is None else psi
    if shots is not None and rng is None:
        raise ValueError("sampled fidelity needs a random generator")

    def overlaps(deltas):
        points = theta + _check_theta(circuit, deltas, rows=True)
        if shots is not None:
            return [sampled_zero_probability(s, shots, rng) for b in _state_blocks(circuit, points, psi) for s in b]
        # min(value, 1.0) keeps a NaN overlap NaN
        return [
            min(float(abs(v) ** 2), 1.0) for states in _state_blocks(circuit, points) for v in np.vecdot(psi, states)
        ]

    return RowOracle(overlaps)


def parameter_shift_metric(
    circuit: Circuit,
    theta,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> MetricEstimate:
    """Metric tensor from overlap evaluations at +-pi/2 parameter shifts.

    Valid when every parameterized gate is a Pauli rotation and each parameter
    index drives one gate; a shared index raises ValueError. For each index
    pair (j1, j2) with j1 <= j2, the four-point combination

      1/4 [ fid((e1+e2) pi/2) - fid((e1-e2) pi/2)
          - fid((-e1+e2) pi/2) + fid(-(e1+e2) pi/2) ]

    is exactly the overlap's second derivative d_i d_j fid(0), and the metric
    entry is -1/2 of it. Total cost 4 * d(d+1)/2 = 2 d(d+1) overlap
    evaluations, exploiting symmetry.
    """
    require_one_gate_per_parameter(circuit)
    d = len(theta)
    fid = displacement_fidelity_oracle(circuit, theta, shots=shots, rng=rng)
    j1, j2 = np.triu_indices(d)
    e1, e2 = np.eye(d)[j1], np.eye(d)[j2]
    shifts = np.stack([e1 + e2, e1 - e2, -e1 + e2, -(e1 + e2)], axis=1) * (np.pi / 2.0)
    values = fid(shifts.reshape(-1, d)).reshape(-1, 4)
    second_deriv = (values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]) / 4.0
    matrix = np.zeros((d, d))
    matrix[j1, j2] = matrix[j2, j1] = -0.5 * second_deriv
    return MetricEstimate(matrix, raw_evals=fid.calls, charged_evals=fid.calls)


def _block_metric(block: np.ndarray) -> MetricEstimate:
    berry = block[1:].conj() @ block[0]
    matrix = np.real(block[1:].conj() @ block[1:].T - np.outer(berry, berry.conj()))
    return MetricEstimate(_symmetrize(matrix), raw_evals=0, charged_evals=0)


def exact_metric(circuit: Circuit, theta) -> MetricEstimate:
    """Exact metric tensor from analytic derivative states, exact to rounding.

    F_ij = Re[ <d_i psi | d_j psi> - <d_i psi | psi><psi | d_j psi> ]
    with psi and every d_i psi from one `derivative_states` pass; also exact
    when a parameter drives several gates. Consumes no measured circuits.
    """
    return _block_metric(derivative_states(circuit, theta))


def _h_psi(circuit: Circuit, h: PauliSum, psi: np.ndarray) -> np.ndarray:
    if h.qubit_count != circuit.qubit_count:
        raise ValueError(f"Hamiltonian on {h.qubit_count} qubits, circuit on {circuit.qubit_count}")
    return np.array([0.0 if t.is_identity else t.coefficient for t in h.terms]) @ h.apply_terms(psi)


def exact_gradient(circuit: Circuit, h: PauliSum, theta, psi=None) -> np.ndarray:
    """Exact loss gradient 2 Re <d_i psi|H|psi> from one adjoint sweep over [psi, H psi], psi = U(theta)|0> if None."""
    psi, grad = (apply_circuit(circuit, theta) if psi is None else psi), np.zeros(circuit.param_count)
    circuit._adjoint_plan.run(np.stack([psi, _h_psi(circuit, h, psi)]), -_check_theta(circuit, theta), sweep=grad)
    return grad


def exact_gradient_and_metric(circuit: Circuit, h: PauliSum, theta) -> tuple[np.ndarray, MetricEstimate]:
    """`exact_gradient` and `exact_metric` from one derivative block (QNG's pass; GD takes the sweep)."""
    block = derivative_states(circuit, theta)
    return 2.0 * np.real(block[1:].conj() @ _h_psi(circuit, h, block[0])), _block_metric(block)
