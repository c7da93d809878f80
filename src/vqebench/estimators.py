"""Stochastic and exact first/second-order estimators.

Simultaneous-perturbation (Rademacher) gradient and Hessian estimators,
Gaussian-smoothing Stein-identity gradient/Hessian estimators, the metric
estimators built from them, the parameter-shift metric, and the exact metric
from analytic derivative states, exact to rounding.

All stochastic Hessian-family estimators draw standard-normal perturbation
vectors u and displace parameters by c*u, so their target is the Hessian of
the c-smoothed function and their bias relative to the unsmoothed Hessian
vanishes as O(c^2). The generalized-covariance scale b that appears in some
hyperparameter sets does not change the perturbation law here; it is carried
through into estimate metadata so runs remain auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import fidelity
# Nothing here calls apply_circuit; the binding is kept because the traced
# benchmark run (benchmarks/spans.py) wraps estimators.apply_circuit.
from .simulator import (  # noqa: F401
    Circuit,
    apply_circuit,
    derivative_states,
    require_one_gate_per_parameter,
)


@dataclass(frozen=True)
class SmoothingParams:
    """Displacement scale c, covariance scale b, and resampling count."""

    c: float
    b: float
    samples: int

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.b <= 0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


class ScalarOracle:
    """Callable from a parameter vector to a real value, with a call counter."""

    def __init__(self, fn):
        self._fn = fn
        self.calls = 0

    def __call__(self, theta) -> float:
        self.calls += 1
        return float(self._fn(theta))


@dataclass
class MetricEstimate:
    """Symmetric d x d metric estimate plus provenance metadata.

    raw_evals counts actual overlap-circuit queries; charged_evals counts
    them under the per-sample convention in which the shared base evaluation
    is charged once per sample (2 per sample for the two-evaluation Stein
    estimator, 3 for the three-evaluation one, 4 for the SPSA estimator).
    """

    matrix: np.ndarray
    kind: str
    smoothing: SmoothingParams | None
    raw_evals: int
    charged_evals: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"metric must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("metric estimate must be exactly symmetric")
        if not np.all(np.isfinite(m)):
            raise ValueError("metric estimate has non-finite entries")
        self.matrix = m


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _as_theta(theta) -> np.ndarray:
    return np.asarray(theta, dtype=float)


def spsa_gradient(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate.

    Mean over `samples` Rademacher draws Delta of
    [f(theta + c*Delta) - f(theta - c*Delta)] / (2c) * Delta.
    Consumes 2 * samples oracle calls.
    """
    theta = _as_theta(theta)
    d = theta.size
    deltas = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    grad = np.zeros(d)
    for delta in deltas:
        diff = f(theta + c * delta) - f(theta - c * delta)
        grad += diff / (2.0 * c) * delta
    return grad / samples


def spsa2_hessian(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Four-point simultaneous-perturbation Hessian estimate.

    Per sample, two independent Rademacher vectors Delta1, Delta2 and the
    second difference
      df = f(theta + c*Delta1 + c*Delta2) - f(theta + c*Delta1)
         - f(theta - c*Delta1 + c*Delta2) + f(theta - c*Delta1)
    give df / (2 c^2) * sym(Delta1 Delta2^T). Consumes 4 * samples calls.
    """
    theta = _as_theta(theta)
    d = theta.size
    d1 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    d2 = rng.integers(0, 2, size=(samples, d)) * 2.0 - 1.0
    hess = np.zeros((d, d))
    for delta1, delta2 in zip(d1, d2):
        df = (
            f(theta + c * delta1 + c * delta2)
            - f(theta + c * delta1)
            - f(theta - c * delta1 + c * delta2)
            + f(theta - c * delta1)
        )
        hess += df / (2.0 * c * c) * np.outer(delta1, delta2)
    return _symmetrize(hess / samples)


def stein_gradient_1eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Single-evaluation smoothed-gradient estimate: mean of f(theta + c*u) * u / c."""
    theta = _as_theta(theta)
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) for ui in u])
    return (vals @ u) / (c * samples)


def stein_gradient_2eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-evaluation smoothed-gradient estimate.

    Mean over standard-normal draws u of
    [f(theta + c*u) - f(theta - c*u)] / (2c) * u. Consumes 2 * samples calls.
    """
    theta = _as_theta(theta)
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) - f(theta - c * ui) for ui in u])
    return (vals @ u) / (2.0 * c * samples)


def _weighted_outer_mean(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mean over samples of w_i * (u_i u_i^T - I)."""
    m = np.einsum("i,ij,ik->jk", weights, u, u) / len(weights)
    return m - weights.mean() * np.eye(u.shape[1])


def stein_hessian_1eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Single-evaluation smoothed-Hessian estimate: mean of f(theta + c*u)(u u^T - I)/c^2."""
    theta = _as_theta(theta)
    u = rng.standard_normal((samples, len(theta)))
    vals = np.array([f(theta + c * ui) for ui in u])
    return _symmetrize(_weighted_outer_mean(vals / (c * c), u))


def stein_hessian_2eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Two-evaluation smoothed-Hessian estimate.

    The base value f(theta) is evaluated once and shared across samples:
    mean of [f(theta + c*u) - f(theta)] (u u^T - I) / c^2,
    consuming samples + 1 oracle calls.
    """
    theta = _as_theta(theta)
    u = rng.standard_normal((samples, len(theta)))
    f0 = f(theta)
    vals = np.array([f(theta + c * ui) - f0 for ui in u])
    return _symmetrize(_weighted_outer_mean(vals / (c * c), u))


def stein_hessian_3eval(f, theta, c: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Three-evaluation (symmetric-difference) smoothed-Hessian estimate.

    Mean of [f(theta + c*u) + f(theta - c*u) - 2 f(theta)] (u u^T - I) / (2 c^2)
    with the base value shared, consuming 2 * samples + 1 oracle calls.
    """
    theta = _as_theta(theta)
    u = rng.standard_normal((samples, len(theta)))
    f0 = f(theta)
    vals = np.array([f(theta + c * ui) + f(theta - c * ui) - 2.0 * f0 for ui in u])
    return _symmetrize(_weighted_outer_mean(vals / (2.0 * c * c), u))


def stein_metric_2eval(fid, theta, params: SmoothingParams, rng: np.random.Generator) -> MetricEstimate:
    """Two-evaluation Stein estimate of the state-overlap metric tensor.

    `fid` maps a displacement delta to |<psi(theta)|psi(theta + delta)>|^2;
    the zero-displacement overlap is evaluated once through the same circuit
    (exactly 1 in simulation, but counted). The metric is -1/2 times the
    smoothed Hessian of the overlap:

      F = -1/(2 c^2 N) * sum_i [fid(c u_i) - fid(0)] (u_i u_i^T - I)

    Raw cost N + 1 overlap queries; charged cost 2 per sample.
    """
    hess = stein_hessian_2eval(fid, np.zeros(len(theta)), params.c, params.samples, rng)
    return MetricEstimate(
        matrix=-0.5 * hess,
        kind="stein2",
        smoothing=params,
        raw_evals=params.samples + 1,
        charged_evals=2 * params.samples,
    )


def stein_metric_3eval(fid, theta, params: SmoothingParams, rng: np.random.Generator) -> MetricEstimate:
    """Three-evaluation Stein estimate of the state-overlap metric tensor.

      F = -1/(4 c^2 N) * sum_i [fid(c u_i) + fid(-c u_i) - 2 fid(0)] (u_i u_i^T - I)

    Raw cost 2N + 1 overlap queries; charged cost 3 per sample.
    """
    hess = stein_hessian_3eval(fid, np.zeros(len(theta)), params.c, params.samples, rng)
    return MetricEstimate(
        matrix=-0.5 * hess,
        kind="stein3",
        smoothing=params,
        raw_evals=2 * params.samples + 1,
        charged_evals=3 * params.samples,
    )


def spsa_metric(fid, theta, c: float, samples: int, rng: np.random.Generator) -> MetricEstimate:
    """Simultaneous-perturbation estimate of the metric tensor.

    -1/2 times the four-point Hessian estimate of the overlap at zero
    displacement; 4 overlap queries per sample, two Rademacher vectors.
    """
    hess = spsa2_hessian(fid, np.zeros(len(theta)), c, samples, rng)
    return MetricEstimate(
        matrix=-0.5 * hess,
        kind="spsa",
        smoothing=SmoothingParams(c=c, b=c, samples=samples),
        raw_evals=4 * samples,
        charged_evals=4 * samples,
    )


def displacement_fidelity_oracle(
    circuit: Circuit,
    theta,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> ScalarOracle:
    """Oracle delta -> |<psi(theta)|psi(theta + delta)>|^2 with a call counter."""
    theta = _as_theta(theta)

    def fid(delta):
        return fidelity(circuit, theta, theta + delta, shots=shots, rng=rng)

    return ScalarOracle(fid)


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
    theta = _as_theta(theta)
    d = len(theta)
    fid = displacement_fidelity_oracle(circuit, theta, shots=shots, rng=rng)
    half_pi = np.pi / 2.0
    matrix = np.zeros((d, d))
    eye = np.eye(d)
    for j1 in range(d):
        for j2 in range(j1, d):
            e1, e2 = eye[j1], eye[j2]
            second_deriv = (
                fid((e1 + e2) * half_pi)
                - fid((e1 - e2) * half_pi)
                - fid((-e1 + e2) * half_pi)
                + fid(-(e1 + e2) * half_pi)
            ) / 4.0
            matrix[j1, j2] = -0.5 * second_deriv
            matrix[j2, j1] = matrix[j1, j2]
    return MetricEstimate(
        matrix=matrix,
        kind="parameter_shift",
        smoothing=None,
        raw_evals=fid.calls,
        charged_evals=fid.calls,
    )


def exact_metric(circuit: Circuit, theta) -> MetricEstimate:
    """Exact metric tensor from analytic derivative states, exact to rounding.

    F_ij = Re[ <d_i psi | d_j psi> - <d_i psi | psi><psi | d_j psi> ]
    with psi and every d_i psi from one `derivative_states` pass; also exact
    when a parameter drives several gates. Consumes no measured circuits.
    """
    block = derivative_states(circuit, theta)
    psi, derivs = block[0], block[1:]
    gram = derivs.conj() @ derivs.T
    berry = derivs.conj() @ psi
    matrix = np.real(gram - np.outer(berry, berry.conj()))
    return MetricEstimate(
        matrix=_symmetrize(matrix),
        kind="exact",
        smoothing=None,
        raw_evals=0,
        charged_evals=0,
    )
