"""Exact moments of the metric estimators.

Closed-form per-sample variances on a quadratic overlap. On f(delta) = 1 - delta^T F delta
every metric estimator's sample is exact in c:
  - Stein (2 or 3 evaluations): X = q (u u^T - I) / 2, q = u^T F u, u standard normal;
  - SPSA: X = p sym(D1 D2^T), p = D1^T F D2, D1 and D2 independent Rademacher vectors.
Both are unbiased, E[X] = F, so the per-sample variance E||X - F||_F^2 is the
second moment E||X||_F^2 minus ||F||_F^2.

Exact expected values on a circuit whose every parameter drives one Pauli rotation. Its
overlap f is a trigonometric polynomial of degree 1 in each displacement, so its Hessian
is the +-pi/2 shift rule's, and Gaussian smoothing at scale c acts on each coordinate as
  S_j f(x) = w(0) f(x) + w(1) (f(x + pi/2 e_j) + f(x - pi/2 e_j)), w(0) = exp(-c^2/2),
  w(+-1) = (1 - w(0)) / 2.
By Stein's identity both Stein metrics have the expectation -1/2 Hess(S_c f)(0); SPSA's is
the mean over its 4^d sign patterns. Both are exact to rounding, at 3^d and 4^d stencils.
"""

import itertools
from functools import reduce

import numpy as np


def _cycles(perm):
    """The cycles of a permutation of range(len(perm)), each a list of indices."""
    seen, cycles = set(), []
    for first in range(len(perm)):
        if first in seen:
            continue
        cycle, k = [], first
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = perm[k]
        cycles.append(cycle)
    return cycles


def gaussian_quadratic_form_moment(mats) -> float:
    """E[prod_k u^T A_k u] for u standard normal and symmetric A_k: the sum over
    permutations of the k's of the product over each permutation's cycles of
    2^(len - 1) tr(product of the cycle's matrices)."""
    total = 0.0
    for perm in itertools.permutations(range(len(mats))):
        term = 1.0
        for cycle in _cycles(perm):
            term *= 2.0 ** (len(cycle) - 1) * np.trace(reduce(np.matmul, (mats[k] for k in cycle)))
        total += term
    return float(total)


def rademacher_quadratic_form_moment(a, b) -> float:
    """E[(x^T A x)(x^T B x)] for x a Rademacher vector and symmetric A, B:
    tr A tr B + 2 tr(AB) - 2 sum_i A_ii B_ii (x_i^4 = 1, where a Gaussian has 3)."""
    return float(np.trace(a) * np.trace(b) + 2.0 * np.trace(a @ b) - 2.0 * np.diag(a) @ np.diag(b))


def stein_metric_variance(f) -> float:
    """Per-sample variance of the Stein metric. With s = ||u||^2,
    ||u u^T - I||_F^2 = s^2 - 2s + d, so E||X||^2 = (E[q^2 s^2] - 2 E[q^2 s] + d E[q^2]) / 4."""
    eye = np.eye(len(f))
    second = (
        gaussian_quadratic_form_moment([f, f, eye, eye])
        - 2.0 * gaussian_quadratic_form_moment([f, f, eye])
        + len(f) * gaussian_quadratic_form_moment([f, f])
    ) / 4.0
    return second - float(np.sum(f * f))


def spsa_metric_variance(f) -> float:
    """Per-sample variance of the SPSA metric. With t = D1^T D2 and ||D||^2 = d,
    ||sym(D1 D2^T)||_F^2 = (d^2 + t^2) / 2, so E||X||^2 = (d^2 E[p^2] + E[p^2 t^2]) / 2.
    E[p^2] = ||F||^2, and given D1 = a, p and t are linear in D2, so
    E[p^2 t^2 | a] = (d - 2) a^T F^2 a + 2 (a^T F a)^2."""
    d = len(f)
    frobenius = float(np.sum(f * f))
    p2t2 = (d - 2) * np.trace(f @ f) + 2.0 * rademacher_quadratic_form_moment(f, f)
    return (d * d * frobenius + p2t2) / 2.0 - frobenius


def shift_rule_hessian(f, points) -> np.ndarray:
    """The Hessians of f at each row of a (P, d) array of points by the +-pi/2 shift rule,
    from one call of f, a RowOracle: entry (i, j) is
    [f(x + pi/2 (e_i + e_j)) - f(x + pi/2 (e_i - e_j)) - f(x - pi/2 (e_i - e_j))
    + f(x - pi/2 (e_i + e_j))] / 4, its diagonal the shift by pi."""
    count, d = points.shape
    j1, j2 = np.triu_indices(d)
    e1, e2 = np.eye(d)[j1], np.eye(d)[j2]
    shifts = np.stack([e1 + e2, e1 - e2, -e1 + e2, -(e1 + e2)], axis=1) * (np.pi / 2.0)
    values = f((points[:, None, None, :] + shifts).reshape(-1, d)).reshape(count, -1, 4)
    second = (values[..., 0] - values[..., 1] - values[..., 2] + values[..., 3]) / 4.0
    hessians = np.zeros((count, d, d))
    hessians[:, j1, j2] = hessians[:, j2, j1] = second
    return hessians


def stein_metric_expectation(f, d: int, c: float) -> np.ndarray:
    """E of the two- and three-evaluation Stein metrics: -1/2 times the sum over s in
    {-1, 0, 1}^d of prod_j w(s_j) Hess f(pi s / 2)."""
    s = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
    w0 = np.exp(-c * c / 2.0)
    weights = np.where(s == 0.0, w0, -np.expm1(-c * c / 2.0) / 2.0).prod(axis=1)
    return -0.5 * np.einsum("p,pij->ij", weights, shift_rule_hessian(f, s * (np.pi / 2.0)))


def spsa_metric_expectation(f, d: int, c: float) -> np.ndarray:
    """E of the SPSA metric: the mean over every pair (D1, D2) of sign vectors of
    -1/2 df / (2 c^2) sym(D1 D2^T), with df = f(c D1 + c D2) - f(c D1) - f(-c D1 + c D2) + f(-c D1)."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    d1, d2 = np.repeat(signs, len(signs), axis=0), np.tile(signs, (len(signs), 1))
    rows = np.stack([c * d1 + c * d2, c * d1, -c * d1 + c * d2, -c * d1], axis=1)
    values = f(rows.reshape(-1, d)).reshape(-1, 4)
    df = values[:, 0] - values[:, 1] - values[:, 2] + values[:, 3]
    hessian = np.einsum("p,pi,pj->ij", df, d1, d2) / (2.0 * c * c * len(df))
    return -0.5 * (hessian + hessian.T) / 2.0
