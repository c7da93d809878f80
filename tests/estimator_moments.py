"""Closed-form per-sample variances of the metric estimators on a quadratic overlap.

On f(delta) = 1 - delta^T F delta every metric estimator's sample is exact in c:
  - Stein (2 or 3 evaluations): X = q (u u^T - I) / 2, q = u^T F u, u standard normal;
  - SPSA: X = p sym(D1 D2^T), p = D1^T F D2, D1 and D2 independent Rademacher vectors.
Both are unbiased, E[X] = F, so the per-sample variance E||X - F||_F^2 is the
second moment E||X||_F^2 minus ||F||_F^2.
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
