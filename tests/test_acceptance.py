"""Acceptance suite: one test per release criterion, each printing a PASS line.
The statistical criteria (1, 2, 3, 7 and 8) also print their statistic and its
bound before they assert.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria use
frozen seeds, so outcomes are deterministic. The two desk-scale benchmark
criteria (7 and 8) each run a published preset, shrunk with
`dataclasses.replace`, through `bench.run_benchmark`, whose process pool
VQEBENCH_WORKERS caps (1 runs the grid serially, in-process).
"""

import os
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

import vqebench.bench as bench
from vqebench.ansatz import hardware_efficient, single_qubit_ry
from vqebench.estimators import (
    RowOracle,
    displacement_fidelity_oracle,
    exact_metric,
    parameter_shift_metric,
    spsa2_hessian,
    spsa_metric,
    stein_hessian_1eval,
    stein_hessian_2eval,
    stein_hessian_3eval,
    stein_metric_2eval,
    stein_metric_3eval,
)
from vqebench.optimizers import OptimizerConfig, regularize_metric, run
from vqebench.pauli import (
    build_schwinger,
    build_tfim,
    exact_ground_energy,
    to_dense,
)

from dense_reference import pauli_string_matrix
from estimator_moments import stein_metric_expectation

SCHWINGER_4_GROUND = 0.20639550666515885  # dense-diagonalization fixture


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_hessian_estimators_unbiased():
    """All four Hessian estimators match the analytic Hessian of a quadratic
    within 5 empirical standard errors elementwise at N = 1e5."""
    d = 4
    rng_a = np.random.default_rng(2024)
    a = rng_a.uniform(-1, 1, (d, d))
    a = (a + a.T) / 2
    theta0 = np.zeros(d)
    c = 0.1
    batches, batch_size = 20, 5000  # 1e5 samples total

    estimators = {
        "2spsa": spsa2_hessian,
        "stein1": stein_hessian_1eval,
        "stein2": stein_hessian_2eval,
        "stein3": stein_hessian_3eval,
    }
    for name, estimator in estimators.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        f = RowOracle(lambda rows: 0.5 * np.einsum("bi,ij,bj->b", rows, a, rows))
        stack = np.array(
            [estimator(f, theta0, c, batch_size, rng) for _ in range(batches)]
        )
        mean = stack.mean(axis=0)
        se = stack.std(axis=0, ddof=1) / np.sqrt(batches)
        print(f"\ncriterion 1: {name} max |mean - a| / se = {float(np.max(np.abs(mean - a) / se))} (bound 5)")
        assert np.all(np.abs(mean - a) <= 5 * se + 1e-12), name
    _report(1, "Hessian-estimator unbiasedness")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_metric_estimators_single_qubit():
    """Stochastic metric estimators within 0.02 of the analytic value 1/4 at
    N = 1e5 (c = 0.01); parameter-shift and exact within 1e-8."""
    circuit = single_qubit_ry()
    theta = np.array([0.3])
    c, samples = 0.01, 100_000

    m2 = stein_metric_2eval(
        displacement_fidelity_oracle(circuit, theta), theta, c, samples, np.random.default_rng(101)
    )
    m3 = stein_metric_3eval(
        displacement_fidelity_oracle(circuit, theta), theta, c, samples, np.random.default_rng(102)
    )
    ms = spsa_metric(
        displacement_fidelity_oracle(circuit, theta), theta, 0.01, 100_000, np.random.default_rng(103)
    )
    gaps = {name: float(abs(m.matrix[0, 0] - 0.25)) for name, m in (("stein2", m2), ("stein3", m3), ("spsa", ms))}
    print(f"\ncriterion 2: max |F - 1/4| = {max(gaps.values())} (bound 0.02); per estimator {gaps}")
    assert abs(m2.matrix[0, 0] - 0.25) < 0.02
    assert abs(m3.matrix[0, 0] - 0.25) < 0.02
    assert abs(ms.matrix[0, 0] - 0.25) < 0.02
    assert abs(parameter_shift_metric(circuit, theta).matrix[0, 0] - 0.25) < 1e-8
    assert abs(exact_metric(circuit, theta).matrix[0, 0] - 0.25) < 1e-8
    _report(2, "metric-estimator correctness")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_bias_and_variance_scaling():
    """Three-evaluation metric bias scales as O(c^2) (successive ratios in
    [2, 8]); two-evaluation elementwise std scales as O(N^-1/2)."""
    circuit = hardware_efficient(2, 1)
    theta = np.random.default_rng(11).uniform(-np.pi, np.pi, 2)

    # Bias: common perturbation draws across c values (exact-mode estimators
    # consume only the u batch, so a fresh generator with one seed reproduces
    # them), differenced against a near-zero reference c to cancel the
    # Monte-Carlo noise shared by all c values.
    samples, seed, c_ref = 100_000, 314159, 0.005

    def mean_estimate(c):
        fid = displacement_fidelity_oracle(circuit, theta)
        return stein_metric_3eval(fid, theta, c, samples, np.random.default_rng(seed)).matrix

    reference = mean_estimate(c_ref)
    bias = {c: np.max(np.abs(mean_estimate(c) - reference)) for c in (0.2, 0.1, 0.05)}
    r1 = bias[0.2] / bias[0.1]
    r2 = bias[0.1] / bias[0.05]
    print(f"\ncriterion 3: bias ratios {float(r1)} and {float(r2)} (bounds [2, 8])")
    # The same ratios from the exact expectations against the exact metric: no
    # Monte Carlo noise and no finite reference c.
    fid, exact = displacement_fidelity_oracle(circuit, theta), exact_metric(circuit, theta).matrix
    exact_bias = {c: np.max(np.abs(stein_metric_expectation(fid, 2, c) - exact)) for c in (0.2, 0.1, 0.05)}
    exact_ratios = (exact_bias[0.2] / exact_bias[0.1], exact_bias[0.1] / exact_bias[0.05])
    print(f"criterion 3: exact bias ratios {float(exact_ratios[0])} and {float(exact_ratios[1])}")
    assert 2.0 <= r1 <= 8.0, (bias, r1)
    assert 2.0 <= r2 <= 8.0, (bias, r2)

    # Monte-Carlo error: repeated two-evaluation estimates per sample count.
    rng = np.random.default_rng(271828)
    sizes = (100, 1000, 10_000)
    repeats = (60, 40, 25)
    stds = []
    for n, reps in zip(sizes, repeats):
        stack = np.array(
            [
                stein_metric_2eval(
                    displacement_fidelity_oracle(circuit, theta), theta, 0.05, n, rng
                ).matrix
                for _ in range(reps)
            ]
        )
        stds.append(stack.std(axis=0, ddof=1).mean())
    slope = np.polyfit(np.log10(sizes), np.log10(stds), 1)[0]
    print(f"criterion 3: std slope in N {float(slope)} (bounds [-0.65, -0.35])")
    assert -0.65 <= slope <= -0.35, (stds, slope)
    _report(3, "bias O(c^2) and std O(N^-1/2) scaling")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_circuit_count_accounting():
    """Charged evaluations per step and sample are exactly QNSPSA 6,
    QNSTEIN2 4, QNSTEIN3 5, SPSA 2, STEIN 2, as integers."""
    problem = bench.build_problem(replace(bench.preset_config("tfim-fig2"), sizes=(2,), layers=1), 2)
    per_sample = {"QNSPSA": 6, "QNSTEIN2": 4, "QNSTEIN3": 5, "SPSA": 2, "STEIN": 2}
    for n in (1, 5, 10):
        config = OptimizerConfig(samples=n, shots=32, blocking=False, max_steps=2)
        for kind, expected in per_sample.items():
            records = run(kind, problem, config, seed=0).records
            for k, rec in enumerate(records):
                assert rec.circuits_charged == expected * n * k, (kind, n, k)
    _report(4, "circuit-count accounting")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_exact_ground_energies():
    """Benchmark Hamiltonians match closed forms and unexpanded operators."""
    assert abs(exact_ground_energy(build_tfim(2, -1.0, -2.0)) + np.sqrt(17)) < 1e-10

    # n = 2: expanded Pauli form vs the unexpanded dense operator.
    x, mu, l = 1.0, 0.5, 0.0
    expanded = to_dense(build_schwinger(2, x, mu, l))
    direct = (
        (x / 2) * (pauli_string_matrix("XX") + pauli_string_matrix("YY"))
        + (mu / 2) * (np.eye(4) + pauli_string_matrix("ZI"))
        + (mu / 2) * (np.eye(4) - pauli_string_matrix("IZ"))
        + (0.5 * pauli_string_matrix("ZI")) @ (0.5 * pauli_string_matrix("ZI"))
    )
    assert np.max(np.abs(expanded - direct)) < 1e-10

    # n = 4: full spectrum vs a term-by-term dense construction.
    h4 = build_schwinger(4, x, mu, l)
    dense = np.zeros((16, 16), dtype=complex)
    for term in h4.terms:
        dense += term.coefficient * pauli_string_matrix(term.axes)
    assert np.max(np.abs(np.linalg.eigvalsh(dense) - np.linalg.eigvalsh(to_dense(h4)))) < 1e-10
    assert abs(exact_ground_energy(h4) - SCHWINGER_4_GROUND) < 1e-10
    _report(5, "exact ground energies")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_regularization_contract():
    """Regularized metrics are symmetric with min eigenvalue >= beta/(1+beta)."""
    rng = np.random.default_rng(60)
    for beta in (1e-2, 1e-1):
        for _ in range(500):
            m = rng.normal(size=(10, 10))
            m = (m + m.T) / 2
            out = regularize_metric(m, beta)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out).min() >= beta / (1 + beta) - 1e-10
    _report(6, "regularization contract")


# -- 7 ----------------------------------------------------------------------


def _error_at_budget(records, budget):
    err = records[0].energy_error
    for rec in records:
        if rec.circuits_charged <= budget:
            err = rec.energy_error
        else:
            break
    return err


def test_criterion_7_desk_scale_orderings(tmp_path):
    """Scaled-down Ising benchmark reproduces the published orderings:
    natural-gradient Stein optimizers beat the first-order Stein optimizer on
    median final error, and QNSTEIN2 is at or below QNSPSA at matched circuit
    budget over the final quartile."""
    kinds = ("STEIN", "QNSPSA", "QNSTEIN2", "QNSTEIN3")
    preset = bench.preset_config("tfim-fig2")
    cfg = replace(
        preset, sizes=(6,), layers=2, seeds=tuple(range(10)), out_dir=str(tmp_path),
        optimizer=replace(preset.optimizer, max_steps=150),
        optimizers=tuple(entry for entry in preset.optimizers if entry.label in kinds),
    )
    result = bench.run_benchmark(cfg)
    assert result.failures == 0
    records = {k: [r.records for r in result.runs[bench.GridKey(6, k)]] for k in kinds}

    # Diagnostic only: final errors are bimodal (a mode near 2.4 is a local
    # minimum of this landscape), so each kind's count of runs in the high mode
    # is printed beside the medians. The 1.0 threshold was fixed before any
    # count was seen.
    stuck = {k: sum(recs[-1].energy_error > 1.0 for recs in records[k]) for k in kinds}
    print(f"\ncriterion 7: runs ending with energy error > 1.0, of {len(cfg.seeds)}: {stuck}")

    finals = {k: np.median([recs[-1].energy_error for recs in records[k]]) for k in kinds}
    assert finals["QNSTEIN2"] <= finals["STEIN"], finals
    assert finals["QNSTEIN3"] <= finals["STEIN"], finals

    budget_max = min(recs[-1].circuits_charged for k in ("QNSTEIN2", "QNSPSA") for recs in records[k])
    budgets = np.linspace(0.75 * budget_max, budget_max, 20)
    med2, medq = (
        np.array([np.median([_error_at_budget(recs, b) for recs in records[k]]) for b in budgets])
        for k in ("QNSTEIN2", "QNSPSA")
    )
    # Diagnostic only: the matched-budget headroom, printed before it is asserted.
    i = np.argmin(medq - med2)
    print(
        f"criterion 7: smallest QNSPSA - QNSTEIN2 median error over {len(budgets)} budgets: "
        f"{medq[i] - med2[i]:.4g} at budget {budgets[i]:.0f} (QNSTEIN2 {med2[i]:.4g}, QNSPSA {medq[i]:.4g})"
    )
    for budget, m2, mq in zip(budgets, med2, medq):
        assert m2 <= mq + 1e-9, (budget, m2, mq)
    _report(7, "desk-scale benchmark orderings")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_schwinger_qng_existence(tmp_path):
    """Exact-mode natural gradient reaches energy error < 1e-2 on the n = 4,
    single-layer SO(4) ansatz for at least 7 of 10 seeds (hyperparameters
    eta = 0.1, beta = 0.1 and the odd-bond-first sublayer order were fixed by
    the oracle pilot; the even-first order has an expressivity floor of
    ~2.02e-2 at this depth)."""
    preset = bench.preset_config("schwinger-fig5")
    # The preset's QNG entry carries beta = 0.1.
    cfg = replace(
        preset, sizes=(4,), layers=1, bond_order="odd_first", seeds=tuple(range(10)), out_dir=str(tmp_path),
        optimizer=replace(preset.optimizer, eta=0.1, shots=None, blocking=False, max_steps=300),
        optimizers=tuple(entry for entry in preset.optimizers if entry.label == "QNG"),
    )
    runs = bench.run_benchmark(cfg).runs[bench.GridKey(4, "QNG")]
    errors = [r.records[-1].energy_error for r in runs]
    converged = sum(err < 1e-2 for err in errors)
    print(f"\ncriterion 8: {converged} of {len(errors)} runs reach energy error < 1e-2 (bound 7)")
    assert converged >= 7, errors
    _report(8, "Schwinger natural-gradient existence check")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_benchmark_determinism(tmp_path):
    """Equal seeds and config produce byte-identical CSV output."""
    config_text = f"""
[problem]
kind = tfim
qubits = 2, 3
J = -1.0
h = -2.0

[ansatz]
kind = hardware_efficient
layers = 1

[optimizer]
kinds = SPSA, QNSTEIN2, QNG
eta = 0.01
samples = 3
shots = 128
max_steps = 5
blocking = true

[run]
seeds = 0, 1, 2
out = {tmp_path}
"""
    cfg = bench.parse_config(config_text)
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        result = bench.run_benchmark(cfg)
        paths = bench.emit_csv(result, str(out))
        blobs.append({os.path.basename(p): Path(p).read_bytes() for p in paths})
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) == 12  # 3 optimizers x 2 sizes x (run + aggregate)
    _report(9, "benchmark determinism")
