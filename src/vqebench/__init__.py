"""Variational-quantum-optimization benchmark workbench.

Dense statevector VQE simulation with stochastic metric-tensor estimators
(simultaneous-perturbation and Gaussian-smoothing Stein families), quantum
natural-gradient optimizers, and a deterministic benchmark harness for the
transverse-field Ising and lattice Schwinger models.
"""

import os

# One BLAS thread per process unless the caller set one, before numpy loads BLAS:
# run_benchmark forks a worker per CPU, and a BLAS pool per CPU in each worker
# oversubscribes the machine. The exact ground energy's last digits also depend
# on this count (README, "Install and test").
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .ansatz import (
    AnsatzKind,
    build_ansatz,
    fidelity,
    hardware_efficient,
    loss,
    schwinger_ansatz,
    single_qubit_ry,
)
from .bench import (
    BenchmarkResult,
    ConfigError,
    RunConfig,
    emit_csv,
    parse_config,
    preset_config,
    run_benchmark,
    serialize_config,
)
from .estimators import (
    MetricEstimate,
    RowOracle,
    displacement_fidelity_oracle,
    exact_gradient,
    exact_gradient_and_metric,
    exact_metric,
    parameter_shift_metric,
    spsa2_hessian,
    spsa_gradient,
    spsa_metric,
    stein_gradient_1eval,
    stein_gradient_2eval,
    stein_hessian_1eval,
    stein_hessian_2eval,
    stein_hessian_3eval,
    stein_metric_2eval,
    stein_metric_3eval,
)
from .optimizers import (
    OPTIMIZER_KINDS,
    OptimizerConfig,
    Problem,
    RunRecord,
    RunResult,
    average_metric,
    natural_step,
    regularize_metric,
    run,
    step,
)
from .pauli import (
    PauliString,
    PauliSum,
    build_schwinger,
    build_tfim,
    exact_ground_energy,
    tfim_ground_energy,
    to_dense,
)
from .simulator import (
    Circuit,
    Gate,
    apply_adjoint_circuit,
    apply_circuit,
    circuit_to_text,
    expectation,
    sampled_expectation,
    sampled_zero_probability,
)

__version__ = "0.1.0"
