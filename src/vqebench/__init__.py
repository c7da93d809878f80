"""Variational-quantum-optimization benchmark workbench.

Dense statevector VQE simulation with stochastic metric-tensor estimators
(simultaneous-perturbation and Gaussian-smoothing Stein families), quantum
natural-gradient optimizers, and a deterministic benchmark harness for the
transverse-field Ising and lattice Schwinger models.
"""

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
    blocking_check,
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
