"""Two-dimensional nonlinear oscillator with position-dependent mass.

Exact bound-state spectra and wavefunctions via the parametric
Nikiforov-Uvarov reduction, plus canonical thermodynamics of the truncated
state sum evaluated by three mutually validating strategies.
"""

__version__ = "0.1.0"

from .nu import (
    NegativeDiscriminantError,
    NUCoefficients,
    NUProblem,
    NUSolution,
    build_solution,
    derive_coefficients,
    find_roots_by_scan,
    quantization_residual,
    tau_prime,
)
from .oscillator import (
    DomainError,
    NonNormalizableError,
    NonPhysicalError,
    QuantumState,
    RadialWavefunction,
    SystemParams,
    energy,
    make_state,
    mass,
    nu_instance,
    ode_residual,
    radial_overlap,
    radial_wavefunction,
    solve_energy,
    total_wavefunction,
)
from .specfun import (
    DegreeOverflowError,
    IntegrationError,
    JacobiParams,
    PoleError,
    QuadratureResult,
    QuadratureSpec,
    central_diff,
    erf,
    erfcx,
    five_point_stencil,
    hyp2f1_terminating,
    integrate,
    jacobi_p,
)
from .thermo import (
    PaperZCoefficients,
    PlateauResult,
    Strategy,
    StrategyComparison,
    ThermoInput,
    ThermoResult,
    ThermoSeries,
    average_energy,
    compare_strategies,
    entropy,
    evaluate,
    find_heat_capacity_plateau,
    free_energy,
    heat_capacity,
    levels,
    paper_z_coefficients,
    partition_direct,
    partition_paper,
    partition_poisson_independent,
    sweep,
)

__all__ = [
    "__version__",
    # specfun
    "JacobiParams", "QuadratureSpec", "QuadratureResult",
    "DegreeOverflowError", "PoleError", "IntegrationError",
    "erf", "erfcx", "jacobi_p", "hyp2f1_terminating", "integrate",
    "five_point_stencil", "central_diff",
    # nu
    "NUProblem", "NUCoefficients", "NUSolution", "NegativeDiscriminantError",
    "derive_coefficients", "tau_prime", "quantization_residual", "build_solution",
    "find_roots_by_scan",
    # oscillator
    "SystemParams", "QuantumState", "RadialWavefunction",
    "DomainError", "NonPhysicalError", "NonNormalizableError",
    "energy", "make_state", "mass", "nu_instance", "radial_wavefunction",
    "ode_residual", "total_wavefunction", "radial_overlap", "solve_energy",
    # thermo
    "Strategy", "ThermoInput", "ThermoResult", "ThermoSeries", "PaperZCoefficients",
    "StrategyComparison", "PlateauResult",
    "levels", "partition_direct", "paper_z_coefficients", "partition_paper",
    "partition_poisson_independent", "average_energy", "heat_capacity",
    "free_energy", "entropy", "evaluate", "compare_strategies",
    "find_heat_capacity_plateau", "sweep",
]
