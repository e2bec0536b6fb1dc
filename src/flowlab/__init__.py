"""flowlab: a stochastic-flow density laboratory.

Simulates Ito SDEs with non-degenerate diffusion and rough drift, accumulates
the explicit Radon-Nikodym weight of the Gaussian reference measure along the
flow, and checks the resulting quantitative bounds (L^p norm, entropy budget,
occupation estimate, coupling limit, Fokker-Planck consistency) at desk scale.
"""

from .coefficients import (
    CoefficientField,
    RegularizationLevel,
    builtin_coefficients,
    cutoff,
    regularize,
    regularize_drift,
    regularize_sigma,
    time_mollifier,
    validate_hypotheses,
)
from .convergence import SpaceTimeBox, coupling_convergence, krylov_ratio, krylov_ratios
from .density import (
    BoundBudget,
    budget_constants,
    entropy_estimate,
    lp_norm_estimate,
    mass_estimate,
    pushforward_logK,
    run_density_ensemble,
    theorem_bound_rhs,
    time_threshold,
)
from .errors import (
    BoundUnavailableError,
    CapabilityError,
    ConfigError,
    EvaluationError,
    ExplosionError,
    FlowLabError,
    OracleMismatchError,
    SolverFailureError,
)
from .fokker_planck import FPGrid, density_factorization, diffusion_matrix, fp_solve, mc_flows, mc_measure, weak_error
from .gaussian import (
    GaussianQuadrature,
    default_quadrature,
    gauss_expectation,
    ou_smooth,
)
from .oracle_gate import oracle_suite
from .sde import FlowEnsemble, simulate_ensemble

__version__ = "0.1.0"
