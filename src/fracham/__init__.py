"""Variational solver for fractional Hamiltonian systems on the real line.

The package discretizes a family of fractional-order variational problems
with a parameter-penalized potential well, solves them by a numerical
min-max (mountain-pass) iteration, solves the limiting Dirichlet problem on
the well, and measures how the line solutions concentrate onto the interval
solution as the penalty parameter grows.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmbeddingViolation,
    FrachamError,
    GeometryError,
    MonotonicityError,
)
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .fracops import (
    BoundaryDecayWarning,
    check_boundary_decay,
    gl_matrix,
    gl_weights,
    interval_stiffness,
    liouville_weyl_left,
    lw_multiplier,
    quadratic_form_alpha,
)
from .spaces import (
    EmbeddingConstants,
    c_infinity_grid_sharp,
    estimate_embedding_constants,
    extremal_profile,
    inner_x_lambda,
    norm_h_alpha,
    norm_x_lambda,
    verify_embeddings,
)
from .problem import (
    NonlinearitySpec,
    PotentialSpec,
    calibrate_growth_constant,
    default_nonlinearity,
    default_oscillatory,
    default_potential,
    validate_nonlinearity,
    validate_potential,
)
from .functional import (
    IntervalProblemSpec,
    ProblemSpec,
    bvp_derivative_action,
    bvp_energy,
    bvp_h_identity,
    derivative_action,
    energy,
    gradient_rep,
    h_identity,
)
from .mpa import (
    MountainPassSetup,
    MpaConfig,
    SolveResult,
    bvp_solve,
    construct_e,
    ctilde_bound,
    estimate_rho_eta,
    mpa_solve,
)
from .runner import (
    SweepReport,
    bvp_el_residual,
    canonical_json,
    dist_h_alpha,
    embed_interval_solution,
    lambda_sweep,
    payload_hash,
    run_verification_campaign,
    tail_mass_ratio,
    write_report,
    write_solve_outputs,
)
from .config import DEFAULT_CONFIG, load_config

__version__ = "0.1.0"

__all__ = [
    "FrachamError",
    "DomainError",
    "ConfigError",
    "GeometryError",
    "ConvergenceError",
    "EmbeddingViolation",
    "MonotonicityError",
    "RealLineGrid",
    "IntervalGrid",
    "GridFunction",
    "lw_multiplier",
    "liouville_weyl_left",
    "quadratic_form_alpha",
    "gl_weights",
    "gl_matrix",
    "interval_stiffness",
    "check_boundary_decay",
    "BoundaryDecayWarning",
    "norm_h_alpha",
    "norm_x_lambda",
    "inner_x_lambda",
    "c_infinity_grid_sharp",
    "extremal_profile",
    "estimate_embedding_constants",
    "EmbeddingConstants",
    "verify_embeddings",
    "PotentialSpec",
    "NonlinearitySpec",
    "default_potential",
    "default_nonlinearity",
    "default_oscillatory",
    "validate_potential",
    "validate_nonlinearity",
    "calibrate_growth_constant",
    "ProblemSpec",
    "IntervalProblemSpec",
    "energy",
    "derivative_action",
    "gradient_rep",
    "h_identity",
    "bvp_energy",
    "bvp_derivative_action",
    "bvp_h_identity",
    "MpaConfig",
    "MountainPassSetup",
    "SolveResult",
    "estimate_rho_eta",
    "construct_e",
    "ctilde_bound",
    "mpa_solve",
    "bvp_solve",
    "SweepReport",
    "tail_mass_ratio",
    "embed_interval_solution",
    "dist_h_alpha",
    "bvp_el_residual",
    "lambda_sweep",
    "run_verification_campaign",
    "write_solve_outputs",
    "write_report",
    "canonical_json",
    "payload_hash",
    "DEFAULT_CONFIG",
    "load_config",
    "__version__",
]
