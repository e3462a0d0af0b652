"""Variational solver for fractional Hamiltonian systems on the real line.

The package discretizes a family of fractional-order variational problems
with a parameter-penalized potential well, solves them by a numerical
min-max (mountain-pass) iteration, solves the limiting Dirichlet problem on
the well, and measures how the line solutions concentrate onto the interval
solution as the penalty parameter grows.

The package namespace holds the names the README's "Library use" section
documents; everything else is imported from the module that defines it.
"""

from .grids import GridFunction, IntervalGrid, RealLineGrid
from .fracops import liouville_weyl_left, quadratic_form_alpha
from .spaces import estimate_embedding_constants, norm_x_lambda, verify_embeddings
from .problem import (
    default_nonlinearity,
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
from .mpa import MpaConfig, bvp_solve, construct_e, ctilde_bound, estimate_rho_eta, mpa_solve
from .runner import (
    bvp_el_residual,
    dist_h_alpha,
    lambda_sweep,
    run_verification_campaign,
    tail_mass_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "RealLineGrid", "IntervalGrid", "GridFunction",
    "liouville_weyl_left", "quadratic_form_alpha",
    "estimate_embedding_constants", "norm_x_lambda", "verify_embeddings",
    "default_potential", "default_nonlinearity", "validate_potential", "validate_nonlinearity",
    "ProblemSpec", "IntervalProblemSpec",
    "energy", "derivative_action", "gradient_rep", "h_identity",
    "bvp_energy", "bvp_derivative_action", "bvp_h_identity",
    "MpaConfig", "estimate_rho_eta", "construct_e", "ctilde_bound", "mpa_solve", "bvp_solve",
    "tail_mass_ratio", "dist_h_alpha", "bvp_el_residual", "lambda_sweep",
    "run_verification_campaign",
]
