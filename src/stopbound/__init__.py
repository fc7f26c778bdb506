"""Stopping boundaries of finite-horizon optimal stopping problems.

The boundary of a one-sided problem driven by Brownian motion is
characterized by a family of integral identities indexed by a kernel
parameter.  This package evaluates those identities, certifies upper/lower
envelopes around the boundary, solves for the boundary by penalized
residual minimization, and cross-checks everything against independent
lattice and Monte Carlo reference solutions.
"""

from .bounds import BoundaryEnvelope, initial_envelope, iterate, lower_step, upper_step
from .constants import (
    AsymptoticConstant,
    closed_form_moment,
    moment_integral,
    solve_B,
    stadje_alpha,
)
from .fredholm import (
    BoundaryGrid,
    CGrid,
    ResidualVector,
    closed_form_residual,
    objective,
    penalty,
    residual,
    segment_weights,
    verify_closed_form,
)
from .oracle import backward_induction, extract_d, mc_value, refined_boundary
from .problem import Problem, american_put, builtin, load_problem_file, remove_drift
from .solver import SolveReport, asymptotic_check, seed, solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AsymptoticConstant",
    "solve_B",
    "stadje_alpha",
    "moment_integral",
    "closed_form_moment",
    "Problem",
    "builtin",
    "american_put",
    "remove_drift",
    "load_problem_file",
    "BoundaryGrid",
    "CGrid",
    "ResidualVector",
    "segment_weights",
    "residual",
    "penalty",
    "objective",
    "verify_closed_form",
    "closed_form_residual",
    "BoundaryEnvelope",
    "initial_envelope",
    "lower_step",
    "upper_step",
    "iterate",
    "SolveReport",
    "seed",
    "solve",
    "asymptotic_check",
    "backward_induction",
    "extract_d",
    "refined_boundary",
    "mc_value",
]
