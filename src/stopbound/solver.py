"""Boundary solver: penalized residual minimization over monotone grids.

The discrete objective is minimized by a sweep-polish schedule.

Sweeps are projected cyclic coordinate descent: each interior node is
minimized over the interval allowed by the envelope and by its monotone
neighbours (coarse scan plus golden-section refinement), and a move is
accepted only when it does not increase the objective, so the objective
trace is non-increasing by construction.

Descent alone converges slowly and parks at a seed-dependent point of the
zero-residual set: with more nodes than kernel parameters that set is a
manifold, not a point.  A least-squares polish therefore minimizes the
stacked system

    [ residuals (scale-normalized) ;
      weak pull toward the small-y asymptote  -B * y**2 ;
      weak second-difference smoothness term ]

over the box ``(-t_max, 0)``, which selects the smooth representative of
the zero set; the regularizer weights are small enough not to bias the
residuals away from zero at the achievable tolerance.  The polish is a
bounded Levenberg--Marquardt method on the normal equations
(:func:`least_squares`): each trial step is one Cholesky solve of an
N x N system, whose regularizer block is formed once per polish.  The
polished values are projected back into the envelope and onto the
monotone cone.

The schedule first polishes the seed, before any sweep (step 0), then
polishes from the current descent iterate after sweeps 1, 2, 4, 8, ...,
when descent stalls and when the sweep budget runs out.  Descent only
gives the polish a starting point: the seed's polish usually meets the
bound, and then no sweep runs.  The first polished point whose normalized
residual ``max|R| / max|lap|`` is at or below :data:`RESIDUAL_TOLERANCE`
is the solution.  A polished point above it is discarded and descent
continues from its own iterate: from a poor start (the seed, or too short
a descent) the polish can land on a spurious point of the objective,
whose residual sits one to two orders of magnitude above the true
boundary's.  ``converged`` is reported only for a point that meets the
residual bound (see :class:`SolveReport`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import _kernels
from .bounds import BoundaryEnvelope, _default_t_max
from .constants import solve_B
from .fredholm import BoundaryGrid, CGrid, ResidualVector
from .problem import Problem

__all__ = [
    "SolveReport",
    "NotConvergedError",
    "InsufficientDataError",
    "seed",
    "solve",
    "asymptotic_check",
]

_SEED_MODES = ("asymptotic", "envelope_midpoint")

# A polished boundary is accepted when its normalized residual
# max|R| / max|lap| is at or below this bound.  For `linear` and puts with
# theta <= 0.5, on grids from 12 x 8 to 60 x 40, the polished boundary
# measures 4e-5 to 3e-4 at 24 nodes and more and at most 2.6e-3 below; the
# spurious points a polish reaches from too short a descent measure 1.9e-2
# to 9e-2.
RESIDUAL_TOLERANCE = 5e-3
# Descent stalls on a sweep that lowers the objective by less than this.
VALUE_TOLERANCE = 1e-10
# Points of the coarse scan that starts each node's line search in a sweep.
SCAN_POINTS = 25
# Descent also stalls on a sweep that moves no node by this much.
COORDINATE_TOLERANCE = 1e-7
# Coordinate-descent sweeps before a solve ends on its budget.
MAX_SWEEPS = 500


class NotConvergedError(RuntimeError):
    """An operation requiring a converged solve received an unconverged one."""


class InsufficientDataError(ValueError):
    """Too few usable nodes for the requested fit."""


@dataclass
class SolveReport:
    """Solved grid with the optimization trace, final residuals and how it stopped.

    ``converged`` holds exactly when a polished point whose normalized
    residual ``max_residual`` is at or below :data:`RESIDUAL_TOLERANCE` was
    accepted (``convergence_reason`` is ``residual_bound``).  ``stalled``
    means descent stalled and the polish there missed the bound; ``budget``
    means the :data:`MAX_SWEEPS` sweeps ran out first.
    ``descent_exhausted`` records that descent used every sweep of its
    budget without stalling.  ``polish_status`` and ``polish_nfev`` are the
    least-squares status and function-evaluation count of the accepted
    polish (``None`` when none was accepted).  ``prior_B`` is the small-y
    coefficient ``B`` of the asymptotic prior ``-B * y**2`` that pulled the
    polish (and seeded the solve in ``asymptotic`` mode), so a caller need
    not solve for it again.

    ``iterations`` counts the sweeps run: 0 when the seed's polish was
    accepted.  ``objective_trace`` holds the surrogate objective (on the
    scale-normalized residuals) of the seed, then after each sweep, then of
    the accepted polish when that is lower; it never increases.
    """

    grid: BoundaryGrid
    objective_trace: List[float]
    residual_vector: ResidualVector
    iterations: int
    converged: bool
    max_residual: float = math.nan
    convergence_reason: str = "budget"
    descent_exhausted: bool = False
    polish_status: Optional[int] = None
    polish_nfev: Optional[int] = None
    prior_B: Optional[float] = None

    @property
    def objective(self) -> float:
        return self.residual_vector.objective


def _monotone_down(v: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(v)


def _asymptotic_values(
    p: Problem, envelope: BoundaryEnvelope, B: Optional[float] = None
) -> np.ndarray:
    """``-B * y**2`` clamped into the envelope, ``B`` solved for when not given."""
    if B is None:
        B = solve_B(p.beta, p.m_ratio).B
    y = envelope.lower.nodes
    vals = np.clip(-B * y * y, envelope.lower.values, envelope.upper.values)
    return _monotone_down(vals)


def seed(
    p: Problem, envelope: BoundaryEnvelope, seed_mode: str = "asymptotic"
) -> BoundaryGrid:
    """Initial boundary grid inside the envelope.

    ``asymptotic`` mode clamps ``-B * y**2`` (with ``B`` from the problem's
    local payoff power) into the envelope; ``envelope_midpoint`` takes the
    pointwise midpoint.  Any other mode raises ``ValueError``.
    """
    prior = _asymptotic_values(p, envelope) if seed_mode == "asymptotic" else None
    return _seed_from(envelope, seed_mode, prior)


def _seed_from(
    envelope: BoundaryEnvelope, seed_mode: str, prior: Optional[np.ndarray]
) -> BoundaryGrid:
    """:func:`seed` with the ``asymptotic`` values ``prior`` already computed."""
    if seed_mode == "asymptotic":
        vals = prior
    elif seed_mode == "envelope_midpoint":
        vals = 0.5 * (envelope.lower.values + envelope.upper.values)
    else:
        raise ValueError(f"seed_mode must be one of {_SEED_MODES}")
    return envelope.lower.with_values(_monotone_down(np.minimum(vals, 0.0)))


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of :func:`least_squares`.

    ``status`` follows SciPy's trust-region solver: 0 means ``max_nfev`` ran
    out; 1, 2 and 3 mean the ``gtol``, ``ftol`` and ``xtol`` test held, 4
    that both the ``ftol`` and the ``xtol`` test held.  ``cost`` is half the
    sum of squares at ``x``; ``nfev`` counts evaluations of ``fun``.
    """

    x: np.ndarray
    cost: float
    status: int
    nfev: int


# Geodesic acceleration (Transtrum & Sethna 2012): the probe's step as a
# fraction of the velocity, and the largest accepted ratio 2 |a| / |v| of
# acceleration to velocity.  Their suggested 0.1 and 0.75 take 1.2 to 2.6
# times as many evaluations on the polishes at 30 x 15.
_GEODESIC_H = 0.3
_GEODESIC_ALPHA = 1.5


def _termination(dF, F, step_norm, x_norm, ratio, ftol, xtol) -> Optional[int]:
    """SciPy's ``ftol``/``xtol`` test on one trial step: status 2, 3, 4 or None."""
    f_ok = dF < ftol * F and ratio > 0.25
    x_ok = step_norm < xtol * (xtol + x_norm)
    if f_ok and x_ok:
        return 4
    if f_ok:
        return 2
    if x_ok:
        return 3
    return None


def least_squares(
    fun, x0, jac, bounds, linear, *, xtol, ftol, gtol, max_nfev
) -> LeastSquaresResult:
    """Bounded Levenberg--Marquardt on the normal equations.

    Minimizes half the sum of squares of the rows ``fun(x)`` (Jacobian
    ``jac(x)``) stacked on the linear rows ``A @ x - b`` of
    ``linear=(A, b)``, over the box ``bounds=(lower, upper)``.  ``AᵀA`` is
    formed once; each iteration forms ``JᵀJ`` of the nonlinear rows, and
    each trial factors one N x N matrix by Cholesky (Moré 1978):

        K = JᵀJ + AᵀA + diag(|g| / v) + mu * diag(D**2)

    over the free variables, where ``g`` is the gradient and ``D`` the
    running maximum of the Jacobian's column norms (MINPACK's scaling).

    * Bounds: a variable at a bound whose gradient points out of the box is
      held fixed, and each point is projected onto the box.  ``v`` is each
      variable's distance to the bound that ``-g`` points at, so
      ``|g| / v`` is Coleman and Li's (1996) diagonal: it shortens a step
      toward a nearby bound, so that a step from a poor start does not
      throw variables onto the bound.  Without it, 5 of 88 solves (`linear`
      and three puts on grids from 12 x 8 to 60 x 40, 2 and 3 envelope
      iterations, both seeds), all seeded at the envelope midpoint, polish
      into a spurious point and need one more sweep.
    * Step: the velocity ``K vel = -g`` plus half the geodesic acceleration
      ``K acc = -Jᵀ r_vv`` (Transtrum & Sethna 2012), where ``r_vv`` is the
      second directional derivative of ``fun`` along the velocity, taken
      by a finite difference from one more evaluation of ``fun`` at
      ``P(x + 0.3 vel)``.  The correction follows the curved, narrow
      valleys of the polish: without it the seed's polish of the put
      (1, 0.5) at 120 x 60 spends all 2000 evaluations creeping along one.
      A trial with ``2 |acc| > 1.5 |vel|`` is rejected.
    * Globalization: a trial point whose cost is not lower is rejected and
      ``mu`` grows by doubling factors.  As ``mu`` grows, the velocity tends
      to the scaled steepest-descent step on the free variables and the
      acceleration vanishes faster than it, so a trial lowers the cost
      unless ``x`` is stationary: every accepted step is a descent step.
      After an accepted step ``mu`` follows Nielsen's update from the gain
      ratio of actual to predicted (Gauss--Newton model) reduction.

    Stops as SciPy's trust-region solver does (see
    :class:`LeastSquaresResult`), its ``gtol`` test applied to the projected
    gradient ``P(x - g) - x``; ``nfev`` counts the probes too.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    x = np.asarray(x0, dtype=float)
    n = x.shape[0]
    lb = np.broadcast_to(np.asarray(bounds[0], dtype=float), (n,))
    ub = np.broadcast_to(np.asarray(bounds[1], dtype=float), (n,))
    A, b = linear
    AtA = A.T @ A
    x = np.clip(x, lb, ub)

    r, rl = fun(x), A @ x - b
    cost = 0.5 * (r @ r + rl @ rl)
    nfev = 1
    mu, nu = 1e-3, 2.0
    D2 = np.zeros(n)
    status = None
    while status is None:
        J = jac(x)
        H = J.T @ J + AtA
        g = J.T @ r + A.T @ rl
        D2 = np.maximum(D2, H.diagonal())
        if np.max(np.abs(np.clip(x - g, lb, ub) - x), initial=0.0) < gtol:
            status = 1
            break
        free = ~(((x <= lb) & (g > 0.0)) | ((x >= ub) & (g < 0.0)))
        if free.all():
            free = slice(None)
            Hf, Jf = H.copy(), J
        else:
            Hf, Jf = H[np.ix_(free, free)], J[:, free]
        gf, Df = g[free], D2[free]
        Df[Df <= 0.0] = 1.0
        v = np.where(g < 0.0, ub - x, x - lb)[free]
        diagonal = Hf.diagonal() + np.divide(np.abs(gf), v, out=np.zeros_like(v), where=v > 0.0)
        # Each trial evaluates fun twice: at the geodesic probe and at the
        # trial point.
        while nfev + 2 <= max_nfev:
            np.fill_diagonal(Hf, diagonal + mu * Df)
            factor, info = dpotrf(Hf, lower=1, clean=0)
            if info:
                if not math.isfinite(mu):
                    raise FloatingPointError("least_squares: no damping makes the step solvable")
                mu, nu = mu * nu, 2.0 * nu
                continue
            velocity = -dpotrs(factor, gf, lower=1)[0]
            probe = x.copy()
            probe[free] += _GEODESIC_H * velocity
            np.clip(probe, lb, ub, out=probe)
            direction = (probe - x)[free] / _GEODESIC_H
            r_vv = (2.0 / _GEODESIC_H) * ((fun(probe) - r) / _GEODESIC_H - Jf @ direction)
            nfev += 1
            accel = -dpotrs(factor, Jf.T @ r_vv, lower=1)[0]
            if 2.0 * math.sqrt(accel @ accel) > _GEODESIC_ALPHA * math.sqrt(velocity @ velocity):
                mu, nu = mu * nu, 2.0 * nu
                continue
            x_new = x.copy()
            x_new[free] += velocity + 0.5 * accel
            np.clip(x_new, lb, ub, out=x_new)
            s = x_new - x
            predicted = -(g @ s + 0.5 * (s @ (H @ s)))
            r_new, rl_new = fun(x_new), A @ x_new - b
            nfev += 1
            cost_new = 0.5 * (r_new @ r_new + rl_new @ rl_new)
            actual = cost - cost_new
            ratio = actual / predicted if predicted > 0.0 else 0.0
            status = _termination(
                actual, cost, math.sqrt(s @ s), math.sqrt(x @ x), ratio, ftol, xtol
            )
            if actual > 0.0:
                x, r, rl, cost = x_new, r_new, rl_new, cost_new
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            mu, nu = mu * nu, 2.0 * nu
            if status is not None:
                break
        else:
            status = 0
    return LeastSquaresResult(x=x, cost=float(cost), status=status, nfev=nfev)


def _polish_problem(
    d: np.ndarray,
    lapn: np.ndarray,
    Wn: np.ndarray,
    gam: np.ndarray,
    c2: np.ndarray,
    prior: np.ndarray,
    nodes: np.ndarray,
    b_inf: float,
    t_max: float,
):
    """The polish's least-squares problem over the interior values.

    Returns ``(fun, jac, (A, b), x0)``: the scale-normalized residual rows
    and their Jacobian, the linear regularizer rows ``A @ x - b`` (the weak
    pull toward the small-y asymptote, then the second-difference
    smoothness term) and the starting point.
    """
    n = d.shape[0]
    free = np.arange(1, n - 1)
    nf = free.shape[0]
    lam_point = np.full(nf, 1e-8)
    lam_point[: min(8, nf)] = 1e-2
    sq_point = np.sqrt(lam_point)
    # Second differences over the residual-active chain d_0 .. d_{n-2},
    # excluding nodes close to b_inf where the boundary leaves any smooth
    # scale (it dives toward -inf there).
    dy = nodes[1] - nodes[0]
    rows = np.arange(1, n - 2)
    rows = rows[nodes[rows] <= b_inf - 3.0 * dy]
    D2 = np.zeros((rows.shape[0], n - 1))
    D2[np.arange(rows.shape[0])[:, None], rows[:, None] + np.arange(-1, 2)] = (1.0, -2.0, 1.0)
    sq_s = math.sqrt(1e-3)
    A = np.vstack([np.diag(sq_point), sq_s * D2[:, 1:]])
    b = np.concatenate([sq_point * prior[free], np.zeros(rows.shape[0])])

    def fun(x):
        dd = np.concatenate([[0.0], x])
        return math.sqrt(2.0) * c2 * _kernels.residuals(lapn, Wn, gam, dd)

    def jac(x):
        E = np.exp(np.minimum(gam[:, None] * x[None, :], 700.0))
        return math.sqrt(2.0) * (c2 * gam)[:, None] * E * Wn[:, 1:]

    x0 = np.clip(d[free], -t_max + 1e-9, -1e-12)
    return fun, jac, (A, b), x0


def _polish(
    d: np.ndarray,
    lapn: np.ndarray,
    Wn: np.ndarray,
    gam: np.ndarray,
    c2: np.ndarray,
    prior: np.ndarray,
    nodes: np.ndarray,
    b_inf: float,
    t_max: float,
):
    """Bounded least-squares refinement of the interior values.

    Returns the refined values and the :func:`least_squares` result.
    """
    fun, jac, linear, x0 = _polish_problem(d, lapn, Wn, gam, c2, prior, nodes, b_inf, t_max)
    result = least_squares(
        fun,
        x0,
        jac=jac,
        bounds=(-t_max, 0.0),
        linear=linear,
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-14,
        max_nfev=2000,
    )
    out = d.copy()
    out[1:-1] = result.x
    return out, result


def _polish_due(sweeps: int) -> bool:
    """Whether the schedule polishes after this many sweeps: 0, 1, 2, 4, 8, ..."""
    return sweeps & (sweeps - 1) == 0


def _max_residual(lapn, Wn, gam, d: np.ndarray) -> float:
    return float(np.max(np.abs(_kernels.residuals(lapn, Wn, gam, d[:-1]))))


def solve(
    p: Problem,
    cgrid: CGrid,
    envelope: BoundaryEnvelope,
    seed_mode: str = "asymptotic",
) -> SolveReport:
    """Minimize the penalized residual objective inside the envelope.

    Runs the sweep-polish schedule described in the module docstring.
    It reads the first ``len(cgrid)`` rows of ``envelope.tabulation``, whose
    parameters must start with ``cgrid``'s (``ValueError`` otherwise).
    Deterministic for fixed inputs.  ``converged=False`` (not an exception)
    reports a solve that never met the residual bound.  ``seed_mode`` is
    as for :func:`seed`.
    """
    cgrid.require_admissible(p)
    tab = envelope.tabulation.leading(cgrid)
    nodes = envelope.lower.nodes
    lower = envelope.lower.values.copy()
    upper = np.minimum(envelope.upper.values, 0.0)
    # One prior serves as the asymptotic seed and as the polish's pull.
    prior_B = solve_B(p.beta, p.m_ratio).B
    prior = _asymptotic_values(p, envelope, prior_B)
    d = _seed_from(envelope, seed_mode, prior).values.copy()
    d[-1] = lower[-1]  # held: the residual loses all sensitivity to it

    lap, W, gam, c2 = tab.lap, tab.W, tab.gam, tab.c2
    scale = float(np.max(np.abs(lap)))
    if scale <= 0.0:
        raise ValueError("degenerate problem: vanishing transform on the whole grid")
    lapn, Wn = lap / scale, W / scale
    t_max = _default_t_max(p)

    def objective(values: np.ndarray) -> float:
        return _kernels.surrogate_objective(lapn, Wn, gam, c2, values[:-1])

    trace = [objective(d)]
    fit = None
    stalled = False
    # Step 0 runs no sweep: it polishes the seed.
    for sweeps in range(MAX_SWEEPS + 1):
        if sweeps:
            obj, max_move = _kernels.sweep(
                lapn, Wn, gam, c2, d, lower, upper, SCAN_POINTS, 1e-9
            )
            stalled = max_move < COORDINATE_TOLERANCE or trace[-1] - obj < VALUE_TOLERANCE
            trace.append(float(obj))
        if stalled or sweeps == MAX_SWEEPS or _polish_due(sweeps):
            polished, result = _polish(d, lapn, Wn, gam, c2, prior, nodes, p.b_inf, t_max)
            polished = _monotone_down(np.clip(polished, lower, upper))
            polished[-1] = lower[-1]
            if (
                result.status > 0
                and _max_residual(lapn, Wn, gam, polished) <= RESIDUAL_TOLERANCE
            ):
                d, fit = polished, result
                break
        if stalled:
            break

    if fit is not None:
        new_obj = objective(d)
        if new_obj <= trace[-1]:
            trace.append(new_obj)
    max_residual = _max_residual(lapn, Wn, gam, d)
    reason = "residual_bound" if fit is not None else "stalled" if stalled else "budget"

    grid = envelope.lower.with_values(d)
    return SolveReport(
        grid=grid,
        objective_trace=trace,
        residual_vector=tab.residual_vector(grid),
        iterations=sweeps,
        converged=fit is not None,
        max_residual=max_residual,
        convergence_reason=reason,
        descent_exhausted=sweeps == MAX_SWEEPS and not stalled,
        polish_status=None if fit is None else int(fit.status),
        polish_nfev=None if fit is None else int(fit.nfev),
        prior_B=prior_B,
    )


def asymptotic_check(report: SolveReport, p: Problem, k: int = 8) -> float:
    """Leading coefficient ``B`` fitted to the solved boundary near 0.

    Least-squares fit of ``d_n = -B * y_n**2`` over the ``k`` smallest
    positive nodes; compare against the universal constant for the
    problem's local payoff power.
    """
    if not report.converged:
        raise NotConvergedError("asymptotic check requires a converged solve")
    if k < 3 or len(report.grid) - 1 < 3:
        raise InsufficientDataError("need at least 3 usable nodes for the fit")
    y = report.grid.nodes[1 : k + 1]
    d = report.grid.values[1 : k + 1]
    if y.shape[0] < 3:
        raise InsufficientDataError("need at least 3 usable nodes for the fit")
    return float(-(d * y * y).sum() / (y**4).sum())
