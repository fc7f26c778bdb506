"""Boundary solver: regularized least-squares residual minimization over monotone grids.

The discrete identity is underdetermined: with more nodes than kernel
parameters its zero set is a manifold, not a point.  A least-squares
polish therefore minimizes the stacked system

    [ residuals (scale-normalized) ;
      weak pull toward the small-y asymptote  -B * y**2 ;
      weak second-difference smoothness term ]

over the box ``(-t_max, 0)``, which selects the smooth representative of
the zero set; the regularizer weights are small enough not to bias the
residuals away from zero at the achievable tolerance.  The polish is a
bounded Levenberg--Marquardt method on the normal equations
(:func:`least_squares`): each trial step solves two N x N systems with
NumPy's LU solver, whose regularizer block is formed once per polish.  The
polished values are projected back into the envelope and onto the
monotone cone.

A solve polishes the requested seed.  The polished point is accepted when
the polish stopped on a convergence test (status > 0) and its normalized
residual ``max|R| / max|lap|`` is at or below :data:`RESIDUAL_TOLERANCE`;
from a poor start a polish can land on a spurious point, whose residual
sits one to two orders of magnitude above the true boundary's.  A missed
polish is retried once from the other seed (``asymptotic`` and
``envelope_midpoint`` swap).  ``converged`` is reported only for an
accepted point (see :class:`SolveReport`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

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

# Each seed mode and the one a missed polish retries from.
_OTHER_SEED = {"asymptotic": "envelope_midpoint", "envelope_midpoint": "asymptotic"}

# A polished boundary is accepted when its normalized residual
# max|R| / max|lap| is at or below this bound.  For `linear` and puts with
# theta <= 0.5, on grids from 12 x 8 to 60 x 40, the polished boundary
# measures 4e-5 to 3e-4 at 24 nodes and more and at most 2.6e-3 below; the
# spurious points a polish reaches from a poor start measure 1.9e-2 to
# 9e-2.
RESIDUAL_TOLERANCE = 5e-3


class NotConvergedError(RuntimeError):
    """An operation requiring a converged solve received an unconverged one."""


class InsufficientDataError(ValueError):
    """Too few usable nodes for the requested fit."""


@dataclass
class SolveReport:
    """Solved grid with the optimization trace, final residuals and how it stopped.

    ``converged`` holds exactly when a polished point was accepted: its
    least-squares status is positive and its normalized residual
    ``max_residual`` is at or below :data:`RESIDUAL_TOLERANCE`
    (``convergence_reason`` is ``residual_bound``).  Otherwise both polishes
    missed (``polish_missed``) and the grid is the polished point with the
    smaller ``max_residual``.  ``polishes`` counts the polishes run: 1, or 2
    when the polish of the requested seed missed and the other seed's ran.
    ``polish_status`` and ``polish_nfev`` are the least-squares status and
    function-evaluation count of the accepted polish (``None`` when none was
    accepted).  ``prior_B`` is the small-y coefficient ``B`` of the
    asymptotic prior ``-B * y**2`` that pulled the polish (and is the
    ``asymptotic`` seed), so a caller need not solve for it again.

    ``objective_trace`` holds two objectives (the summed penalties of the
    raw residuals, as :attr:`objective` reports it): of the seed that
    ``grid`` was polished from, then of ``grid``.  A seed past the penalty
    pole reads ``inf``.  Nothing forces the second below the first: an
    unconverged solve can end above its seed.
    """

    grid: BoundaryGrid
    objective_trace: List[float]
    residual_vector: ResidualVector
    polishes: int
    converged: bool
    max_residual: float
    polish_status: Optional[int]
    polish_nfev: Optional[int]
    prior_B: float

    @property
    def objective(self) -> float:
        return self.residual_vector.objective

    @property
    def convergence_reason(self) -> str:
        return "residual_bound" if self.converged else "polish_missed"


def _asymptotic_values(
    p: Problem, envelope: BoundaryEnvelope, B: Optional[float] = None
) -> np.ndarray:
    """``-B * y**2`` clamped into the envelope, ``B`` solved for when not given."""
    if B is None:
        B = solve_B(p.beta, p.m_ratio).B
    y = envelope.lower.nodes
    vals = np.clip(-B * y * y, envelope.lower.values, envelope.upper.values)
    return np.minimum.accumulate(vals)


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
        raise ValueError(f"seed_mode must be one of {tuple(_OTHER_SEED)}")
    return envelope.lower.with_values(np.minimum.accumulate(np.minimum(vals, 0.0)))


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
    each trial solves the damped normal equations (Moré 1978) with the
    symmetric positive definite N x N matrix

        K = JᵀJ + AᵀA + diag(|g| / v) + mu * diag(D**2)

    over the free variables, where ``g`` is the gradient and ``D`` the
    running maximum of the Jacobian's column norms (MINPACK's scaling).
    Each trial calls ``np.linalg.solve`` on ``K`` twice, once per
    right-hand side below; a ``LinAlgError`` grows ``mu`` as a rejected
    trial does.  No SciPy is loaded.  Two LU solves cost more than one
    Cholesky factorization with two triangular solves, which NumPy does
    not offer: a warm solve at 120 x 60 takes 40-65% longer than with
    LAPACK's ``dpotrf``/``dpotrs``, while importing SciPy for them costs a
    fresh process more (0.4 s) than the whole polish at the CLI's
    defaults.

    * Bounds: a variable at a bound whose gradient points out of the box is
      held fixed, and each point is projected onto the box.  ``v`` is each
      variable's distance to the bound that ``-g`` points at, so
      ``|g| / v`` is Coleman and Li's (1996) diagonal: it shortens a step
      toward a nearby bound, so that a step from a poor start does not
      throw variables onto the bound.  Without it, 5 of 88 solves (`linear`
      and three puts on grids from 12 x 8 to 60 x 40, 2 and 3 envelope
      iterations, both seeds), all seeded at the envelope midpoint, polish
      into a spurious point that misses the residual bound.
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
            try:
                velocity = -np.linalg.solve(Hf, gf)
            except np.linalg.LinAlgError:
                if not math.isfinite(mu):
                    raise FloatingPointError("least_squares: no damping makes the step solvable")
                mu, nu = mu * nu, 2.0 * nu
                continue
            probe = x.copy()
            probe[free] += _GEODESIC_H * velocity
            np.clip(probe, lb, ub, out=probe)
            direction = (probe - x)[free] / _GEODESIC_H
            r_vv = (2.0 / _GEODESIC_H) * ((fun(probe) - r) / _GEODESIC_H - Jf @ direction)
            nfev += 1
            accel = -np.linalg.solve(Hf, Jf.T @ r_vv)
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


class _Polished(NamedTuple):
    """One polish of a seed: its start, the projected result and its ``max|R|``."""

    start: np.ndarray
    values: np.ndarray
    result: LeastSquaresResult
    max_residual: float

    @property
    def accepted(self) -> bool:
        return self.result.status > 0 and self.max_residual <= RESIDUAL_TOLERANCE


def _max_residual(lapn, Wn, gam, d: np.ndarray) -> float:
    return float(np.max(np.abs(_kernels.residuals(lapn, Wn, gam, d[:-1]))))


def solve(
    p: Problem,
    cgrid: CGrid,
    envelope: BoundaryEnvelope,
    seed_mode: str = "asymptotic",
) -> SolveReport:
    """Polish the seed inside the envelope; retry once from the other seed.

    It reads the first ``len(cgrid)`` rows of ``envelope.tabulation``, whose
    parameters must start with ``cgrid``'s (``ValueError`` otherwise).
    Deterministic for fixed inputs.  ``converged=False`` (not an exception)
    reports a solve whose polishes both missed the acceptance rule of the
    module docstring.  ``seed_mode`` is as for :func:`seed`.
    """
    cgrid.require_admissible(p)
    tab = envelope.tabulation.leading(cgrid)
    nodes = envelope.lower.nodes
    lower = envelope.lower.values
    upper = envelope.upper.values
    # One prior serves as the asymptotic seed and as the polish's pull.
    prior_B = solve_B(p.beta, p.m_ratio).B
    prior = _asymptotic_values(p, envelope, prior_B)

    lap, W, gam, c2 = tab.lap, tab.W, tab.gam, tab.c2
    scale = float(np.max(np.abs(lap)))
    if scale <= 0.0:
        raise ValueError("degenerate problem: vanishing transform on the whole grid")
    lapn, Wn = lap / scale, W / scale
    t_max = _default_t_max(p)

    def polish_from(mode: str) -> _Polished:
        start = _seed_from(envelope, mode, prior).values.copy()
        start[-1] = lower[-1]  # held: the residual loses all sensitivity to it
        polished, result = _polish(start, lapn, Wn, gam, c2, prior, nodes, p.b_inf, t_max)
        polished = np.minimum.accumulate(np.clip(polished, lower, upper))
        polished[-1] = lower[-1]
        return _Polished(start, polished, result, _max_residual(lapn, Wn, gam, polished))

    # One error state for every residual evaluation of the polishes: their
    # least-squares runs and their max|R|.
    with np.errstate(over="ignore", under="ignore"):
        attempts = [polish_from(seed_mode)]
        if not attempts[0].accepted:
            attempts.append(polish_from(_OTHER_SEED[seed_mode]))
    accepted = attempts[-1].accepted
    best = attempts[-1] if accepted else min(attempts, key=lambda a: a.max_residual)

    grid = envelope.lower.with_values(best.values)
    rv = tab.residual_vector(grid)
    seed_objective = tab.residual_vector(envelope.lower.with_values(best.start)).objective
    return SolveReport(
        grid=grid,
        objective_trace=[seed_objective, rv.objective],
        residual_vector=rv,
        polishes=len(attempts),
        converged=accepted,
        max_residual=best.max_residual,
        polish_status=int(best.result.status) if accepted else None,
        polish_nfev=int(best.result.nfev) if accepted else None,
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
    return float(-(d * y * y).sum() / (y**4).sum())
