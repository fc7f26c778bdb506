"""Certified upper/lower envelopes around the stopping boundary.

Starting from the trivial upper bound ``d == 0``, each refinement step
plants a single-level test boundary at one node, combines it with the
current bound on the opposite side, and bisects the level until the
residual of the integral identity changes sign somewhere on the parameter
grid.  Residuals are increasing in every boundary value, which makes each
bisection well posed:

* lower step at node ``x``: the test boundary is ``t`` on ``[x, b_inf]``
  capped by the current upper bound; the smallest ``t`` keeping every
  residual ``>= 0`` is a valid lower bound at ``x``;
* upper step at node ``x``: the test boundary is ``t`` on the segments
  left of ``x``, floored on each segment by the current lower bound at its
  right end (a non-increasing boundary above ``t`` at ``x`` is above ``t``
  left of ``x``, and on a segment at least its right-end value); the
  largest ``t`` keeping every residual ``<= 0`` is a valid upper bound at
  ``x``.

The identity quantifies over all admissible parameters; the implementation
checks a finite grid extended geometrically up to four times its largest
value, where sign flips concentrate.  The envelopes tighten across
iterations but are known not to converge to the boundary, and nothing here
assumes they do.

The current bound is non-increasing, so a test boundary differs from it on
one run of segments, found by ``searchsorted``.  A step builds the running
sums over segments of ``exp(gam*bound)*W`` and of ``W`` once; every probe is
then a few columns of those sums, and all nodes bisect together, one
``(M, N)`` array operation per bisection step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from . import fredholm
from .fredholm import BoundaryGrid, CGrid, Tabulation
from .problem import Problem

__all__ = [
    "BoundaryEnvelope",
    "extended_cvalues",
    "initial_envelope",
    "lower_step",
    "upper_step",
    "iterate",
    "BISECTION_TOL",
]

log = logging.getLogger(__name__)

# A bisection stops once its bracket is this narrow.
BISECTION_TOL = 1e-6
_EXTENSION_FACTORS = np.geomspace(1.2, 4.0, 8)


@dataclass
class BoundaryEnvelope:
    """Bounds ``lower <= d <= upper <= 0`` on common nodes, with their weights."""

    lower: BoundaryGrid
    upper: BoundaryGrid
    iteration: int
    lower_truncated: np.ndarray
    tabulation: Tabulation

    def __post_init__(self):
        if not np.array_equal(self.lower.nodes, self.upper.nodes):
            raise ValueError("envelope sides must share their nodes")
        if np.any(self.lower.values > self.upper.values + 1e-12):
            raise ValueError("lower bound exceeds upper bound")
        self.tabulation.require_nodes(self.lower.nodes)

    @property
    def widths(self) -> np.ndarray:
        return self.upper.values - self.lower.values


def extended_cvalues(p: Problem, cgrid: CGrid) -> np.ndarray:
    """The parameter grid plus a geometric extension toward large c."""
    cgrid.require_admissible(p)
    c_max = cgrid.values[-1]
    return np.concatenate([cgrid.values, c_max * _EXTENSION_FACTORS])


def _default_t_max(p: Problem) -> float:
    # exp((c^2/2 - r) t) underflows far before t = -50/r, so deeper levels
    # are numerically indistinguishable from -inf.
    return 50.0 / p.r if p.r > 0.0 else 50.0


def _monotone_from_right(v: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(v[::-1])[::-1]


def _prefix_sums(tab: Tabulation, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running sums over segments of ``exp(gam*values)*W`` and of ``W``.

    Both are ``(M, N)`` with a leading zero column, so the sum over segments
    ``a..b-1`` is ``S[:, b] - S[:, a]``.
    """
    with np.errstate(under="ignore"):
        terms = np.exp(tab.gam[:, None] * values[None, :]) * tab.W
    zero = np.zeros((tab.W.shape[0], 1))
    return (np.hstack([zero, np.cumsum(terms, axis=1)]),
            np.hstack([zero, np.cumsum(tab.W, axis=1)]))


def _block_residuals(
    tab: Tabulation,
    P: np.ndarray,
    Wc: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Residuals ``(M, K)`` of ``K`` test boundaries at once.

    Boundary ``i`` sits at level ``t[i]`` on segments ``start[i]..end[i]-1``
    and at the values whose prefix sums are ``P`` everywhere else.
    """
    with np.errstate(under="ignore"):
        e = np.exp(tab.gam[:, None] * t[None, :])
    return (tab.lap[:, None] + P[:, start] + e * (Wc[:, end] - Wc[:, start])
            + (P[:, -1:] - P[:, end]))


def _lockstep_bisect(
    below: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nodes: np.ndarray,
    t_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect ``[-t_max, 0]`` at every node in ``nodes`` together.

    ``below(nodes, t)`` tells, per node, whether the sought level lies at or
    below ``t``.  A node halves its bracket while it is wider than
    :data:`BISECTION_TOL`, exactly as often as a bisection of that node
    alone would.  Returns the final ``(lo, hi)`` brackets.
    """
    lo = np.full(nodes.shape, -t_max)
    hi = np.zeros(nodes.shape)
    active = np.flatnonzero(hi - lo > BISECTION_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        down = below(nodes[active], mid)
        hi[active[down]] = mid[down]
        lo[active[~down]] = mid[~down]
        active = active[hi[active] - lo[active] > BISECTION_TOL]
    return lo, hi


def lower_step(
    p: Problem, upper: BoundaryGrid, tab: Tabulation
) -> tuple[BoundaryGrid, np.ndarray]:
    """Per-node lower bounds certified against ``upper`` on ``tab``'s weights.

    Returns the new lower grid and a boolean truncation-flag array marking
    nodes where the bisection range ``[-t_max, 0]`` was exhausted, with
    ``t_max = 50 / r`` (50 when ``r = 0``).
    """
    tab.require_nodes(upper.nodes)
    t_max = _default_t_max(p)
    n = upper.nodes.shape[0]
    u = upper.values[:-1]
    P, Wc = _prefix_sums(tab, u)
    neg_u = -u

    def holds(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        # Test boundary min(t, u_n) on segments k.. : u is non-increasing, so
        # it sits at t on k..j-1 and at u_n from j = max(k, #{u_n >= t}) on.
        j = np.maximum(k, np.searchsorted(neg_u, -t, side="right"))
        return _block_residuals(tab, P, Wc, k, j, t).min(axis=0) >= 0.0

    out = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    k = np.arange(1, n)
    fails = ~holds(k, np.zeros(k.shape))
    # The current upper bound itself fails the certificate at these nodes
    # (can only happen through accumulated tolerance); fall back to it
    # rather than certify something tighter.
    out[k[fails]] = upper.values[k[fails]]
    k = k[~fails]
    deep = holds(k, np.full(k.shape, -t_max))
    out[k[deep]] = -t_max
    truncated[k[deep]] = True
    k = k[~deep]
    out[k] = _lockstep_bisect(holds, k, t_max)[1]
    out = _monotone_from_right(np.minimum(out, upper.values))
    return upper.with_values(out), truncated


def upper_step(p: Problem, lower: BoundaryGrid, tab: Tabulation) -> BoundaryGrid:
    """Per-node upper bounds certified against ``lower`` on ``tab``'s weights."""
    tab.require_nodes(lower.nodes)
    t_max = _default_t_max(p)
    n = lower.nodes.shape[0]
    # Supposing d(y_k) > t, a non-increasing d exceeds t on segments 0..k-1
    # and is at least lower[n+1] on segment n: that floor is v_n.
    v = lower.values[1:]
    P, Wc = _prefix_sums(tab, v)
    neg_v = -v

    def holds(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        # Test boundary max(t, v_n) on segments ..k-1: v is non-increasing, so
        # it keeps v_n up to j = #{v_n >= t} and sits at t on j..k-1.
        j = np.minimum(np.searchsorted(neg_v, -t, side="right"), k)
        return _block_residuals(tab, P, Wc, j, k, t).max(axis=0) <= 0.0

    out = np.zeros(n)
    k = np.arange(1, n)
    k = k[~holds(k, np.zeros(k.shape))]
    infeasible = ~holds(k, np.full(k.shape, -t_max))
    out[k[infeasible]] = lower.values[k[infeasible]]
    k = k[~infeasible]
    out[k] = _lockstep_bisect(lambda k, t: ~holds(k, t), k, t_max)[0]
    return lower.with_values(np.minimum.accumulate(np.maximum(out, lower.values)))


def initial_envelope(p: Problem, nodes: np.ndarray, cgrid: CGrid) -> BoundaryEnvelope:
    """Zero upper bound plus one certified lower step against it."""
    nodes = np.asarray(nodes, dtype=float)
    upper = BoundaryGrid(nodes=nodes, values=np.zeros(nodes.shape[0]))
    tab = fredholm.tabulate(p, upper, CGrid(extended_cvalues(p, cgrid)))
    lower, truncated = lower_step(p, upper, tab)
    return BoundaryEnvelope(lower, upper, 0, truncated, tab)


def iterate(
    p: Problem,
    nodes: np.ndarray,
    cgrid: CGrid,
    k: int,
    collect: Optional[List[BoundaryEnvelope]] = None,
) -> BoundaryEnvelope:
    """Alternate refinement steps ``k`` times, starting with an upper step.

    Iteration 0 is the initial envelope; each subsequent iteration applies
    one step against the opposite side, so iteration 1 improves the upper
    bound, iteration 2 the lower bound, and so on.  All envelopes are
    appended to ``collect`` when given.
    """
    if k < 1:
        raise ValueError("iteration count must be >= 1")
    env = initial_envelope(p, nodes, cgrid)
    if collect is not None:
        collect.append(env)
    for i in range(1, k + 1):
        if i % 2 == 1:
            upper = upper_step(p, env.lower, env.tabulation)
            vals = np.minimum(upper.values, env.upper.values)
            env = replace(env, upper=upper.with_values(vals), iteration=i)
        else:
            lower, truncated = lower_step(p, env.upper, env.tabulation)
            # A certified bound never loosens: keep the better of old and new.
            vals = np.maximum(lower.values, env.lower.values)
            env = replace(env, lower=lower.with_values(vals), iteration=i,
                          lower_truncated=truncated & env.lower_truncated)
        log.info(
            "envelope iteration %d: max width %.6g", i, float(np.max(env.widths))
        )
        if collect is not None:
            collect.append(env)
    return env
