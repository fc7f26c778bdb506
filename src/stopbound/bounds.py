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
* upper step at node ``x``: the test boundary is ``t`` on ``[0, x]`` floored
  by the current lower bound; the largest ``t`` keeping every residual
  ``<= 0`` is a valid upper bound at ``x``.

The identity quantifies over all admissible parameters; the implementation
checks a finite grid extended geometrically up to four times its largest
value, where sign flips concentrate.  The envelopes tighten across
iterations but are known not to converge to the boundary, and nothing here
assumes they do.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from . import _kernels, fredholm
from .fredholm import BoundaryGrid, CGrid, Tabulation
from .problem import Problem

__all__ = [
    "BoundaryEnvelope",
    "extended_cvalues",
    "initial_envelope",
    "lower_step",
    "upper_step",
    "iterate",
    "DEFAULT_BISECTION_TOL",
]

log = logging.getLogger(__name__)

DEFAULT_BISECTION_TOL = 1e-6
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


def _monotone_from_left(v: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(v)


def _bisect_node(
    cond: Callable[[float], bool],
    t_max: float,
    tol: float,
) -> tuple[float, bool]:
    """Smallest ``t`` in ``[-t_max, 0]`` with ``cond(t)`` true.

    ``cond`` is monotone (true near 0, false for deep ``t``).  Returns the
    level and a truncation flag set when ``cond`` holds on the whole range.
    """
    if cond(-t_max):
        return -t_max, True
    lo, hi = -t_max, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cond(mid):
            hi = mid
        else:
            lo = mid
    return hi, False


def lower_step(
    p: Problem,
    upper: BoundaryGrid,
    tab: Tabulation,
    tol: float = DEFAULT_BISECTION_TOL,
    t_max: Optional[float] = None,
) -> tuple[BoundaryGrid, np.ndarray]:
    """Per-node lower bounds certified against ``upper`` on ``tab``'s weights.

    Returns the new lower grid and a boolean truncation-flag array marking
    nodes where the bisection range ``[-t_max, 0]`` was exhausted.
    """
    tab.require_nodes(upper.nodes)
    t_max = _default_t_max(p) if t_max is None else t_max
    nodes = upper.nodes
    n = nodes.shape[0]
    out = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    for k in range(1, n):
        tail = np.arange(n - 1) >= k  # segments whose left node is >= x

        def cond(t: float) -> bool:
            d = np.where(tail, np.minimum(t, upper.values[:-1]), upper.values[:-1])
            r = _kernels.residuals(tab.lap, tab.W, tab.gam, np.ascontiguousarray(d))
            return bool(np.min(r) >= 0.0)

        if not cond(0.0):
            # The current upper bound itself fails the certificate at this
            # node (can only happen through accumulated tolerance); fall back
            # to it rather than certify something tighter.
            out[k] = upper.values[k]
            continue
        out[k], truncated[k] = _bisect_node(cond, t_max, tol)
    out = _monotone_from_right(np.minimum(out, upper.values))
    return upper.with_values(out), truncated


def upper_step(
    p: Problem,
    lower: BoundaryGrid,
    tab: Tabulation,
    tol: float = DEFAULT_BISECTION_TOL,
    t_max: Optional[float] = None,
) -> BoundaryGrid:
    """Per-node upper bounds certified against ``lower`` on ``tab``'s weights."""
    tab.require_nodes(lower.nodes)
    t_max = _default_t_max(p) if t_max is None else t_max
    nodes = lower.nodes
    n = nodes.shape[0]
    out = np.zeros(n)
    for k in range(1, n):
        head = np.arange(n - 1) <= k  # segments whose left node is <= x

        def ok(t: float) -> bool:
            d = np.where(head, np.maximum(t, lower.values[:-1]), lower.values[:-1])
            r = _kernels.residuals(tab.lap, tab.W, tab.gam, np.ascontiguousarray(d))
            return bool(np.max(r) <= 0.0)

        if ok(0.0):
            out[k] = 0.0
            continue
        if not ok(-t_max):
            out[k] = lower.values[k]
            continue
        lo, hi = -t_max, 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        out[k] = lo
    out = _monotone_from_left(np.maximum(out, lower.values))
    return lower.with_values(np.minimum(out, 0.0))


def initial_envelope(
    p: Problem,
    nodes: np.ndarray,
    cgrid: CGrid,
    tol: float = DEFAULT_BISECTION_TOL,
    t_max: Optional[float] = None,
) -> BoundaryEnvelope:
    """Zero upper bound plus one certified lower step against it."""
    nodes = np.asarray(nodes, dtype=float)
    upper = BoundaryGrid(nodes=nodes, values=np.zeros(nodes.shape[0]))
    tab = fredholm.tabulate(p, upper, CGrid(extended_cvalues(p, cgrid)))
    lower, truncated = lower_step(p, upper, tab, tol, t_max)
    return BoundaryEnvelope(lower, upper, 0, truncated, tab)


def iterate(
    p: Problem,
    nodes: np.ndarray,
    cgrid: CGrid,
    k: int,
    tol: float = DEFAULT_BISECTION_TOL,
    t_max: Optional[float] = None,
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
    env = initial_envelope(p, nodes, cgrid, tol, t_max)
    if collect is not None:
        collect.append(env)
    for i in range(1, k + 1):
        if i % 2 == 1:
            upper = upper_step(p, env.lower, env.tabulation, tol, t_max)
            vals = np.minimum(upper.values, env.upper.values)
            env = replace(env, upper=upper.with_values(vals), iteration=i)
        else:
            lower, truncated = lower_step(p, env.upper, env.tabulation, tol, t_max)
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
