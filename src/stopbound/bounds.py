"""Certified upper/lower envelopes around the stopping boundary.

Starting from the trivial upper bound ``d == 0``, each refinement step
plants a single-level test boundary at one node, combines it with the
current bound on the opposite side, and finds the level at which the
residual of the integral identity changes sign somewhere on the parameter
grid.  Residuals are increasing in every boundary value, which makes that
switch level well defined:

* lower step at node ``x``: the test boundary is ``t`` on ``[x, b_inf]``
  capped by the current upper bound; every ``t`` at which some residual is
  ``< 0`` is a valid lower bound at ``x``;
* upper step at node ``x``: the test boundary is ``t`` on the segments
  left of ``x``, floored on each segment by the current lower bound at its
  right end (a non-increasing boundary above ``t`` at ``x`` is above ``t``
  left of ``x``, and on a segment at least its right-end value); every
  ``t`` at which some residual is ``> 0`` is a valid upper bound at ``x``.

The identity quantifies over all admissible parameters; the implementation
checks a finite grid extended geometrically up to four times its largest
value, where sign flips concentrate.  The envelopes tighten across
iterations but are known not to converge to the boundary, and nothing here
assumes they do.

The current bound is non-increasing, so a test boundary differs from it on
one run of segments, found by ``searchsorted``.  A step builds the running
sums over segments of ``exp(gam*bound)*W`` and of ``W`` once; every
residual is then a few columns of those sums, and all nodes step together,
one ``(M, N)`` array operation per evaluation.  Between two consecutive
values of the current bound the run is fixed, so each residual is
``A + exp(gam*t)*B``, whose root has a closed form.  A step finds each
node's piece by an index bisection over those values, takes the switch
level in closed form there, and returns the grid point ``i * GRID`` next
to it on the certified side, after checking by evaluation that the
certificate holds there and not one grid step inward.  The result depends
only on residual signs at fixed grid points.
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
    "GRID",
]

log = logging.getLogger(__name__)

# Certified levels are multiples of this step, exact in binary for
# |t| < 2**23 (t_max = 50/r is far less for any r above 6e-6).
GRID = 2.0 ** -30
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


def _affine(
    tab: Tabulation, P: np.ndarray, Wc: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)``, each ``(M, K)``: the residuals of ``K`` test boundaries are ``A + exp(gam*t)*B``.

    Boundary ``i`` sits at level ``t`` on segments ``start[i]..end[i]-1``
    and at the values whose prefix sums are ``P`` everywhere else.
    """
    A = tab.lap[:, None] + P[:, start] + (P[:, -1:] - P[:, end])
    return A, Wc[:, end] - Wc[:, start]


def _block_residuals(
    tab: Tabulation,
    P: np.ndarray,
    Wc: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Residuals ``(M, K)`` of the test boundaries of :func:`_affine` at levels ``t``."""
    A, B = _affine(tab, P, Wc, start, end)
    with np.errstate(under="ignore"):
        return A + np.exp(tab.gam[:, None] * t[None, :]) * B


def _last_true(
    probe: Callable[[np.ndarray, np.ndarray], np.ndarray],
    k: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per node, an ``i`` in ``[lo, hi)`` where ``probe(k, i)`` is true and ``probe(k, i + 1)`` not.

    ``probe`` is taken to be true at ``lo`` and false at ``hi`` unevaluated;
    all nodes bisect the integers between together.
    """
    lo, hi = lo.copy(), hi.copy()
    active = np.flatnonzero(hi - lo > 1)
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        up = probe(k[active], mid)
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
        active = active[hi[active] - lo[active] > 1]
    return lo


def _switch_levels(tab: Tabulation, A: np.ndarray, B: np.ndarray, sign: float) -> np.ndarray:
    """``max_l sign * log(-A_l/B_l) / gam_l`` over the ``l`` with ``A_l < 0 < B_l``, per column.

    That is the switch level in ``sign * t``: going down past it, some
    residual ``A + exp(gam*t)*B`` changes sign; ``-inf`` where none does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.log(-A / B) / tab.gam[:, None]
    return np.max(np.where((A < 0.0) & (B > 0.0), sign * roots, -np.inf), axis=0)


def _certified_levels(
    tab: Tabulation,
    P: np.ndarray,
    Wc: np.ndarray,
    cert: Callable[[np.ndarray, np.ndarray], np.ndarray],
    k: np.ndarray,
    run: tuple[np.ndarray, np.ndarray],
    ends: tuple[np.ndarray, np.ndarray],
    sign: float,
) -> np.ndarray:
    """The grid level at each node ``k`` where ``cert`` holds and one grid step inward not.

    On the piece between the levels ``ends`` the test boundary of node
    ``k`` sits at its level on the segments ``run`` spans (as in
    :func:`_affine`); ``cert`` holds at the end lower in ``sign * t`` and
    not at the other, so ``sign * t`` grows inward.  The grid point just
    below (in ``sign * t``) the closed-form switch level is checked
    together with its inward neighbour in one evaluation.  Where that check
    fails, a search on the grid, galloping from the checked pair and then
    bisecting, finds the point between the piece's ends.
    """
    t_a, t_b = ends
    tau_out, tau_in = np.minimum(sign * t_a, sign * t_b), np.maximum(sign * t_a, sign * t_b)
    tau = np.clip(_switch_levels(tab, *_affine(tab, P, Wc, *run), sign), tau_out, tau_in)
    # Grid indices, inward-positive; ``ceil(tau / GRID) - 1`` is the grid
    # point strictly below ``tau``.
    x = np.ceil(tau / GRID) - 1.0
    lo, hi = np.ceil(tau_out / GRID) - 1.0, np.ceil(tau_in / GRID)

    def probe(k, x):
        return cert(k, sign * GRID * x)

    m = k.shape[0]
    c = probe(np.concatenate([k, k]), np.concatenate([x, x + 1.0]))
    c0, c1 = c[:m], c[m:]
    lo = np.where(c1, x + 1.0, np.where(c0, x, lo))
    hi = np.where(c1, hi, np.where(c0, x + 1.0, x))
    # Gallop inward from a certified pair, outward from an uncertified one.
    up, gallop = c1, np.flatnonzero(c1 | ~c0)
    step = 1.0
    while gallop.size:
        nxt = np.where(up[gallop], lo[gallop] + step, hi[gallop] - step)
        inside = (lo[gallop] < nxt) & (nxt < hi[gallop])
        gallop, nxt = gallop[inside], nxt[inside]
        c = probe(k[gallop], nxt)
        lo[gallop[c]] = nxt[c]
        hi[gallop[~c]] = nxt[~c]
        gallop = gallop[c == up[gallop]]
        step *= 2.0
    return sign * GRID * _last_true(probe, k, lo, hi)


def lower_step(
    p: Problem, upper: BoundaryGrid, tab: Tabulation
) -> tuple[BoundaryGrid, np.ndarray]:
    """Per-node lower bounds certified against ``upper`` on ``tab``'s weights.

    The bound at node ``k`` is the highest level ``t`` on the grid of
    :data:`GRID` at which some residual of the test boundary is ``< 0``,
    so that ``d(y_k) >= t``; one grid step up every residual is ``>= 0``.
    The switch level lies between the two, and the step returns the side
    below it, where the certificate holds, so every bound is proved by an
    evaluated residual.  A grid point rather than the switch level itself
    is returned so that the bound depends only on residual signs at fixed
    levels.

    Returns the new lower grid and a boolean truncation-flag array marking
    nodes whose certificate still fails at ``-t_max``, with ``t_max = 50 /
    r`` (50 when ``r = 0``); their bound is ``-t_max``.  An ``upper`` that
    fails its own certificate raises ``ValueError``.
    """
    tab.require_nodes(upper.nodes)
    t_max = _default_t_max(p)
    n = upper.nodes.shape[0]
    u = upper.values[:-1]
    P, Wc = _prefix_sums(tab, u)
    neg_u, breaks = -u, np.append(u, -t_max)
    evals = 0

    def cert(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        # Test boundary min(t, u_n) on segments k.. : u is non-increasing, so
        # it sits at t on k..j-1 and at u_n from j = max(k, #{u_n >= t}) on.
        nonlocal evals
        evals += 1
        j = np.maximum(k, np.searchsorted(neg_u, -t, side="right"))
        return _block_residuals(tab, P, Wc, k, j, t).min(axis=0) < 0.0

    def level(k: np.ndarray, i: np.ndarray) -> np.ndarray:
        # Breakpoint i of node k: 0 at i = k - 1, u_i, then -t_max at i = N - 1.
        return np.where(i < k, 0.0, breaks[i])

    out = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    k = np.arange(1, n)
    # At t = 0 every node's test boundary is ``upper`` itself.
    if np.any(cert(k, np.zeros(k.shape))):
        raise ValueError("lower_step: the upper bound fails its own certificate")
    deep = ~cert(k, np.full(k.shape, -t_max))
    out[k[deep]] = -t_max
    truncated[k[deep]] = True
    k = k[~deep]
    # Between breakpoints i and i + 1 the level covers segments k..i.
    i = _last_true(lambda k, i: ~cert(k, level(k, i)), k, k - 1, np.full(k.shape, n - 1))
    out[k] = _certified_levels(tab, P, Wc, cert, k, (k, i + 1),
                               (level(k, i), level(k, i + 1)), 1.0)
    log.debug("lower step: %d residual-block evaluations", evals)
    out = _monotone_from_right(np.minimum(out, upper.values))
    return upper.with_values(out), truncated


def upper_step(p: Problem, lower: BoundaryGrid, tab: Tabulation) -> BoundaryGrid:
    """Per-node upper bounds certified against ``lower`` on ``tab``'s weights.

    The bound at node ``k`` is the lowest level ``t`` on the grid of
    :data:`GRID` at which some residual of the test boundary is ``> 0``,
    so that ``d(y_k) <= t``; one grid step down every residual is ``<= 0``.
    As in :func:`lower_step`, the step returns the certified side of the
    switch level, a grid point, and ``0`` where no level below ``0`` is
    certified.  A ``lower`` that fails its own certificate raises
    ``ValueError``.
    """
    tab.require_nodes(lower.nodes)
    t_max = _default_t_max(p)
    n = lower.nodes.shape[0]
    # Supposing d(y_k) > t, a non-increasing d exceeds t on segments 0..k-1
    # and is at least lower[n+1] on segment n: that floor is v_n.
    v = lower.values[1:]
    P, Wc = _prefix_sums(tab, v)
    neg_v = -v
    evals = 0

    def cert(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        # Test boundary max(t, v_n) on segments ..k-1: v is non-increasing, so
        # it keeps v_n up to j = #{v_n >= t} and sits at t on j..k-1.
        nonlocal evals
        evals += 1
        j = np.minimum(np.searchsorted(neg_v, -t, side="right"), k)
        return _block_residuals(tab, P, Wc, j, k, t).max(axis=0) > 0.0

    def level(i: np.ndarray) -> np.ndarray:
        # Breakpoint i: 0 at i = -1, then v_i.
        return np.where(i < 0, 0.0, v[i])

    out = np.zeros(n)
    k = np.arange(1, n)
    k = k[cert(k, np.zeros(k.shape))]
    # At t = -t_max every node's test boundary is ``lower`` itself.
    if np.any(cert(k, np.full(k.shape, -t_max))):
        raise ValueError("upper_step: the lower bound fails its own certificate")
    # Between breakpoints i and i + 1 the level covers segments i + 1..k-1;
    # at v_(k-1) the test boundary is ``lower`` again.
    i = _last_true(lambda k, i: cert(k, level(i)), k, np.full(k.shape, -1), k - 1)
    out[k] = _certified_levels(tab, P, Wc, cert, k, (i + 1, k), (level(i), level(i + 1)), -1.0)
    log.debug("upper step: %d residual-block evaluations", evals)
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
