"""Integral-equation residuals and the penalized discrete objective.

The stopping boundary ``d`` of a normalized problem is characterized by a
one-parameter family of integral identities: for every admissible kernel
parameter ``c > sqrt(2r)``,

    R(c; d) = laplace_h_tilde(c)
              + sum_n exp((c**2/2 - r) * d_n) * w_n(c)  =  0,

where ``w_n(c) = integral_{y_n}^{y_{n+1}} exp(c*y) h_tilde(y) dy`` and the
boundary is piecewise constant on segments, carrying the left-node value.
The discrete problem penalizes the residuals on a finite ``c``-grid through
``F_c(x) = (c**2 x + 1/(1 + c**2 x))**2``, which is ``>= 1`` with equality
exactly at ``x = 0``, so the objective is ``>= M`` with equality exactly
when every residual vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    norm_cdf,
    norm_pdf,
)
from .problem import Problem

__all__ = [
    "BoundaryGrid",
    "CGrid",
    "ResidualVector",
    "Tabulation",
    "InadmissibleCError",
    "segment_weights",
    "tabulate",
    "residual",
    "penalty",
    "objective",
    "verify_closed_form",
    "closed_form_residual",
]

# Points of the Gauss--Legendre rule for segment weights, and the relative
# gap to the rule with twice the points beyond which a segment is
# integrated adaptively.
_GL_POINTS = 6
_GL_GUARD_RTOL = 1e-12
# Spacing of the kernel parameters of :meth:`CGrid.for_problem`.
_C_STEP = 0.1


class InadmissibleCError(ValueError):
    """A kernel parameter at or below the admissibility limit sqrt(2r)."""


@dataclass
class BoundaryGrid:
    """Spatial nodes with the boundary's time values.

    ``nodes`` are strictly increasing and start at 0; ``values`` are the
    non-positive, non-increasing times ``d(y_n)``.  ``values[0] = 0`` is the
    normalization pin (the boundary passes through the origin).
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if self.nodes.shape[0] < 2:
            raise ValueError("a boundary grid needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] != 0.0:
            raise ValueError("the first node must be the origin")
        if np.any(self.values > 0.0):
            raise ValueError("boundary values must be non-positive")
        if np.any(np.diff(self.values) > 1e-12):
            raise ValueError("boundary values must be non-increasing")

    @classmethod
    def uniform(cls, p: Problem, n_nodes: int) -> "BoundaryGrid":
        """Zero-valued grid on ``n_nodes`` equispaced nodes over [0, b_inf]."""
        if not math.isfinite(p.b_inf):
            raise ValueError(
                f"problem {p.label!r} has an unbounded terminal continuation set; "
                "a finite grid cannot cover it"
            )
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        nodes = np.linspace(0.0, p.b_inf, n_nodes)
        return cls(nodes=nodes, values=np.zeros(n_nodes))

    def with_values(self, values: Sequence[float]) -> "BoundaryGrid":
        return BoundaryGrid(nodes=self.nodes.copy(), values=np.asarray(values, float))

    def __len__(self) -> int:
        return int(self.nodes.shape[0])


@dataclass(frozen=True)
class CGrid:
    """Strictly increasing kernel parameters."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.shape[0] < 1:
            raise ValueError("need at least one kernel parameter")
        if not np.all(np.diff(self.values) > 0.0):
            raise ValueError("kernel parameters must be strictly increasing")

    @classmethod
    def for_problem(cls, p: Problem, count: int) -> "CGrid":
        """``count`` parameters ``c_l = sqrt(2r) + 0.1*l``, ``l = 1..count``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(values=p.c_min + _C_STEP * np.arange(1, count + 1))

    def require_admissible(self, p: Problem) -> None:
        if self.values[0] <= p.c_min:
            raise InadmissibleCError(
                f"kernel parameter {self.values[0]} is not above sqrt(2r) = {p.c_min}"
            )

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ResidualVector:
    """Per-parameter residuals, their penalties and the summed objective."""

    c_values: np.ndarray
    residuals: np.ndarray
    penalties: np.ndarray

    @property
    def objective(self) -> float:
        return float(self.penalties.sum())


@dataclass(frozen=True)
class Tabulation:
    """Read-only kernel arrays of ``nodes`` over the parameters ``c_values``:
    ``lap[l] = laplace_h_tilde(c_l)``, ``W[l, n]`` the segment weights,
    ``gam[l] = c_l**2/2 - r`` and ``c2[l] = c_l**2``."""

    nodes: np.ndarray
    c_values: np.ndarray
    lap: np.ndarray
    W: np.ndarray
    gam: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        for a in (self.nodes, self.c_values, self.lap, self.W, self.gam, self.c2):
            a.setflags(write=False)

    def require_nodes(self, nodes: np.ndarray) -> None:
        if not np.array_equal(self.nodes, nodes):
            raise ValueError("the tabulation was built on another node set")

    def leading(self, cgrid: CGrid) -> "Tabulation":
        """The rows of the first ``len(cgrid)`` parameters, which must be ``cgrid``."""
        m = len(cgrid)
        if not np.array_equal(self.c_values[:m], cgrid.values):
            raise ValueError("the tabulation's parameters do not start with the grid's")
        rows = (self.c_values, self.lap, self.W, self.gam, self.c2)
        return Tabulation(self.nodes, *(a[:m] for a in rows))

    def residual_vector(self, grid: BoundaryGrid) -> ResidualVector:
        """Residuals and penalties of ``grid``'s values at every parameter."""
        with np.errstate(over="ignore", under="ignore"):
            R = _kernels.residuals(self.lap, self.W, self.gam, grid.values[:-1])
            pens = _kernels.penalties(self.c2, R)
        return ResidualVector(self.c_values.copy(), residuals=R, penalties=pens)


def _gauss_legendre(p: Problem, nodes: np.ndarray, cs: np.ndarray, q: int) -> np.ndarray:
    """``(M, N-1)`` weights by the ``q``-point Gauss--Legendre rule per segment.

    ``h_tilde`` is evaluated once per rule point, ``(N-1)*q`` calls whatever
    the number of parameters; the ``c``-dependence is one exponential.
    """
    x, w = np.polynomial.legendre.leggauss(q)
    half = 0.5 * np.diff(nodes)
    y = (0.5 * (nodes[:-1] + nodes[1:]))[:, None] + half[:, None] * x
    h = np.array([p.h_tilde(v) for v in y.ravel().tolist()]).reshape(y.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails the guard
        return np.einsum("lnq,nq->ln", np.exp(cs[:, None, None] * y), h * half[:, None] * w)


def segment_weights(p: Problem, grid: BoundaryGrid, c: float | np.ndarray) -> np.ndarray:
    """Kernel integrals ``w_n = integral_{y_n}^{y_{n+1}} exp(c*y) h_tilde(y) dy``.

    ``c`` is one parameter (the result is ``(N-1,)``) or an array of them
    (``(M, N-1)``).  Each segment takes a fixed 6-point Gauss--Legendre
    rule, exact to round-off for integrands smooth on the segment.  The
    rule is guarded by the 12-point rule: a segment where the two differ by
    more than 1e-12 relative (with the absolute tolerance of
    :data:`DEFAULT_QUADRATURE` as the floor) is integrated adaptively at
    every ``c`` instead, which catches a kink of a problem-file ``h_tilde``.
    A rule that is not finite fails its guard too, so a weight past the
    floating-point range raises ``OverflowError`` from the adaptive
    quadrature.
    Atoms of ``h_tilde`` located inside ``[0, b_inf]`` contribute
    ``weight * exp(c * location)`` to the segment that contains them.
    The weights are plain integrals and are defined for any ``c``;
    admissibility (``c > sqrt(2r)``) is enforced where the integral
    identity itself is evaluated.  Nothing is cached: a run shares its
    weights through one :class:`Tabulation`.
    """
    nodes = grid.nodes
    n_seg = nodes.shape[0] - 1
    cs = np.atleast_1d(np.asarray(c, dtype=float))
    w = _gauss_legendre(p, nodes, cs, _GL_POINTS)
    guard = _gauss_legendre(p, nodes, cs, 2 * _GL_POINTS)
    floor = np.maximum(_GL_GUARD_RTOL * np.abs(guard), DEFAULT_QUADRATURE.absolute_tolerance)
    passed = np.isfinite(guard) & (np.abs(w - guard) <= floor)
    for n in np.flatnonzero(~np.all(passed, axis=0)):
        for i, ci in enumerate(cs.tolist()):
            w[i, n] = integrate_finite(
                lambda y: math.exp(ci * y) * p.h_tilde(y), nodes[n], nodes[n + 1]
            )
    last = nodes[-1]
    for loc, weight in p.atoms:
        if nodes[0] <= loc <= last:
            n = min(int(np.searchsorted(nodes, loc, side="right")) - 1, n_seg - 1)
            w[:, n] += weight * np.exp(cs * loc)
    return w if np.ndim(c) else w[0]


def tabulate(p: Problem, grid: BoundaryGrid, cgrid: CGrid) -> Tabulation:
    """The :class:`Tabulation` of ``grid``'s nodes over ``cgrid``, computed afresh."""
    cgrid.require_admissible(p)
    cs = cgrid.values.copy()
    lap = np.array([p.laplace_h_tilde(c) for c in cs])
    W = segment_weights(p, grid, cs)
    return Tabulation(grid.nodes.copy(), cs, lap, W, cs * cs / 2.0 - p.r, cs * cs)


def residual(p: Problem, grid: BoundaryGrid, c: float) -> float:
    """The identity residual ``R(c; d)`` at a single kernel parameter.

    It is the residual of the one-parameter :class:`Tabulation`, so ``c`` at
    or below ``sqrt(2r)`` raises :class:`InadmissibleCError`.
    """
    return float(tabulate(p, grid, CGrid([c])).residual_vector(grid).residuals[0])


def penalty(c: float, x: float) -> float:
    """``F_c(x) = (c**2 x + 1/(1 + c**2 x))**2``, ``+inf`` at and past the pole."""
    with np.errstate(over="ignore"):
        return float(_kernels.penalties(c * c, x))


def objective(p: Problem, grid: BoundaryGrid, cgrid: CGrid) -> ResidualVector:
    """Residuals and penalties over the whole parameter grid."""
    return tabulate(p, grid, cgrid).residual_vector(grid)


def closed_form_residual(alpha: float, c: float) -> float:
    """Analytic residual of the square-root boundary of the cubic benchmark.

    Integrating ``(-x) * exp(c*x + c**2 s / 2)`` over
    ``{x < alpha*sqrt(-s), s < 0}`` in closed form gives

        (2 / c**4) * ((1 - alpha**2) - alpha**3 * Phi(alpha) / phi(alpha)),

    which vanishes exactly at the root of
    ``alpha**3 Phi(alpha) = (1 - alpha**2) phi(alpha)``.
    """
    if c <= 0.0:
        raise InadmissibleCError("kernel parameter must be positive")
    return (2.0 / c**4) * (
        (1.0 - alpha * alpha) - alpha**3 * norm_cdf(alpha) / norm_pdf(alpha)
    )


def verify_closed_form(label: str, cvalues: Sequence[float], alpha: float | None = None) -> float:
    """Max residual of the closed-form benchmark boundary over ``cvalues``.

    Supported label: ``stadje``.  Evaluates the continuous double integral
    ``integral_{-inf}^0 integral_{-inf}^{alpha*sqrt(-s)}
    (-x) exp(c*x + c**2 s/2) dx ds`` by iterated quadrature (the inner
    integral by quadrature as well, so this is an independent check of
    :func:`closed_form_residual`, not a re-evaluation of it).
    """
    if label != "stadje":
        raise ValueError(f"closed-form verification is not available for {label!r}")
    if alpha is None:
        from .constants import stadje_alpha

        alpha = stadje_alpha()
    # The outer integrand carries the inner quadrature's noise floor, so the
    # outer pass must not chase tolerances below that floor.
    outer_spec = QuadratureSpec(relative_tolerance=1e-8, absolute_tolerance=1e-9)
    worst = 0.0
    for c in cvalues:
        if c <= 0.0:
            raise InadmissibleCError("kernel parameter must be positive")

        def inner(s: float) -> float:
            u = alpha * math.sqrt(-s)
            return integrate_semi_infinite(
                lambda x: -x * math.exp(c * x), u, -1, max(c / 2.0, 0.25)
            )

        val = integrate_semi_infinite(
            lambda s: math.exp(c * c * s / 2.0) * inner(s),
            0.0,
            -1,
            c * c / 4.0,
            outer_spec,
        )
        worst = max(worst, abs(val))
    return worst
