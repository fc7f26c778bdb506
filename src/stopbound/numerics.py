"""Self-contained numerical primitives.

Quadrature on finite and semi-infinite intervals, the standard normal
CDF/PDF, and bracketed scalar root finding.  All functions are pure and
deterministic for fixed inputs, so they are safe for concurrent use.

Nothing here uses SciPy.  Root finding is Brent's method in pure Python;
adaptive quadrature is a Gauss--Kronrod 7-15 rule with bisection of the
worst panel, whose nodes, weights and error estimate are QUADPACK's
``qk15`` (Piessens et al. 1983, *QUADPACK*), on NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "RootBracket",
    "ToleranceNotMetError",
    "InvalidDecayError",
    "BracketError",
    "DEFAULT_QUADRATURE",
    "integrate_finite",
    "integrate_semi_infinite",
    "norm_cdf",
    "norm_pdf",
    "find_root",
]


class ToleranceNotMetError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, estimate: float, error_bound: float, message: str = ""):
        super().__init__(
            message
            or f"quadrature tolerance not met: estimate={estimate!r}, "
            f"error bound={error_bound!r}"
        )
        self.estimate = estimate
        self.error_bound = error_bound


class InvalidDecayError(ValueError):
    """A semi-infinite integral was requested with a non-positive decay rate."""


class BracketError(ValueError):
    """A root bracket does not actually bracket a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature.

    ``absolute_tolerance`` and ``relative_tolerance`` are the error targets
    of each adaptive integral, ``max(absolute_tolerance, relative_tolerance
    * |I|)``, and ``max_subdivisions`` caps its panels;
    :func:`integrate_finite` raises when the target is missed.
    :func:`integrate_semi_infinite` also truncates at the first doubled
    cutoff ``T`` where the tail bound ``|f(T)| / decay_rate`` is at most
    ``absolute_tolerance``.
    """

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.relative_tolerance <= 0.0 or self.absolute_tolerance <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class RootBracket:
    """A sign-changing interval [lo, hi] with the endpoint values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise BracketError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise BracketError(
                f"endpoint values {self.f_lo} and {self.f_hi} do not change sign"
            )


# The Gauss--Kronrod 7-15 rule on [-1, 1] (QUADPACK's ``qk15``): the
# Kronrod abscissae and weights from the left end to the centre; the Gauss
# rule uses every other abscissa, starting from the second.
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_GK_X = np.array([-x for x in _KRONROD_X] + list(_KRONROD_X[-2::-1]))
_GK_WK = np.array(_KRONROD_W + _KRONROD_W[-2::-1])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = _GAUSS_W + _GAUSS_W[-2::-1]
_EPS = np.finfo(float).eps


def _gk15(f, a: float, b: float):
    """``(error, a, b, estimate)`` of the 15-point Kronrod rule on ``[a, b]``.

    The error is QUADPACK's: ``|K - G|`` rescaled by the integral of
    ``|f - mean|`` and floored at 50 ulp of the integral of ``|f|``.
    ``None`` when the panel is so narrow that a rule point rounds onto an
    end.  ``f`` is called once, on the array of the 15 rule points; a
    value that does not depend on the points (a constant) is broadcast.
    """
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GK_X
    if not a < x[0] <= x[-1] < b:
        return None
    fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    kronrod = float(_GK_WK @ fx)
    err = abs(half * (kronrod - float(_GK_WG @ fx)))
    resasc = abs(half) * float(_GK_WK @ np.abs(fx - 0.5 * kronrod))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(50.0 * _EPS * abs(half) * float(_GK_WK @ np.abs(fx)), err)
    return err, a, b, half * kronrod


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integrate ``f`` over ``[a, b]`` with adaptive Gauss--Kronrod panels.

    Each panel takes the 15-point Kronrod rule, with the embedded 7-point
    Gauss rule for its error estimate; the panel with the largest error is
    bisected until the summed error is at most
    ``max(abs_tol, rel_tol * |I|)``.  Panels are open (the endpoints are
    never evaluated), so integrable endpoint singularities are tolerated.
    ``f`` takes a NumPy array of points and returns their values (or a
    value that broadcasts against them): each panel is one call on its 15
    rule points.  Raises
    :class:`ToleranceNotMetError`, with the estimate and its error bound,
    when the target is not met within ``max_subdivisions`` panels, the
    integrand is not finite at a rule point, or the worst panel is too
    narrow to bisect.  Without QUADPACK's extrapolation,
    a singularity at an end away from 0 (where panels cannot shrink below
    the float spacing) can be resolved only to about ``sqrt(eps)``
    relative, and raises at tighter tolerances.
    """
    if a > b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    panels = [_gk15(f, a, b)]
    if panels[0] is None:
        raise ToleranceNotMetError(math.nan, math.inf, f"[{a}, {b}] is too narrow to integrate")
    while True:
        value = math.fsum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise ToleranceNotMetError(value, err, f"integrate_finite on [{a}, {b}]: "
                                       "the integrand is not finite at a rule point")
        if err <= max(spec.absolute_tolerance, spec.relative_tolerance * abs(value)):
            return value
        if len(panels) >= spec.max_subdivisions:
            raise ToleranceNotMetError(
                value, err, f"integrate_finite on [{a}, {b}]: "
                f"{spec.max_subdivisions} panels leave error bound {err!r}"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, whole = panels[worst]
        mid = 0.5 * (lo + hi)
        left, right = _gk15(f, lo, mid), _gk15(f, mid, hi)
        if left is None or right is None:
            raise ToleranceNotMetError(
                value, err, f"integrate_finite on [{a}, {b}]: panel [{lo}, {hi}] cannot be bisected"
            )
        # A jump between a panel's end and its outermost node moves the
        # Kronrod and the Gauss sums alike, so the rule's own estimate
        # misses it; the halves' disagreement with their parent does not.
        split = 0.5 * abs(whole - left[3] - right[3])
        panels[worst] = (max(left[0], split),) + left[1:]
        panels.append((max(right[0], split),) + right[1:])


def integrate_semi_infinite(
    f,
    a: float,
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` from ``-inf`` to ``a``.

    The caller declares an exponential decay rate valid toward ``-inf``;
    the truncation point ``a - span`` doubles its span until the implied
    tail bound ``|f(a - span)| / decay_rate`` falls below the absolute
    tolerance, after which the finite integral is evaluated adaptively.
    ``f`` takes point arrays as in :func:`integrate_finite`; the tail probe
    passes it a single float.
    """
    if decay_rate <= 0.0:
        raise InvalidDecayError(f"declared decay rate must be positive, got {decay_rate}")
    span = 1.0
    for _ in range(200):
        if abs(f(a - span)) / decay_rate <= spec.absolute_tolerance:
            break
        span *= 2.0
    else:  # pragma: no cover - pathological integrand
        raise ToleranceNotMetError(math.nan, math.inf, "tail bound never satisfied")
    return integrate_finite(f, a - span, a, spec)


def norm_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def find_root(f, bracket: RootBracket, tol: float = 1e-10) -> float:
    """Locate a root of ``f`` inside a validated bracket.

    Uses Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4) in pure Python, so no SciPy module is loaded.  It
    takes the steps of SciPy's ``brentq`` with ``xtol=tol`` and
    ``rtol=4 * 2.3e-16`` and returns the same bits.  The values at the
    bracket ends are read from ``bracket``, not evaluated again, so they
    must be ``f(lo)`` and ``f(hi)``.  The result lies within the initial
    bracket and is within ``tol + rtol * |x*|`` of a sign change of ``f``.
    A NaN function value raises ``ValueError``, and a run that has not
    converged after 100 iterations raises ``RuntimeError``.
    """
    if tol <= 0.0:
        raise ValueError(f"root tolerance must be positive, got {tol}")
    return _brent(f, float(bracket.lo), float(bracket.hi),
                  float(bracket.f_lo), float(bracket.f_hi), tol, 4.0 * 2.3e-16)


_BRENT_MAXITER = 100


def _checked(x: float, fx: float) -> float:
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _div(a: float, b: float) -> float:
    """``a / b`` in IEEE arithmetic: a zero divisor gives an infinity or NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brent(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """Brent's method, step for step as ``scipy/optimize/Zeros/brentq.c``.

    ``fa`` and ``fb`` are ``f(xa)`` and ``f(xb)``, already evaluated.
    ``xcur`` is the best estimate, ``xpre`` the previous one and ``xblk``
    the contrapoint, with ``f(xblk)`` of the other sign; ``scur`` and
    ``spre`` are the last two steps.  The run stops when half the bracket
    is below ``delta = (xtol + rtol * |xcur|) / 2``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(xpre, fa)
    fcur = _checked(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; the denominator underflows to 0 for tiny |f|
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            short, limit = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (short if short < limit else limit):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(xcur, float(f(xcur)))
    raise RuntimeError(
        f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}"
    )
