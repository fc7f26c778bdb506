"""Self-contained numerical primitives.

Quadrature on finite and semi-infinite intervals, the standard normal
CDF/PDF, and bracketed scalar root finding.  All functions are pure and
deterministic for fixed inputs, so they are safe for concurrent use.

Importing this module loads no SciPy.  Root finding is Brent's method in
pure Python; adaptive quadrature is SciPy's ``quad``, whose module
``scipy.integrate`` is imported on the first call of
:func:`integrate_finite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integrate ``f`` over ``[a, b]`` with adaptive Gauss--Kronrod panels.

    Panels are open (the endpoints are never evaluated), so integrable
    endpoint singularities are tolerated.  The panels are SciPy's ``quad``;
    ``scipy.integrate`` is imported on the first call, not with the module.  Raises
    :class:`ToleranceNotMetError` if the error bound cannot be pushed below
    ``max(abs_tol, rel_tol * |I|)`` within the subdivision budget.
    """
    if a > b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    from scipy import integrate

    value, err, info, *tail = integrate.quad(
        f,
        a,
        b,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    if tail:  # quad appended a warning message: tolerance not reached
        raise ToleranceNotMetError(value, err, f"integrate_finite on [{a}, {b}]: {tail[0]}")
    if err > max(spec.absolute_tolerance, spec.relative_tolerance * abs(value)) * 10.0:
        raise ToleranceNotMetError(value, err)
    return value


def integrate_semi_infinite(
    f,
    a: float,
    direction: int,
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` from ``a`` towards ``+inf`` (direction=+1) or ``-inf``.

    The caller declares an exponential decay rate valid in the integration
    direction; the truncation point doubles until the implied tail bound
    ``|f(T)| / decay_rate`` falls below the absolute tolerance, after which
    the finite integral is evaluated adaptively.
    """
    if decay_rate <= 0.0:
        raise InvalidDecayError(f"declared decay rate must be positive, got {decay_rate}")
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    span = 1.0
    for _ in range(200):
        t = a + direction * span
        if abs(f(t)) / decay_rate <= spec.absolute_tolerance:
            break
        span *= 2.0
    else:  # pragma: no cover - pathological integrand
        raise ToleranceNotMetError(math.nan, math.inf, "tail bound never satisfied")
    if direction > 0:
        return integrate_finite(f, a, a + span, spec)
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
