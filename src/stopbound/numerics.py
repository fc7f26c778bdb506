"""Self-contained numerical primitives.

Quadrature on finite and semi-infinite intervals, the standard normal
CDF/PDF, and bracketed scalar root finding.  All functions are pure and
deterministic for fixed inputs, so they are safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, optimize

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
    endpoint singularities are tolerated.  Raises
    :class:`ToleranceNotMetError` if the error bound cannot be pushed below
    ``max(abs_tol, rel_tol * |I|)`` within the subdivision budget.
    """
    if a > b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
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

    Uses Brent's method; the result is guaranteed to lie within the initial
    bracket and satisfies ``|f(x*)| <= tol`` or a bracket width ``<= tol``.
    """
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    root = optimize.brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=4.0 * 2.3e-16)
    return float(root)
