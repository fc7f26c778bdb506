"""Universal small-time boundary constants.

Near the terminal time the stopping boundary of a one-sided problem behaves
like ``d(y) = -B * y**2 + o(y**2)`` where ``B`` depends only on the local
power ``beta`` of the generator payoff at the edge of the terminal
continuation set and on the ratio ``m_ratio`` of its one-sided leading
coefficients: with ``|h_tilde(y)| ~ m_left * |y|**beta`` on the continuation
side ``y < 0`` and ``m_right * y**beta`` on the stopping side ``y > 0``,
``m_ratio = m_left / m_right``, the left coefficient's magnitude over the
right's.  ``B`` is pinned down by the moment identity

    integral_0^inf z**beta * exp(-B z**2 / 2 + z) dz = m_ratio * Gamma(beta+1)

whose left side is strictly decreasing in ``B``.  The square-root-in-time
form of the same statement reads ``b(t) = alpha * sqrt(-t) + o(sqrt(-t))``
with ``alpha = 1 / sqrt(B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    RootBracket,
    find_root,
    integrate_semi_infinite,
    norm_cdf,
    norm_pdf,
)

__all__ = [
    "AsymptoticConstant",
    "ConstantOutOfRangeError",
    "moment_integral",
    "closed_form_moment",
    "solve_B",
    "stadje_alpha",
]

_BRACKET_LO = 1e-3
_BRACKET_HI = 1e3
# Root tolerances of :func:`solve_B` and :func:`stadje_alpha`.
_B_TOL = 1e-10
_ALPHA_TOL = 1e-12


class ConstantOutOfRangeError(ValueError):
    """The defining identity has no root inside the search bracket."""


@dataclass(frozen=True)
class AsymptoticConstant:
    """Leading boundary coefficient ``B`` and its square-root form ``alpha``."""

    beta: float
    m_ratio: float
    B: float
    alpha: float

    def identity_residual(self) -> float:
        """Residual of the defining moment identity at the stored ``B``."""
        return moment_integral(self.B, self.beta) - self.m_ratio * math.gamma(self.beta + 1.0)


def moment_integral(B: float, beta: float) -> float:
    """``integral_0^inf z**beta * exp(-B z**2/2 + z) dz`` by quadrature."""
    if B <= 0.0:
        raise ValueError("B must be positive")

    def f(z: float) -> float:
        if z <= 0.0:
            return 0.0
        return z**beta * math.exp(-B * z * z / 2.0 + z)

    # The integrand decays like exp(-B z^2/2); past the mode any rate below
    # B*z - 1 is a valid exponential bound, 1.0 is safely conservative.
    return integrate_semi_infinite(f, 0.0, +1, 1.0)


def closed_form_moment(B: float) -> float:
    """Analytic value of ``integral_0^inf z * exp(-B z**2/2 + z) dz``.

    Completing the square in the exponent gives
    ``1/B + sqrt(2 pi) * exp(1/(2B)) * Phi(1/sqrt(B)) / B**1.5``.
    """
    if B <= 0.0:
        raise ValueError("B must be positive")
    return 1.0 / B + math.sqrt(2.0 * math.pi) * math.exp(1.0 / (2.0 * B)) * norm_cdf(
        1.0 / math.sqrt(B)
    ) / B**1.5


def solve_B(beta: float, m_ratio: float = 1.0) -> AsymptoticConstant:
    """Solve the moment identity for ``B`` at the given local power.

    The moment integral is strictly decreasing in ``B``, so the root inside
    ``[1e-3, 1e3]`` is unique when it exists.
    """
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    if m_ratio <= 0.0:
        raise ValueError("m_ratio must be positive")
    target = m_ratio * math.gamma(beta + 1.0)

    def g(B: float) -> float:
        return moment_integral(B, beta) - target

    f_lo = g(_BRACKET_LO)
    f_hi = g(_BRACKET_HI)
    if f_lo * f_hi > 0.0:
        raise ConstantOutOfRangeError(
            f"no root of the defining identity in [{_BRACKET_LO}, {_BRACKET_HI}] "
            f"for beta={beta}, m_ratio={m_ratio}"
        )
    bracket = RootBracket(_BRACKET_LO, _BRACKET_HI, f_lo, f_hi)
    B = find_root(g, bracket, _B_TOL)
    return AsymptoticConstant(beta=beta, m_ratio=m_ratio, B=B, alpha=1.0 / math.sqrt(B))


def stadje_alpha() -> float:
    """Positive root of ``alpha**3 Phi(alpha) = (1 - alpha**2) phi(alpha)``.

    This is the square-root-boundary coefficient of the closed-form cubic
    benchmark problem and coincides with ``1/sqrt(B)`` at local power 1.
    """

    def g(a: float) -> float:
        return a**3 * norm_cdf(a) - (1.0 - a * a) * norm_pdf(a)

    bracket = RootBracket(0.1, 2.0, g(0.1), g(2.0))
    return find_root(g, bracket, _ALPHA_TOL)
