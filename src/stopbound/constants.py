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

import numpy as np

from .numerics import RootBracket, find_root, norm_cdf, norm_pdf

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
# The exp-sinh rule of :func:`moment_integral`: step 1/32 over t in [-4, 4],
# 257 points, with the factor (pi/2) * cosh(t) of dz/z at each.
_ES_STEP = 1.0 / 32.0
_ES_T = _ES_STEP * np.arange(-128, 129)
_ES_U = 0.5 * math.pi * np.sinh(_ES_T)
_ES_LOG_JACOBIAN = np.log(0.5 * math.pi * np.cosh(_ES_T))


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
    """``integral_0^inf z**beta * exp(-B z**2/2 + z) dz`` by the exp-sinh rule.

    The map ``z = lam * exp(pi/2 * sinh t)`` with ``lam = 1/B + 1/sqrt(B)``
    (Takahasi & Mori 1974) sends the half-line to the real line, where the
    integrand decays double-exponentially at both ends; the trapezoidal
    rule with step 1/32 over ``t`` in ``[-4, 4]`` (257 points) then sums
    it.  ``lam`` sits at the scale of the Gaussian bump, whose centre
    ``1/B`` and width ``1/sqrt(B)`` both matter.  The integrand is formed in
    log space, so no factor overflows even where the integral is near
    ``1e300``.  For ``beta`` in ``[0, 3.5]`` it agrees with the same rule
    at step 1/128 to 2e-15 relative for ``B`` in ``[0.01, 1e3]``, and to
    7e-4 at ``B = 1e-3``, the low end of :func:`solve_B`'s bracket, where
    the bump is narrower than the step and only the sign against the
    target is read.
    """
    if B <= 0.0:
        raise ValueError("B must be positive")
    lam = 1.0 / B + 1.0 / math.sqrt(B)
    z = lam * np.exp(_ES_U)
    log_f = (beta + 1.0) * (math.log(lam) + _ES_U) - 0.5 * B * z * z + z + _ES_LOG_JACOBIAN
    return _ES_STEP * float(np.exp(log_f).sum())


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
