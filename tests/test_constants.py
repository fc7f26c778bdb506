"""Universal boundary constants and their defining moment identity."""

import math

import pytest
from scipy.optimize import brentq

from stopbound.constants import (
    ConstantOutOfRangeError,
    closed_form_moment,
    moment_integral,
    solve_B,
    stadje_alpha,
)
from stopbound.numerics import norm_cdf, norm_pdf


def _beta0_closed_form(B: float) -> float:
    # Independent evaluation for local power 0: completing the square gives
    # sqrt(2*pi/B) * exp(1/(2B)) * Phi(1/sqrt(B)).
    return math.sqrt(2.0 * math.pi / B) * math.exp(1.0 / (2.0 * B)) * norm_cdf(
        1.0 / math.sqrt(B)
    )


class TestSolveB:
    def test_power_one_constant(self):
        # root of the closed-form moment identity, located independently
        target = brentq(lambda B: closed_form_moment(B) - 1.0, 1.0, 4.0, xtol=1e-14)
        const = solve_B(1.0)
        assert const.B == pytest.approx(target, abs=1e-8)
        assert const.alpha == pytest.approx(1.0 / math.sqrt(const.B), abs=1e-14)

    def test_identity_residual_small(self):
        assert abs(solve_B(1.0).identity_residual()) <= 1e-8

    def test_power_zero_constant(self):
        target = brentq(lambda B: _beta0_closed_form(B) - 1.0, 1.0, 8.0, xtol=1e-14)
        assert solve_B(0.0).B == pytest.approx(target, abs=1e-7)

    def test_monotone_in_m_ratio(self):
        # larger right-hand side pushes the root to smaller B
        assert solve_B(1.0, 2.0).B < solve_B(1.0, 1.0).B < solve_B(1.0, 0.5).B

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_B(-0.5)
        with pytest.raises(ValueError):
            solve_B(1.0, m_ratio=0.0)

    # Roots of the identity with the moment integral by QUADPACK's adaptive
    # quadrature, as the library computed it before its exp-sinh rule.
    QUADPACK_ROOTS = {
        (0.0, 1.0): 3.9048600287099657,
        (0.5, 1.0): 3.0133292766403086,
        (1.0, 1.0): 2.4503325097396105,
        (2.0, 1.0): 1.7814581322229386,
        (3.5, 1.0): 1.262609410258779,
        (1.0, 4.0): 1.0620845712753184,
    }

    @pytest.mark.parametrize("beta, m_ratio", list(QUADPACK_ROOTS))
    def test_roots_match_quadpack(self, beta, m_ratio):
        B = solve_B(beta, m_ratio).B
        assert B == pytest.approx(self.QUADPACK_ROOTS[beta, m_ratio], rel=0.0, abs=1e-10)

    def test_out_of_range_target(self):
        with pytest.raises(ConstantOutOfRangeError):
            solve_B(1.0, m_ratio=1e300)


class TestMomentIntegral:
    def test_matches_closed_form_at_power_one(self):
        for B in (0.5, 1.0, 2.45, 10.0):
            assert moment_integral(B, 1.0) == pytest.approx(
                closed_form_moment(B), rel=1e-9
            )

    def test_strictly_decreasing_in_B(self):
        vals = [moment_integral(B, 1.0) for B in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_B(self):
        with pytest.raises(ValueError):
            moment_integral(0.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_moment(-1.0)


class TestStadjeAlpha:
    def test_satisfies_defining_equation(self):
        a = stadje_alpha()
        assert a**3 * norm_cdf(a) - (1.0 - a * a) * norm_pdf(a) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_agrees_with_inverse_square_root_of_B(self):
        assert stadje_alpha() == pytest.approx(
            1.0 / math.sqrt(solve_B(1.0).B), abs=1e-6
        )
