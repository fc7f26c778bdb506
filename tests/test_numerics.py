"""Quadrature, root finding and normal-distribution primitives."""

import math
import random

import pytest
from scipy.optimize import brentq

from stopbound import constants, problem
from stopbound.numerics import (
    BracketError,
    DEFAULT_QUADRATURE,
    InvalidDecayError,
    QuadratureSpec,
    RootBracket,
    ToleranceNotMetError,
    find_root,
    integrate_finite,
    integrate_semi_infinite,
    norm_cdf,
    norm_pdf,
)


class TestIntegrateFinite:
    def test_polynomial_exact(self):
        # antiderivative x^3/3
        assert integrate_finite(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_empty_interval(self):
        assert integrate_finite(lambda x: x, 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_endpoint_singularity(self):
        # antiderivative 2*sqrt(x)
        val = integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_budget_exhaustion_raises_with_estimate(self):
        spec = QuadratureSpec(
            relative_tolerance=1e-13, absolute_tolerance=1e-14, max_subdivisions=1
        )
        with pytest.raises(ToleranceNotMetError) as exc:
            integrate_finite(lambda x: math.sin(50.0 * x), 0.0, 10.0, spec)
        assert math.isfinite(exc.value.estimate)


def _put_density(x):
    # exp(2.5 x) times the put's h_tilde at (1, 0.5), which jumps at
    # log(0.5): bisection puts the jump between a panel's end and its
    # outermost node, where the rule's own error estimate cannot see it.
    if x <= math.log(0.5):
        return 0.0
    return 2.0**1.5 * math.exp(4.0 * x) * (1.0 - math.exp(-x))


class TestAgainstQuadpack:
    """``integrate_finite`` agrees with QUADPACK's ``quad`` to 1e-10 relative.

    SciPy is the reference only; the library's quadrature does not use it.
    """

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: math.exp(3.0 * x) * math.cos(x), 0.0, 2.0),
        (lambda x: math.exp(-x * x), -5.0, 5.0),
        (lambda x: math.sin(50.0 * x), 0.0, 10.0),
        (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
        (lambda x: math.log(x), 0.0, 1.0),
        (lambda x: math.log(x) * math.exp(-x), 0.0, 3.0),
        (lambda x: max(0.0, x - 0.3) * math.exp(2.0 * x), 0.0, 1.0),
        (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0),
        (_put_density, -1.0, 0.0),
    ], ids=["smooth", "gaussian", "oscillating", "inverse-sqrt", "log", "log-weighted",
            "kink", "abs-kink", "jump"])
    def test_agrees_with_quad(self, f, a, b):
        from scipy.integrate import quad

        spec = DEFAULT_QUADRATURE
        want, _ = quad(f, a, b, epsabs=spec.absolute_tolerance,
                       epsrel=spec.relative_tolerance, limit=spec.max_subdivisions)
        assert integrate_finite(f, a, b) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_endpoints_never_evaluated(self):
        def f(x):
            assert 0.0 < x < 1.0
            return 1.0 / math.sqrt(x * (1.0 - x))

        # A singularity at an end away from 0 stops where the panels reach
        # the float spacing; that is a tolerance error, not an evaluation at
        # the end.
        with pytest.raises(ToleranceNotMetError):
            integrate_finite(f, 0.0, 1.0)
        loose = QuadratureSpec(relative_tolerance=1e-6, absolute_tolerance=1e-6)
        assert integrate_finite(f, 0.0, 1.0, loose) == pytest.approx(math.pi, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_integrand_raises(self):
        with pytest.raises(ToleranceNotMetError, match="not finite"):
            integrate_finite(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)


class TestIntegrateSemiInfinite:
    def test_exponential_decay_right(self):
        val = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, +1, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_exponential_decay_left(self):
        val = integrate_semi_infinite(lambda x: math.exp(2.0 * x), 0.0, -1, 2.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_tail(self):
        val = integrate_semi_infinite(norm_pdf, 0.0, +1, 1.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_invalid_decay_rejected(self):
        with pytest.raises(InvalidDecayError):
            integrate_semi_infinite(lambda x: math.exp(-x), 0.0, +1, 0.0)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: math.exp(-x), 0.0, 2, 1.0)


class TestNormal:
    def test_cdf_symmetry_and_values(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # classic two-sided 95% quantile
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert norm_cdf(-3.0) + norm_cdf(3.0) == pytest.approx(1.0, abs=1e-14)

    def test_pdf_integrates_against_cdf(self):
        # d/dx cdf = pdf at a few points by central differences
        for x in (-1.3, 0.0, 0.7):
            h = 1e-6
            fd = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h)
            assert fd == pytest.approx(norm_pdf(x), rel=1e-8)


class TestRootFinding:
    def test_cosine_root(self):
        br = RootBracket(1.0, 2.0, math.cos(1.0), math.cos(2.0))
        assert find_root(math.cos, br, 1e-12) == pytest.approx(
            math.pi / 2.0, abs=1e-10
        )

    def test_endpoint_root_shortcut(self):
        br = RootBracket(0.0, 1.0, 0.0, 1.0)
        assert find_root(lambda x: x, br) == 0.0

    def test_bad_bracket_rejected(self):
        with pytest.raises(BracketError):
            RootBracket(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(BracketError):
            RootBracket(1.0, 0.0, -1.0, 1.0)


def _brentq(f, bracket, tol):
    """SciPy's ``brentq`` with the tolerances :func:`find_root` documents."""
    return brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=4.0 * 2.3e-16)


class TestBrentPort:
    """``find_root`` returns the bits of SciPy's ``brentq`` on every call."""

    @pytest.fixture
    def compared(self, monkeypatch):
        # Route the library's own root finds through both solvers.
        pairs = []

        def both(f, bracket, tol=1e-10):
            got = find_root(f, bracket, tol)
            pairs.append((got, _brentq(f, bracket, tol)))
            return got

        monkeypatch.setattr(problem, "find_root", both)
        monkeypatch.setattr(constants, "find_root", both)
        return pairs

    def test_smooth_fit_roots(self, compared):
        problem.builtin("linear")
        for rho in (0.3, 0.7, 1.0, 1.5, 2.0):
            for theta in (0.2, 0.35, 0.5, 0.7, 0.9):
                problem.american_put(rho, theta)
        assert len(compared) == 26
        for got, want in compared:
            assert got == want

    def test_solve_B(self, compared):
        for beta in (0.0, 0.5, 1.0, 2.0):
            constants.solve_B(beta)
        assert len(compared) == 4
        for got, want in compared:
            assert got == want

    def test_stadje_alpha(self, compared):
        constants.stadje_alpha()
        (got, want), = compared
        assert got == want

    def test_random_bracketed_functions(self):
        # Cubic plus sine; every other one scaled by up to 1e-320 or 1e300,
        # where the extrapolation's denominator underflows to 0 or overflows.
        rng = random.Random(20260)
        checked = 0
        while checked < 1000:
            a3, a2, a1, a0, amp = (rng.uniform(-3.0, 3.0) for _ in range(5))
            freq = rng.uniform(0.1, 8.0)
            scale = 1.0 if checked % 2 else 10.0 ** rng.uniform(-320.0, 300.0)

            def f(x):
                return scale * (((a3 * x + a2) * x + a1) * x + a0 + amp * math.sin(freq * x))

            lo = rng.uniform(-5.0, 1.0)
            hi = lo + rng.uniform(0.01, 6.0)
            f_lo, f_hi = f(lo), f(hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) == (f_hi < 0.0):
                continue
            tol = 10.0 ** rng.uniform(-14.0, -4.0)
            bracket = RootBracket(lo, hi, f_lo, f_hi)
            assert find_root(f, bracket, tol) == _brentq(f, bracket, tol)
            checked += 1

    def test_random_staircases(self):
        # |f| ties between the estimate and the contrapoint on every step.
        rng = random.Random(7)
        for _ in range(300):
            r, s = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 20.0)

            def f(x):
                return math.floor(s * (x - r)) + 0.5

            lo, hi = rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0)
            tol = 10.0 ** rng.uniform(-14.0, -4.0)
            bracket = RootBracket(lo, hi, f(lo), f(hi))
            assert find_root(f, bracket, tol) == _brentq(f, bracket, tol)

    def test_nan_at_a_bracket_end_raises(self):
        bracket = RootBracket(0.0, 1.0, math.nan, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            find_root(lambda x: x - 0.5, bracket)

    def test_nan_value_raises(self):
        # Finite at the bracket ends, NaN at the first interior point.
        def f(x):
            return x - 0.5 if x in (0.0, 1.0) else math.nan

        bracket = RootBracket(0.0, 1.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, bracket, 1e-10)
        with pytest.raises(ValueError, match="NaN"):
            find_root(f, bracket)

    def test_step_exhausts_iterations(self):
        # Bisection toward 0 halves the bracket each step, while
        # delta = (1e-300 + rtol * |x|) / 2 shrinks with it: 100 steps do
        # not converge, in SciPy and here.
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.0 else 1.0

        bracket = RootBracket(-1.0, 3.0, -1.0, 1.0)
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            _brentq(step, bracket, 1e-300)
        scipy_calls = calls[:]
        calls.clear()
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            find_root(step, bracket, 1e-300)
        # SciPy evaluates both ends, then one point per iteration; find_root
        # reads the ends from the bracket.
        assert len(scipy_calls) == 102 and len(calls) == 100
        assert calls == scipy_calls[2:]

    def test_bracket_ends_not_evaluated_again(self, monkeypatch):
        # solve_B evaluates the bracket ends itself; brentq on that bracket
        # evaluates them a second time, find_root does not.
        calls = []
        moment_integral = constants.moment_integral

        def counted(B, *args):
            calls.append(B)
            return moment_integral(B, *args)

        monkeypatch.setattr(constants, "moment_integral", counted)
        got = constants.solve_B(1.0).B
        ours = calls[:]
        calls.clear()
        monkeypatch.setattr(constants, "find_root", _brentq)
        want = constants.solve_B(1.0).B
        assert got == want
        assert len(ours) == len(calls) - 2
        assert ours == calls[:2] + calls[4:]


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_defaults_sane(self):
        assert DEFAULT_QUADRATURE.relative_tolerance <= 1e-8
