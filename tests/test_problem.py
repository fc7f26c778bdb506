"""Problem construction, normalization data and definition files."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stopbound import cli, oracle
from stopbound.fredholm import BoundaryGrid
from stopbound.numerics import DEFAULT_QUADRATURE
from stopbound.problem import (
    DriftedProblem,
    Problem,
    ProblemFileError,
    UnsupportedRegimeError,
    american_put,
    builtin,
    load_problem_file,
    numeric_laplace,
    remove_drift,
    smooth_fit_b_inf,
)


class TestBuiltins:
    def test_unknown_label(self):
        with pytest.raises(ValueError):
            builtin("nope")

    def test_linear(self):
        p = builtin("linear")
        assert p.r == 1.0
        assert p.b_inf == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert p.h_tilde(-0.3) == pytest.approx(-0.3)
        assert p.c_min == pytest.approx(math.sqrt(2.0))
        for c in (2.0, 5.0):
            assert p.laplace_h_tilde(c) == pytest.approx(-1.0 / c**2, abs=1e-14)

    def test_linear_laplace_against_quadrature(self):
        p = builtin("linear")
        num = numeric_laplace(p.h_tilde)
        for c in (1.7, 3.0):
            assert num(c) == pytest.approx(p.laplace_h_tilde(c), abs=1e-10)

    def test_stadje(self):
        p = builtin("stadje")
        assert p.r == 0.0
        assert math.isinf(p.b_inf)
        assert p.h(2.0) == pytest.approx(-8.0 / 3.0)
        assert p.h_tilde(0.5) == pytest.approx(0.5)


class TestAmericanPut:
    def test_normalization_data(self):
        p = american_put(rho=1.0, theta=0.5)
        z0 = math.log(0.5)
        kappa = 1.0 - 2.0 - 0.5
        r_prime = 1.0 + kappa * kappa / 2.0
        assert p.r == pytest.approx(r_prime)
        # the payoff kink at z = 0 is the atom, at y = log(theta)
        assert p.atoms == ((z0, -0.5),)
        # perpetual boundary, independent closed form
        s = math.sqrt(2.0 * r_prime)
        z_inf = math.log((kappa + s) / (kappa + 1.0 + s))
        assert p.b_inf == pytest.approx(z0 - z_inf, abs=1e-8)

    def test_original_coordinate_flip(self):
        # y = log(theta) - z: the normalized payoff is the drift-removed
        # payoff rho * exp(kappa*z) * (1 - exp(z))^+ read at that z.
        rho, theta = 0.6, 0.45
        p = american_put(rho=rho, theta=theta)
        kappa = rho - rho / theta - 0.5
        for y in (-1.0, 0.0, 0.2, math.log(theta), 1.5):
            z = math.log(theta) - y
            assert p.h(y) == pytest.approx(
                rho * math.exp(kappa * z) * max(1.0 - math.exp(z), 0.0), rel=1e-12, abs=1e-15
            )
        # h_tilde vanishes past the kink and changes sign at the origin
        assert p.h_tilde(math.log(theta)) == 0.0
        assert p.h_tilde(-0.1) < 0.0 < p.h_tilde(0.1)

    def test_laplace_matches_quadrature_with_atom(self):
        p = american_put(rho=1.0, theta=0.5)
        num = numeric_laplace(p.h_tilde, p.atoms)
        for c in (2.5, 4.0, 7.0):
            assert num(c) == pytest.approx(p.laplace_h_tilde(c), abs=1e-10)

    def test_payoff_positive_part(self):
        p = american_put(rho=1.0, theta=0.5)
        assert p.h(-1.0) == 0.0
        assert p.h(0.1) > 0.0

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            american_put(rho=1.0, theta=1.5)
        with pytest.raises(ValueError):
            american_put(rho=-1.0, theta=0.5)


class TestSmoothFit:
    def test_linear_payoff(self):
        assert smooth_fit_b_inf(lambda y: y, 1.0, bracket=(1e-3, 5.0)) == pytest.approx(
            math.sqrt(0.5), abs=1e-8
        )

    def test_scaling_invariance(self):
        # the pasting condition is homogeneous in the payoff
        b1 = smooth_fit_b_inf(lambda y: y, 2.0, bracket=(1e-3, 5.0))
        b2 = smooth_fit_b_inf(lambda y: 7.0 * y, 2.0, bracket=(1e-3, 5.0))
        assert b1 == pytest.approx(b2, abs=1e-10)

    def test_builtins_b_inf_is_their_smooth_fit(self):
        p = builtin("linear")
        assert abs(p.b_inf - smooth_fit_b_inf(p.h, p.r, bracket=(1e-3, 5.0))) <= 1e-8
        for rho in (0.3, 0.7, 1.0, 1.5, 2.0):
            for theta in (0.2, 0.35, 0.5, 0.7, 0.9):
                p = american_put(rho, theta)
                hi = max(20.0, -4.0 * math.log(theta))
                assert abs(p.b_inf - smooth_fit_b_inf(p.h, p.r, bracket=(1e-6, hi))) <= 1e-8


class TestScaled:
    def test_positive_scaling(self):
        p = builtin("linear")
        q = p.scaled(7.0)
        assert q.h_tilde(-0.2) == pytest.approx(7.0 * p.h_tilde(-0.2))
        assert q.laplace_h_tilde(3.0) == pytest.approx(7.0 * p.laplace_h_tilde(3.0))
        assert q.b_inf == p.b_inf

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            builtin("linear").scaled(0.0)


class TestRemoveDrift:
    def test_discount_shift(self):
        q = remove_drift(DriftedProblem(mu=1.0, r=0.25, h=lambda y: 1.0))
        assert q.r == pytest.approx(0.75)
        assert q.h(0.3) == pytest.approx(math.exp(0.3))

    def test_exponential_invariant_payoff(self):
        # payoff 1 with drift 1 and no discount transforms to e^y at rate 1/2,
        # for which r'*h' - h''/2 vanishes identically
        q = remove_drift(DriftedProblem(mu=1.0, r=0.0, h=lambda y: 1.0))
        for y in (-1.0, 0.0, 0.7):
            assert abs(q.h_tilde(y)) <= 1e-4

    def test_degenerate_rate_rejected(self):
        with pytest.raises(ValueError):
            remove_drift(DriftedProblem(mu=0.0, r=0.0, h=lambda y: 1.0))


class TestProblemValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Problem(
                label="bad",
                r=-1.0,
                h_tilde=lambda y: y,
                laplace_h_tilde=lambda c: 0.0,
                b_inf=1.0,
            )

    def test_nonpositive_b_inf_rejected(self):
        with pytest.raises(ValueError):
            Problem(
                label="bad",
                r=1.0,
                h_tilde=lambda y: y,
                laplace_h_tilde=lambda c: 0.0,
                b_inf=0.0,
            )


class TestUnboundedProblem:
    """``b_inf = math.inf`` alone marks an unbounded terminal continuation set."""

    def test_every_reader_treats_it_as_unbounded(self, tmp_path, capsys):
        p = replace(builtin("linear"), b_inf=math.inf)
        with pytest.raises(ValueError, match="unbounded"):
            BoundaryGrid.uniform(p, 10)
        lo, hi = oracle.default_x_bounds(p, -4.0)
        assert lo == -hi
        # stadje's b_inf is math.inf (TestBuiltins::test_stadje)
        rc = cli.main(["oracle", "--problem", "stadje", "--t-min", "-1.0", "--t-steps", "64",
                       "--x-steps", "64", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "oracle_tb.csv").exists()
        assert not (tmp_path / "oracle_yd.csv").exists()


class TestProblemFile:
    def _write(self, tmp_path, text):
        f = tmp_path / "prob.txt"
        f.write_text(text, encoding="utf-8")
        return str(f)

    def test_round_trip_linear(self, tmp_path):
        path = self._write(
            tmp_path,
            "label = filelinear\n"
            "r = 1.0\n"
            f"b_inf = {math.sqrt(0.5)!r}\n"
            "htilde_expr = y\n",
        )
        p = load_problem_file(path)
        ref = builtin("linear")
        assert p.label == "filelinear"
        for c in (2.0, 4.0):
            assert p.laplace_h_tilde(c) == pytest.approx(
                ref.laplace_h_tilde(c), abs=1e-9
            )

    def test_expression_namespace(self, tmp_path):
        path = self._write(
            tmp_path,
            "r = 1.0\nb_inf = 1.0\nhtilde_expr = exp(y) - 1\n",
        )
        p = load_problem_file(path)
        assert p.h_tilde(0.5) == pytest.approx(math.exp(0.5) - 1.0)

    def test_atoms_parsed(self, tmp_path):
        path = self._write(
            tmp_path,
            "r = 1.0\nb_inf = 1.0\nhtilde_expr = y\natoms = -0.5:2.0; 0.25:-1.0\n",
        )
        assert load_problem_file(path).atoms == ((-0.5, 2.0), (0.25, -1.0))

    def test_missing_key(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_file(self._write(tmp_path, "r = 1.0\n"))

    def test_bad_expression(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_file(
                self._write(tmp_path, "r = 1\nb_inf = 1\nhtilde_expr = y +\n")
            )

    @pytest.mark.parametrize(
        "expr",
        [
            "max(0.0, ().__class__.__mro__[1].__subclasses__().__len__()) + 0*y",
            "y.real",
            "(y, 1)[0]",
            "(lambda t: t)(y)",
            "z * y",
            "exp",
            "True + y",
            "'1' * 2",
            "y < 1",
            "exp(x=y)",
            "exp(*[y])",
        ],
    )
    def test_expression_outside_whitelist_rejected(self, tmp_path, expr):
        with pytest.raises(ProblemFileError):
            load_problem_file(
                self._write(tmp_path, f"r = 1\nb_inf = 1\nhtilde_expr = {expr}\n")
            )

    @pytest.mark.parametrize(
        "expr",
        ["exp()", "exp(y, 1)", "log()", "log(y, 2, 3)", "pow(y)", "pow(y, 2, 3)",
         "max()", "max(y)", "1 + exp(max(y))"],
    )
    def test_call_arity_checked_at_load(self, tmp_path, expr):
        with pytest.raises(ProblemFileError, match="argument"):
            load_problem_file(
                self._write(tmp_path, f"r = 1\nb_inf = 1\nhtilde_expr = {expr}\n")
            )

    def test_call_arity_limits_accepted(self, tmp_path):
        path = self._write(
            tmp_path,
            "r = 1\nb_inf = 1\nhtilde_expr = log(2 + y, 3) + max(y, 0.2, 0.4, -1)\n",
        )
        p = load_problem_file(path)
        for y in (0.0, 0.3, 0.9):
            assert p.h_tilde(y) == math.log(2 + y, 3) + max(y, 0.2, 0.4, -1)

    def test_array_is_one_call(self, tmp_path):
        path = self._write(
            tmp_path,
            "r = 1\nb_inf = 1\nhtilde_expr = log(2 + y, 3) * exp(-y) + max(y, 0.3, 2*y - 1)"
            " - pow(y, 2) / 4\n",
        )
        p = load_problem_file(path)
        ys = np.linspace(-1.0, 1.5, 41).reshape(1, 41)
        got = p.h_tilde(ys)
        assert got.shape == ys.shape
        assert np.array_equal(got[0], [p.h_tilde(y) for y in ys[0].tolist()])

    def test_whitelisted_arithmetic(self, tmp_path):
        path = self._write(
            tmp_path,
            "r = 1\nb_inf = 1\n"
            "htilde_expr = -2*y**2 + pow(y, 3)/4 - log(1 + y) + max(y, 0.5) - +y\n",
        )
        p = load_problem_file(path)
        for y in (0.0, 0.3, 0.9):
            assert p.h_tilde(y) == (
                -2 * y**2 + pow(y, 3) / 4 - math.log(1 + y) + max(y, 0.5) - +y
            )

    @pytest.mark.parametrize("line", ["bta = 2", "shift = 0.3"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = self._write(tmp_path, f"r = 1\nb_inf = 1\n{line}\nhtilde_expr = y\n")
        key = line.split()[0]
        with pytest.raises(ProblemFileError, match=f"prob.txt:3: unknown key '{key}'"):
            load_problem_file(path)

    def test_missing_file(self):
        with pytest.raises(ProblemFileError):
            load_problem_file("/definitely/not/here.txt")

    def test_bad_atom_entry(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_file(
                self._write(
                    tmp_path, "r = 1\nb_inf = 1\nhtilde_expr = y\natoms = oops\n"
                )
            )
