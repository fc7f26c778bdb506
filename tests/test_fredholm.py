"""Kernel integrals, identity residuals and the penalized objective."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stopbound import bounds as bounds_mod
from stopbound import fredholm, solver
from stopbound.constants import stadje_alpha
from stopbound.fredholm import (
    BoundaryGrid,
    CGrid,
    InadmissibleCError,
    closed_form_residual,
    objective,
    penalty,
    residual,
    segment_weights,
    tabulate,
    verify_closed_form,
)
from stopbound.numerics import ToleranceNotMetError
from stopbound.problem import Problem, american_put, builtin, load_problem_file

from reference_loops import adaptive_weights


@pytest.fixture()
def linear():
    return builtin("linear")


class TestBoundaryGrid:
    def test_uniform(self, linear):
        g = BoundaryGrid.uniform(linear, 60)
        assert len(g) == 60
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(linear.b_inf)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryGrid(np.array([0.0, 1.0, 0.5]), np.zeros(3))
        with pytest.raises(ValueError):
            BoundaryGrid(np.array([0.1, 1.0]), np.zeros(2))  # origin missing
        with pytest.raises(ValueError):
            BoundaryGrid(np.array([0.0, 1.0]), np.array([0.0, 0.5]))  # positive
        with pytest.raises(ValueError):
            BoundaryGrid(np.array([0.0, 1.0]), np.array([-1.0, -0.5]))  # increasing

    def test_unbounded_problem_rejected(self):
        with pytest.raises(ValueError):
            BoundaryGrid.uniform(builtin("stadje"), 10)


class TestCGrid:
    def test_for_problem_spacing(self, linear):
        cg = CGrid.for_problem(linear, 40)
        assert len(cg) == 40
        assert cg.values[0] == pytest.approx(math.sqrt(2.0) + 0.1)
        assert np.allclose(np.diff(cg.values), 0.1)

    def test_admissibility(self, linear):
        with pytest.raises(InadmissibleCError):
            CGrid(np.array([1.0, 2.0])).require_admissible(linear)

    def test_validation(self):
        with pytest.raises(ValueError):
            CGrid(np.array([2.0, 2.0]))


class TestSegmentWeights:
    def test_unit_segment(self, linear):
        # integral_0^1 y e^y dy = 1 by the antiderivative (y-1)e^y
        g = BoundaryGrid(np.array([0.0, 1.0]), np.zeros(2))
        w = segment_weights(linear, g, 1.0)
        assert w[0] == pytest.approx(1.0, abs=1e-10)

    def test_full_segment_at_c2(self, linear):
        # antiderivative (y/2 - 1/4) e^{2y} evaluated on [0, b_inf]
        b = linear.b_inf
        expected = (b / 2.0 - 0.25) * math.exp(2.0 * b) + 0.25
        g = BoundaryGrid(np.array([0.0, b]), np.zeros(2))
        assert segment_weights(linear, g, 2.0)[0] == pytest.approx(expected, abs=1e-10)

    def test_zero_integrand(self):
        p = Problem(
            label="null",
            r=1.0,
            h_tilde=lambda y: 0.0,
            laplace_h_tilde=lambda c: 0.0,
            b_inf=1.0,
        )
        g = BoundaryGrid(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        assert np.all(segment_weights(p, g, 2.0) == 0.0)

    def test_atom_contribution(self):
        p = Problem(
            label="atomic",
            r=1.0,
            h_tilde=lambda y: 0.0,
            laplace_h_tilde=lambda c: 0.0,
            b_inf=1.0,
            atoms=((0.25, 2.0),),
        )
        g = BoundaryGrid(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        w = segment_weights(p, g, 3.0)
        assert w[0] == pytest.approx(2.0 * math.exp(0.75))
        assert w[1] == 0.0

    def test_constant_expression_tabulates(self, tmp_path):
        # A constant h_tilde is one value for a whole point array; the
        # transform's quadrature broadcasts it over each panel.
        path = tmp_path / "constant.txt"
        path.write_text("r = 1\nb_inf = 0.7\nhtilde_expr = 2\n")
        p = load_problem_file(str(path))
        grid = BoundaryGrid.uniform(p, 8)
        cs = CGrid.for_problem(p, 4).values
        tab = tabulate(p, grid, CGrid(cs))
        assert tab.lap == pytest.approx(2.0 / cs, rel=1e-10)
        exact = 2.0 * np.diff(np.exp(np.outer(cs, grid.nodes)), axis=1) / cs[:, None]
        assert np.allclose(tab.W, exact, rtol=1e-12, atol=0.0)

    def test_atom_at_origin_counted_once(self, tmp_path):
        # An atom at 0 belongs to the transform (atoms at or below 0), not
        # to the first segment's weight as well; at d = 0 every residual
        # moves by the atom's weight exactly once.
        text = "r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = y\n"
        tabs = []
        for name, extra in (("plain", ""), ("atom", "atoms = 0:-0.25\n")):
            path = tmp_path / f"{name}.txt"
            path.write_text(text + extra)
            p = load_problem_file(str(path))
            grid = BoundaryGrid.uniform(p, 12)
            tabs.append((grid, tabulate(p, grid, CGrid.for_problem(p, 4))))
        (grid, plain), (_, atom) = tabs
        assert np.array_equal(atom.W, plain.W)
        moved = atom.residual_vector(grid).residuals - plain.residual_vector(grid).residuals
        assert moved == pytest.approx(np.full(4, -0.25), rel=0.0, abs=1e-12)

    def test_scaled_puts_share_the_envelope(self):
        # Scaling the payoff leaves the boundary, and so the certified
        # envelope, unchanged.
        base = american_put()
        nodes = BoundaryGrid.uniform(base, 60).nodes
        cgrid = CGrid.for_problem(base, 40)
        ref = bounds_mod.iterate(base, nodes, cgrid, 3)
        differ = 0
        for k in np.linspace(0.5, 6.0, 12):
            env = bounds_mod.iterate(american_put().scaled(float(k)), nodes, cgrid, 3)
            differ += not (
                np.array_equal(env.lower.values, ref.lower.values)
                and np.array_equal(env.upper.values, ref.upper.values)
            )
        assert differ == 0


class TestWeightRule:
    """The fixed Gauss--Legendre rule against adaptive quadrature."""

    @pytest.fixture()
    def quads(self, monkeypatch):
        calls = []
        quad = fredholm.integrate_finite

        def counted(f, a, b, *args, **kwargs):
            calls.append((a, b))
            return quad(f, a, b, *args, **kwargs)

        monkeypatch.setattr(fredholm, "integrate_finite", counted)
        return calls

    @pytest.mark.parametrize("grid", [(24, 16), (60, 40)])
    @pytest.mark.parametrize(
        "p",
        [builtin("linear"), american_put(1.0, 0.5), american_put(0.6, 0.45),
         american_put(1.4, 0.75)],
        ids=lambda p: p.label,
    )
    def test_builtins_match_adaptive_quadrature(self, p, grid, quads):
        nodes = BoundaryGrid.uniform(p, grid[0]).nodes
        cs = bounds_mod.extended_cvalues(p, CGrid.for_problem(p, grid[1]))
        w = segment_weights(p, BoundaryGrid(nodes, np.zeros(grid[0])), cs)
        assert quads == []  # the rule passed its guard on every segment
        ref = adaptive_weights(p, nodes, cs)
        assert np.max(np.abs(w - ref) / np.abs(ref)) <= 1e-12

    def test_kink_inside_a_segment_falls_back(self, tmp_path, quads):
        path = tmp_path / "kink.txt"
        path.write_text("r = 1\nb_inf = 1\nhtilde_expr = max(0, y - 0.3)\n")
        p = load_problem_file(str(path))
        nodes = BoundaryGrid.uniform(p, 12).nodes  # 0.3 lies in [3/11, 4/11]
        cs = CGrid.for_problem(p, 10).values
        w = segment_weights(p, BoundaryGrid(nodes, np.zeros(12)), cs)
        assert set(quads) == {(nodes[3], nodes[4])}
        assert len(quads) == len(cs)
        ref = adaptive_weights(p, nodes, cs)
        assert np.all(np.abs(w - ref) <= 1e-10 * np.abs(ref))
        assert np.all(w[:, :3] == 0.0)

    def test_overflowing_weights_raise(self, tmp_path):
        # exp(c*y) passes the floating-point range past y ~ 709/c: there the
        # rule is inf, or nan where h_tilde vanishes, and fails its guard.
        # The adaptive fallback meets the same non-finite points and raises
        # rather than hand the envelope weights it cannot bound.
        path = tmp_path / "overflow.txt"
        path.write_text("r = 1\nb_inf = 40\nhtilde_expr = max(0, 1 - y)\n")
        p = load_problem_file(str(path))
        nodes = BoundaryGrid.uniform(p, 60).nodes
        cgrid = CGrid.for_problem(p, 40)
        assert bounds_mod.extended_cvalues(p, cgrid).max() * nodes[-1] > 709.8
        with pytest.raises(ToleranceNotMetError, match="not finite"):
            bounds_mod.iterate(p, nodes, cgrid, 3)

    def test_scalar_parameter_is_a_row(self, linear):
        g = BoundaryGrid.uniform(linear, 12)
        cs = np.array([1.0, 2.5])
        rows = segment_weights(linear, g, cs)
        assert rows.shape == (2, 11)
        for i, c in enumerate(cs):
            assert np.array_equal(segment_weights(linear, g, c), rows[i])


class TestTabulatedOnce:
    """One envelope-then-solve run computes each weight exactly once."""

    N_NODES, N_C = 24, 16

    def test_envelope_then_solve_counts(self, linear):
        # One call evaluates h_tilde at the 6 points of every segment's rule
        # and one at the 12 of the guard rule, for all parameters at once;
        # the solver makes none.
        calls = []

        def counted(y):
            calls.append(np.size(y))
            return linear.h_tilde(y)

        p = replace(linear, h_tilde=counted)
        nodes = BoundaryGrid.uniform(p, self.N_NODES).nodes
        cgrid = CGrid.for_problem(p, self.N_C)
        env = bounds_mod.iterate(p, nodes, cgrid, 3)
        assert calls == [(self.N_NODES - 1) * 6, (self.N_NODES - 1) * 12]
        del calls[:]
        solver.solve(p, cgrid, env)
        assert calls == []

    def test_solve_reads_envelope_rows(self, linear):
        nodes = BoundaryGrid.uniform(linear, self.N_NODES).nodes
        cgrid = CGrid.for_problem(linear, self.N_C)
        env = bounds_mod.iterate(linear, nodes, cgrid, 2)
        fresh = tabulate(linear, env.lower, cgrid)
        rows = env.tabulation.leading(cgrid)
        for name in ("c_values", "lap", "W", "gam", "c2"):
            assert np.array_equal(getattr(rows, name), getattr(fresh, name))
        report = solver.solve(linear, cgrid, env)
        direct = objective(linear, report.grid, cgrid)
        assert np.array_equal(report.residual_vector.residuals, direct.residuals)
        assert np.array_equal(report.residual_vector.penalties, direct.penalties)

    def test_foreign_parameters_rejected(self, linear):
        nodes = BoundaryGrid.uniform(linear, 12).nodes
        env = bounds_mod.initial_envelope(linear, nodes, CGrid.for_problem(linear, 6))
        with pytest.raises(ValueError):
            solver.solve(linear, CGrid(linear.c_min + 0.2 * np.arange(1, 7)), env)
        with pytest.raises(ValueError):
            env.tabulation.leading(CGrid.for_problem(linear, 20))

    def test_foreign_nodes_rejected(self, linear):
        nodes = BoundaryGrid.uniform(linear, 12).nodes
        env = bounds_mod.initial_envelope(linear, nodes, CGrid.for_problem(linear, 6))
        other = BoundaryGrid.uniform(linear, 13)
        with pytest.raises(ValueError):
            bounds_mod.upper_step(linear, other, env.tabulation)
        with pytest.raises(ValueError):
            bounds_mod.lower_step(linear, other, env.tabulation)
        with pytest.raises(ValueError):
            bounds_mod.BoundaryEnvelope(other, other, 0, np.zeros(13, dtype=bool),
                                        env.tabulation)

    def test_arrays_read_only(self, linear):
        g = BoundaryGrid.uniform(linear, 12)
        tab = tabulate(linear, g, CGrid.for_problem(linear, 4))
        with pytest.raises(ValueError):
            tab.W[0, 0] = 1.0
        g.nodes[1] += 1e-3  # the tabulation keeps its own copy of the nodes
        assert not np.array_equal(tab.nodes, g.nodes)


class TestResidual:
    def test_deep_boundary_reduces_to_transform(self, linear):
        g = BoundaryGrid.uniform(linear, 10).with_values(np.full(10, -1e6))
        assert residual(linear, g, 2.0) == pytest.approx(
            linear.laplace_h_tilde(2.0), abs=1e-300
        )

    def test_admissibility_enforced(self, linear):
        g = BoundaryGrid.uniform(linear, 10)
        with pytest.raises(InadmissibleCError):
            residual(linear, g, 1.0)

    def test_monotone_in_each_value(self, linear):
        g = BoundaryGrid.uniform(linear, 8)
        base = g.with_values(-0.5 * g.nodes**2)
        r0 = residual(linear, base, 2.0)
        for n in range(1, 7):
            bumped = base.values.copy()
            bumped[n] += 1e-6  # toward zero, still monotone
            rb = residual(linear, base.with_values(bumped), 2.0)
            assert rb > r0

    def test_transform_recovers_local_coefficient(self, linear):
        # c^2 * L(c) tends to the (signed) leading coefficient of the payoff
        c = 1e3
        assert c * c * linear.laplace_h_tilde(c) == pytest.approx(-1.0, rel=1e-2)

    def test_grid_refinement_halves_discretization_error(self, linear):
        # piecewise-constant-per-segment rendering of a smooth curve has
        # first-order error in the segment width
        cg_c = 2.0

        def resid_at(n):
            g = BoundaryGrid.uniform(linear, n)
            return residual(linear, g.with_values(-2.45 * g.nodes**2), cg_c)

        truth = resid_at(960)
        err_coarse = abs(resid_at(60) - truth)
        err_fine = abs(resid_at(120) - truth)
        assert err_fine <= 0.6 * err_coarse


class TestObjective:
    def test_penalty_values(self):
        assert penalty(2.0, 0.0) == pytest.approx(1.0)
        assert penalty(2.0, 0.25) == pytest.approx(2.25)
        assert penalty(2.0, -0.25) == math.inf  # at the pole
        assert penalty(1.0, -2.0) == math.inf  # past the pole

    def test_objective_collects_all_parameters(self, linear):
        g = BoundaryGrid.uniform(linear, 12)
        g = g.with_values(-2.45 * g.nodes**2)
        cg = CGrid.for_problem(linear, 10)
        rv = objective(linear, g, cg)
        assert rv.residuals.shape == (10,)
        assert rv.objective == pytest.approx(float(rv.penalties.sum()))
        assert np.all(rv.penalties >= 1.0)

    def test_tabulate_shapes(self, linear):
        g = BoundaryGrid.uniform(linear, 12)
        cg = CGrid.for_problem(linear, 7)
        tab = tabulate(linear, g, cg)
        lap, W, gam, c2 = tab.lap, tab.W, tab.gam, tab.c2
        assert lap.shape == (7,) and W.shape == (7, 11)
        assert np.all(gam > 0.0)
        assert np.allclose(c2, cg.values**2)


class TestClosedForm:
    def test_root_location(self):
        a = stadje_alpha()
        assert closed_form_residual(a, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_change_across_root(self):
        a = stadje_alpha()
        assert closed_form_residual(a - 0.05, 2.0) > 0.0
        assert closed_form_residual(a + 0.05, 2.0) < 0.0

    def test_wrong_coefficient_detectable(self):
        assert abs(closed_form_residual(0.9, 1.0)) >= 1e-2

    def test_quadrature_agrees_with_closed_form_off_root(self):
        # iterated quadrature and the analytic expression are independent
        got = verify_closed_form("stadje", [1.0], alpha=0.9)
        assert got == pytest.approx(abs(closed_form_residual(0.9, 1.0)), rel=1e-6)

    def test_unsupported_label(self):
        with pytest.raises(ValueError):
            verify_closed_form("linear", [1.0])

    def test_invalid_parameter(self):
        with pytest.raises(InadmissibleCError):
            closed_form_residual(0.5, 0.0)
