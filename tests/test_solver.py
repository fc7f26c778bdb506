"""Seeding, the seed polish and its retry, and the small-node asymptotic fit."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from stopbound import bounds as bounds_mod
from stopbound import _kernels, fredholm, solver
from stopbound.constants import solve_B
from stopbound.fredholm import BoundaryGrid, CGrid
from stopbound.problem import builtin


@pytest.fixture(scope="module")
def linear():
    return builtin("linear")


def _wide_envelope(linear, n_nodes=20, depth=-40.0):
    nodes = BoundaryGrid.uniform(linear, n_nodes).nodes
    lower = BoundaryGrid(nodes, np.concatenate([[0.0], np.full(n_nodes - 1, depth)]))
    upper = BoundaryGrid(nodes, np.zeros(n_nodes))
    tab = fredholm.tabulate(linear, upper, CGrid.for_problem(linear, 4))
    return bounds_mod.BoundaryEnvelope(
        lower, upper, 0, np.zeros(n_nodes, dtype=bool), tab
    )


class TestSeed:
    def test_unknown_mode_rejected(self, linear):
        env = _wide_envelope(linear)
        with pytest.raises(ValueError):
            solver.seed(linear, env, "mystery")
        with pytest.raises(ValueError):
            solver.solve(linear, CGrid.for_problem(linear, 4), env, "custom")

    def test_asymptotic_mode_tracks_quadratic(self, linear):
        env = _wide_envelope(linear)
        g = solver.seed(linear, env)
        B = solve_B(1.0).B
        assert g.values[0] == 0.0
        k = np.argmin(np.abs(g.nodes - 0.1))
        assert g.values[k] == pytest.approx(-B * g.nodes[k] ** 2, rel=1e-12)

    def test_midpoint_mode(self, linear):
        env = _wide_envelope(linear, depth=-2.0)
        g = solver.seed(linear, env, "envelope_midpoint")
        assert np.all(g.values[1:] == -1.0)


class TestSolveSingleFreeNode:
    def test_matches_scalar_minimizer(self, linear):
        # three nodes leave exactly one free value; a descent sweep must
        # agree with a direct bounded scalar minimization of the objective
        nodes = BoundaryGrid.uniform(linear, 3).nodes
        cgrid = CGrid.for_problem(linear, 5)
        env = bounds_mod.initial_envelope(linear, nodes, cgrid)
        tab = env.tabulation.leading(cgrid)
        lo = env.lower.values[1]
        hi = min(env.upper.values[1], 0.0)
        d = np.array([0.0, 0.5 * (lo + hi), env.lower.values[-1]])
        upper = np.minimum(env.upper.values, 0.0)
        obj, _max_move = _kernels.sweep(tab.lap, tab.W, tab.gam, tab.c2, d, env.lower.values, upper)

        def scalar(t):
            vals = np.array([0.0, t, env.lower.values[-1]])
            return fredholm.objective(linear, env.lower.with_values(vals), cgrid).objective

        ref = minimize_scalar(scalar, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        assert d[1] == pytest.approx(ref.x, abs=1e-6)
        assert obj <= ref.fun + 1e-9


class TestFullSolve:
    def test_linear_solution_invariants(self, linear_solution):
        rep = linear_solution.report
        env = linear_solution.envelope
        assert rep.converged
        trace = rep.objective_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        vals = rep.grid.values
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= env.lower.values - 1e-9)
        assert np.all(vals <= env.upper.values + 1e-9)
        # terminal node is pinned to the certified lower bound
        assert vals[-1] == env.lower.values[-1]

    def test_objective_near_ideal(self, linear_solution):
        ideal = float(len(linear_solution.cgrid))
        assert linear_solution.report.objective == pytest.approx(ideal, rel=1e-4)

    def test_scale_invariance(self, linear):
        # scaling the payoff scales the residuals but not their zero set,
        # so the solved boundary must be (nearly) unchanged
        def reduced(p):
            nodes = BoundaryGrid.uniform(p, 30).nodes
            cgrid = CGrid.for_problem(p, 20)
            env = bounds_mod.iterate(p, nodes, cgrid, 3)
            return solver.solve(p, cgrid, env)

        a = reduced(linear)
        b = reduced(linear.scaled(7.0))
        assert a.converged and b.converged
        assert np.max(np.abs(a.grid.values - b.grid.values)) <= 1e-6


# The boundary the polish of the asymptotic seed reaches for `linear` at 30
# nodes x 15 kernel parameters, inside the certified envelope of 3
# iterations; the midpoint seed's polish reaches it to 3.4e-9.
LINEAR_30x15_POLISHED = np.array(
    [
        0.000000000000, -0.001666358145, -0.005882169421, -0.013118991661,
        -0.023324748238, -0.036413194907, -0.052222013487, -0.070814368153,
        -0.094756777881, -0.132749081908, -0.178962551434, -0.228607588490,
        -0.278267747476, -0.326131091708, -0.372093701574, -0.417748378227,
        -0.466276088357, -0.522237800903, -0.591232656737, -0.679359053081,
        -0.792413143287, -0.934827087428, -1.108522916730, -1.312084898773,
        -1.540733502343, -1.787321620250, -2.044082304621, -2.304530019052,
        -4.265460327733, -50.000000000000,
    ]
)


@pytest.fixture(scope="module")
def linear30(linear):
    nodes = BoundaryGrid.uniform(linear, 30).nodes
    cgrid = CGrid.for_problem(linear, 15)
    return linear, cgrid, bounds_mod.iterate(linear, nodes, cgrid, 3)


def _first_polish_misses(monkeypatch):
    """Make the first polish return its starting point unchanged.

    That point is the seed, whose residual is above the bound, so the
    polish misses as a spurious point would.  Returns the list of the
    polishes' starting points.
    """
    polish = solver._polish
    calls = []

    def first_misses(d, *args):
        calls.append(d.copy())
        out, result = polish(d, *args)
        return (d.copy() if len(calls) == 1 else out), result

    monkeypatch.setattr(solver, "_polish", first_misses)
    return calls


class TestSweepPolishSchedule:
    @pytest.mark.parametrize("mode", ["asymptotic", "envelope_midpoint"])
    def test_converged_meets_residual_bound(self, linear30, mode):
        p, cgrid, env = linear30
        rep = solver.solve(p, cgrid, env, mode)
        assert rep.converged and rep.convergence_reason == "residual_bound"
        assert rep.max_residual <= solver.RESIDUAL_TOLERANCE
        assert rep.polish_status > 0 and rep.polish_nfev > 0
        assert rep.polishes == 1
        # max|R| / max|lap|, recomputed from the reported residuals
        scale = max(abs(p.laplace_h_tilde(c)) for c in cgrid.values)
        assert rep.max_residual == pytest.approx(
            np.max(np.abs(rep.residual_vector.residuals)) / scale, rel=1e-9
        )
        assert np.max(np.abs(rep.grid.values - LINEAR_30x15_POLISHED)) <= 1e-7

    def test_polish_that_misses_the_bound_is_not_convergence(self, linear30, monkeypatch):
        p, cgrid, env = linear30
        monkeypatch.setattr(solver, "RESIDUAL_TOLERANCE", 1e-12)
        rep = solver.solve(p, cgrid, env)
        assert not rep.converged and rep.convergence_reason == "polish_missed"
        assert rep.polishes == 2
        assert rep.polish_status is None and rep.polish_nfev is None


@pytest.fixture(scope="module")
def put30():
    p = builtin("american_put", rho=1.0, theta=0.5)
    nodes = BoundaryGrid.uniform(p, 30).nodes
    cgrid = CGrid.for_problem(p, 15)
    return p, cgrid, bounds_mod.iterate(p, nodes, cgrid, 3)


def _seed_objective(p, cgrid, env, mode="asymptotic"):
    """The objective, as ``SolveReport.objective`` reads it, of the seed of ``mode``."""
    return env.tabulation.leading(cgrid).residual_vector(solver.seed(p, env, mode)).objective


class TestSeedPolish:
    @pytest.mark.parametrize("case", ["linear30", "put30"])
    def test_seed_polish_accepted_without_sweeps(self, case, request):
        p, cgrid, env = request.getfixturevalue(case)
        rep = solver.solve(p, cgrid, env)
        assert rep.polishes == 1
        assert rep.converged and rep.convergence_reason == "residual_bound"
        trace = rep.objective_trace
        assert trace[0] == _seed_objective(p, cgrid, env)
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == rep.objective

    def test_missed_seed_polish_retries_from_the_other_seed(self, linear30, monkeypatch):
        # The first polish returns the seed unchanged, which misses the
        # residual bound, so the solve must polish the midpoint seed.
        p, cgrid, env = linear30
        calls = _first_polish_misses(monkeypatch)
        rep = solver.solve(p, cgrid, env)
        assert len(calls) == 2
        assert np.array_equal(calls[0][:-1], solver.seed(p, env).values[:-1])
        midpoint = solver.seed(p, env, "envelope_midpoint").values
        assert np.array_equal(calls[1][:-1], midpoint[:-1])
        assert rep.polishes == 2
        assert rep.converged and rep.convergence_reason == "residual_bound"
        trace = rep.objective_trace
        assert len(trace) == 2
        assert trace[0] == _seed_objective(p, cgrid, env, "envelope_midpoint")
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == rep.objective
        assert np.max(np.abs(rep.grid.values - LINEAR_30x15_POLISHED)) <= 1e-7

    def test_seed_past_the_pole_reads_inf(self):
        # The midpoint seed of the put (1, 0.5) at 60 x 40, two envelope
        # iterations, puts some 1 + c**2 R at or below 0.
        p = builtin("american_put", rho=1.0, theta=0.5)
        nodes = BoundaryGrid.uniform(p, 60).nodes
        cgrid = CGrid.for_problem(p, 40)
        env = bounds_mod.iterate(p, nodes, cgrid, 2)
        rep = solver.solve(p, cgrid, env, "envelope_midpoint")
        assert rep.converged
        assert rep.objective_trace == [math.inf, rep.objective]

    @pytest.mark.parametrize("mode", ["asymptotic", "envelope_midpoint"])
    def test_both_polishes_miss(self, mode):
        # Every polish of the put (1, 0.75) at 12 x 8 converges, but the
        # projection into the envelope lifts its residual above the bound.
        p = builtin("american_put", rho=1.0, theta=0.75)
        nodes = BoundaryGrid.uniform(p, 12).nodes
        cgrid = CGrid.for_problem(p, 8)
        env = bounds_mod.iterate(p, nodes, cgrid, 2)
        rep = solver.solve(p, cgrid, env, mode)
        assert not rep.converged and rep.convergence_reason == "polish_missed"
        assert rep.polishes == 2
        assert rep.polish_status is None and rep.polish_nfev is None
        assert rep.max_residual > solver.RESIDUAL_TOLERANCE
        vals = rep.grid.values
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= env.lower.values) & (vals <= env.upper.values))

    @pytest.mark.parametrize("case", ["linear30", "put30"])
    def test_asymptotic_seed_is_the_prior(self, case, request):
        p, _cgrid, env = request.getfixturevalue(case)
        prior = solver._asymptotic_values(p, env)
        assert np.array_equal(solver.seed(p, env).values, prior)

    def test_one_root_find_per_solve(self, linear30, monkeypatch):
        p, cgrid, env = linear30
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_B(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_B", counted)
        assert solver.solve(p, cgrid, env).converged
        assert len(calls) == 1


def _seed_polish_inputs(setup, monkeypatch):
    """The arguments of the first polish of a default solve of ``setup``."""
    p, cgrid, env = setup
    polish = solver._polish
    inputs = []

    def recorded(d, *args):
        inputs.append((d.copy(),) + args)
        return polish(d, *args)

    monkeypatch.setattr(solver, "_polish", recorded)
    solver.solve(p, cgrid, env)
    monkeypatch.setattr(solver, "_polish", polish)
    return inputs[0]


def _polish_fit(inputs, **overrides):
    """``solver.least_squares`` on the polish problem of ``inputs``, as the polish calls it."""
    fun, jac, linear, x0 = solver._polish_problem(*inputs)
    kwargs = dict(xtol=1e-15, ftol=1e-15, gtol=1e-14, max_nfev=2000)
    kwargs.update(overrides)
    return solver.least_squares(fun, x0, jac, (-inputs[-1], 0.0), linear, **kwargs)


@pytest.fixture(scope="module")
def linear60(linear_setup):
    return linear_setup.problem, linear_setup.cgrid, linear_setup.envelope


@pytest.fixture(scope="module")
def put60(put_setup):
    return put_setup.problem, put_setup.cgrid, put_setup.envelope


class TestLeastSquares:
    @pytest.mark.parametrize("case", ["linear30", "put30", "linear60", "put60"])
    def test_agrees_with_scipy_trf(self, case, request, monkeypatch):
        from scipy.optimize import least_squares as scipy_least_squares

        inputs = _seed_polish_inputs(request.getfixturevalue(case), monkeypatch)
        fun, jac, (A, b), x0 = solver._polish_problem(*inputs)
        ours = _polish_fit(inputs)
        trf = scipy_least_squares(
            lambda x: np.concatenate([fun(x), A @ x - b]),
            x0,
            jac=lambda x: np.vstack([jac(x), A]),
            bounds=(-inputs[-1], 0.0),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-14,
            max_nfev=2000,
            x_scale="jac",
        )
        assert ours.status > 0 and trf.status > 0
        assert np.max(np.abs(ours.x - trf.x)) <= 1.5e-7
        assert ours.cost == pytest.approx(trf.cost, rel=1e-6)

    def test_linear_problem_returns_its_kkt_point(self):
        # The unconstrained minimizer (1.44, 0.19, -1.07) leaves the box
        # [-1, 0]**3; the bounded one holds x_0 = x_1 = 0 at the upper bound.
        from scipy.optimize import lsq_linear

        C = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        d = np.array([3.0, 1.0, -2.0, 0.5])
        A = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.2]])
        b = np.array([0.0, -0.5])
        res = solver.least_squares(
            lambda x: C @ x - d, np.full(3, -0.5), lambda x: C, (-1.0, 0.0), (A, b),
            xtol=1e-15, ftol=1e-15, gtol=1e-14, max_nfev=200,
        )
        assert res.status > 0
        g = C.T @ (C @ res.x - d) + A.T @ (A @ res.x - b)
        assert np.all(g[:2] < 0.0) and abs(g[2]) <= 1e-12
        assert np.all((res.x >= -1.0) & (res.x <= 0.0))
        ref = lsq_linear(np.vstack([C, A]), np.concatenate([d, b]), bounds=(-1.0, 0.0),
                         method="bvls", tol=1e-15)
        assert np.array_equal(ref.x[:2], [0.0, 0.0])
        assert np.max(np.abs(res.x - ref.x)) <= 1e-12

    def test_budget_exhaustion_is_status_0(self, linear30, monkeypatch):
        res = _polish_fit(_seed_polish_inputs(linear30, monkeypatch), max_nfev=5)
        assert res.status == 0 and 1 <= res.nfev <= 5

    def test_solve_rejects_a_polish_out_of_budget(self, linear30, monkeypatch):
        p, cgrid, env = linear30
        least_squares = solver.least_squares
        statuses = []

        def starved(*args, **kwargs):
            result = least_squares(*args, **{**kwargs, "max_nfev": 3})
            statuses.append(result.status)
            return result

        monkeypatch.setattr(solver, "least_squares", starved)
        rep = solver.solve(p, cgrid, env)
        assert statuses == [0, 0]  # the polishes of both seeds
        assert not rep.converged and rep.convergence_reason == "polish_missed"
        assert rep.polish_status is None and rep.polish_nfev is None

    def test_singular_trial_grows_the_damping(self, linear30, monkeypatch):
        # A trial whose system is singular is rejected like a trial that
        # does not descend: the damping grows and the polish goes on.
        inputs = _seed_polish_inputs(linear30, monkeypatch)
        solve, failures = np.linalg.solve, []

        def singular_at_first(a, b):
            if len(failures) < 3:
                failures.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_first)
        res = _polish_fit(inputs)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert len(failures) == 3 and res.status > 0
        assert np.max(np.abs(res.x - _polish_fit(inputs).x)) <= 1e-7

    def test_no_damping_solves_raises(self, linear30, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        inputs = _seed_polish_inputs(linear30, monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(FloatingPointError):
            _polish_fit(inputs)

    def test_polish_returns_least_squares_result(self, linear30, monkeypatch):
        rep = solver.solve(*linear30)
        inputs = _seed_polish_inputs(linear30, monkeypatch)
        res = _polish_fit(inputs)
        assert (rep.polish_status, rep.polish_nfev) == (res.status, res.nfev)
        assert rep.prior_B == solve_B(1.0, 1.0).B


class TestAsymptoticCheck:
    def _report(self, linear, values, converged=True):
        g = BoundaryGrid.uniform(linear, 12)
        g = g.with_values(values(g.nodes))
        rv = fredholm.objective(linear, g, CGrid.for_problem(linear, 4))
        return solver.SolveReport(
            grid=g,
            objective_trace=[rv.objective],
            residual_vector=rv,
            polishes=1,
            converged=converged,
            max_residual=math.nan,
            polish_status=None,
            polish_nfev=None,
            prior_B=math.nan,
        )

    def test_exact_quadratic(self, linear):
        rep = self._report(linear, lambda y: -2.0 * y * y)
        assert solver.asymptotic_check(rep, linear, k=8) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_universal_constant_quadratic(self, linear):
        B = solve_B(1.0).B
        rep = self._report(linear, lambda y: -B * y * y)
        assert solver.asymptotic_check(rep, linear, k=5) == pytest.approx(B, abs=1e-10)

    def test_requires_convergence(self, linear):
        rep = self._report(linear, lambda y: -y * y, converged=False)
        with pytest.raises(solver.NotConvergedError):
            solver.asymptotic_check(rep, linear)

    def test_requires_enough_nodes(self, linear):
        rep = self._report(linear, lambda y: -y * y)
        with pytest.raises(solver.InsufficientDataError):
            solver.asymptotic_check(rep, linear, k=2)
