"""Numerical kernels: sweep behaviour, the penalty sentinel, Monte Carlo edges."""

import math

import numpy as np

from stopbound import _kernels
from stopbound import fredholm
from stopbound.fredholm import BoundaryGrid, CGrid
from stopbound.problem import builtin


def _fixture_arrays(n_nodes=20, n_c=12, seed=0):
    p = builtin("linear")
    g = BoundaryGrid.uniform(p, n_nodes)
    g = g.with_values(-2.45 * g.nodes**2)
    cg = CGrid.for_problem(p, n_c)
    tab = fredholm.tabulate(p, g, cg)
    lap, W, gam, c2 = tab.lap, tab.W, tab.gam, tab.c2
    return p, g, cg, lap, W, gam, c2


class TestSweepBehavior:
    def test_objective_never_increases(self):
        _, g, _, lap, W, gam, c2 = _fixture_arrays()
        lower = np.full(len(g), -5.0)
        lower[0] = 0.0
        upper = np.zeros(len(g))
        d = (0.5 * lower).copy()  # deliberately bad start
        d[0] = 0.0
        before = _kernels.surrogate_objective(lap, W, gam, c2, d[:-1])
        obj, _ = _kernels.sweep(lap, W, gam, c2, d, lower, upper)
        assert obj <= before + 1e-12

    def test_box_and_monotonicity_respected(self):
        _, g, _, lap, W, gam, c2 = _fixture_arrays()
        lower = np.full(len(g), -5.0)
        lower[0] = 0.0
        upper = np.zeros(len(g))
        d = -2.45 * g.nodes**2
        _kernels.sweep(lap, W, gam, c2, d, lower, upper)
        assert np.all(d >= lower - 1e-12)
        assert np.all(d <= upper + 1e-12)
        assert np.all(np.diff(d) <= 1e-12)

    def test_endpoints_held_fixed(self):
        _, g, _, lap, W, gam, c2 = _fixture_arrays()
        lower = np.full(len(g), -5.0)
        lower[0] = 0.0
        upper = np.zeros(len(g))
        d = -2.45 * g.nodes**2
        first, last = d[0], d[-1]
        _kernels.sweep(lap, W, gam, c2, d, lower, upper)
        assert d[0] == first and d[-1] == last


class TestSentinel:
    def test_graded_ordering(self):
        # deeper constraint violations must cost more so descent can escape;
        # synthetic single-parameter system with the pole at u = -1
        W = np.array([[0.1]])
        gam = np.array([1.0])
        c2 = np.array([4.0])
        ok = _kernels.surrogate_objective(
            np.array([-0.1]), W, gam, c2, np.array([0.0])
        )
        shallow = _kernels.surrogate_objective(
            np.array([-1.0]), W, gam, c2, np.array([0.0])
        )
        deep = _kernels.surrogate_objective(
            np.array([-1.0]), W, gam, c2, np.array([-30.0])
        )
        assert ok < _kernels._SENTINEL
        assert _kernels._SENTINEL <= shallow < deep


def _scalar_penalty(c, x):
    """``F_c(x)`` written out for one parameter, as a reference."""
    u = c * c * x
    if 1.0 + u <= 0.0:
        return math.inf
    s = u + 1.0 / (1.0 + u)
    return s * s


class TestPenalties:
    def test_kernel_equals_scalar_formula_across_the_pole(self):
        cs = np.array([0.3, 0.5, 1.0, 1.7, 2.0, 3.1])
        # x from well inside the admissible region to past the pole, plus
        # the exact poles of c = 0.5, 1 and 2 (c**2 x = -1 in floats).
        xs = np.concatenate([np.linspace(-3.0, 3.0, 121), [-4.0, -1.0, -0.25]])
        F = _kernels.penalties((cs * cs)[:, None], xs[None, :])
        expected = np.array([[_scalar_penalty(c, x) for x in xs.tolist()] for c in cs.tolist()])
        assert np.array_equal(F, expected)
        inside = 1.0 + (cs * cs)[:, None] * xs[None, :]
        pole = inside <= 0.0
        assert (inside == 0.0).sum() >= 3 and not pole.all()
        assert np.all(F[pole] == math.inf) and np.all(np.isfinite(F[~pole]))
        for i, c in enumerate(cs.tolist()):
            for j, x in enumerate(xs.tolist()):
                assert fredholm.penalty(c, x) == F[i, j]

    def test_residual_vector_reads_the_kernel(self):
        p, g, cg, *_ = _fixture_arrays()
        rv = fredholm.tabulate(p, g, cg).residual_vector(g)
        expected = [_scalar_penalty(c, r) for c, r in zip(cg.values.tolist(), rv.residuals.tolist())]
        assert rv.penalties.tolist() == expected


class TestMonteCarloEdges:
    @staticmethod
    def _run(x0, b_path, pairs=5):
        walk = np.zeros((b_path.shape[0] - 1, pairs))
        s, running = np.zeros(pairs), np.ones((2, pairs), dtype=bool)
        col, x = _kernels.mc_first_crossing(s, x0, 0.1, walk, np.empty(walk.shape, dtype=bool),
                                            b_path[1:], running)
        return col, x, running

    def test_immediate_crossing(self):
        s, x, running = self._run(1.0, np.zeros(11))
        assert np.all(s == 0)
        assert np.all(x == 1.0)
        assert not running.any()

    def test_never_crossing(self):
        s, x, running = self._run(0.0, np.full(11, 100.0))
        assert np.all(s == 10)
        assert np.all(x == 0.0)
        assert running.all()
