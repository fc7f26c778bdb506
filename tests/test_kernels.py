"""Numerical kernels: sweep behaviour, the penalty sentinel, Monte Carlo edges."""

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


class TestMonteCarloEdges:
    def test_immediate_crossing(self):
        walks = np.zeros((2, 10, 5))
        b_path = np.zeros(11)
        s, x = _kernels.mc_first_crossing(np.ones((2, 5)), 0.1, walks, b_path[1:])
        assert np.all(s == 0)
        assert np.all(x == 1.0)

    def test_never_crossing(self):
        walks = np.zeros((2, 10, 5))
        b_path = np.full(11, 100.0)
        s, x = _kernels.mc_first_crossing(np.zeros((2, 5)), 0.1, walks, b_path[1:])
        assert np.all(s == 10)
        assert np.all(x == 0.0)
