"""Numerical kernels: compiled/pure-NumPy agreement and the env switch."""

import os
import subprocess
import sys

import numpy as np
import pytest

from stopbound import _kernels
from stopbound import fredholm, solver
from stopbound.bounds import iterate
from stopbound.fredholm import BoundaryGrid, CGrid
from stopbound.problem import builtin

HAVE_JIT = hasattr(_kernels, "residuals_jit")
needs_jit = pytest.mark.skipif(not HAVE_JIT, reason="numba not installed")


def _fixture_arrays(n_nodes=20, n_c=12, seed=0):
    p = builtin("linear")
    g = BoundaryGrid.uniform(p, n_nodes)
    g = g.with_values(-2.45 * g.nodes**2)
    cg = CGrid.for_problem(p, n_c)
    tab = fredholm.tabulate(p, g, cg)
    lap, W, gam, c2 = tab.lap, tab.W, tab.gam, tab.c2
    return p, g, cg, lap, W, gam, c2


class TestVariantAgreement:
    @needs_jit
    def test_residuals(self):
        _, g, _, lap, W, gam, _ = _fixture_arrays()
        d = g.values[:-1]
        a = _kernels.residuals_numpy(lap, W, gam, d)
        b = _kernels.residuals_jit(lap, W, gam, d)
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    @needs_jit
    def test_surrogate_objective(self):
        _, g, _, lap, W, gam, c2 = _fixture_arrays()
        d = g.values[:-1]
        a = _kernels.surrogate_objective_numpy(lap, W, gam, c2, d)
        b = _kernels.surrogate_objective_jit(lap, W, gam, c2, d)
        assert a == pytest.approx(b, rel=1e-12)

    @needs_jit
    def test_sweep(self):
        _, g, _, lap, W, gam, c2 = _fixture_arrays()
        lower = np.full(len(g), -5.0)
        lower[0] = 0.0
        upper = np.zeros(len(g))
        d1 = g.values.copy()
        d2 = g.values.copy()
        r1 = _kernels.sweep_numpy(lap, W, gam, c2, d1, lower, upper)
        r2 = _kernels.sweep_jit(lap, W, gam, c2, d2, lower, upper)
        assert np.allclose(d1, d2, rtol=0.0, atol=1e-10)
        assert r1[0] == pytest.approx(r2[0], rel=1e-10)

    @needs_jit
    def test_dp_backward(self):
        p = builtin("linear")
        nt, nx = 40, 64
        xs = np.linspace(-2.0, 2.0, nx)
        ts = np.linspace(-1.0, 0.0, nt + 1)
        disc = np.exp(-p.r * ts)
        hx = np.array([p.h(x) for x in xs])
        from stopbound.oracle import _gauss_hermite

        gx, gw = _gauss_hermite()
        V1 = np.empty((nt + 1, nx))
        V2 = np.empty((nt + 1, nx))
        dt = ts[1] - ts[0]
        _kernels.dp_backward_numpy(disc, hx, V1, dt, xs[0], xs[1] - xs[0], gx, gw)
        _kernels.dp_backward_jit(disc, hx, V2, dt, xs[0], xs[1] - xs[0], gx, gw)
        assert np.allclose(V1, V2, rtol=0.0, atol=1e-12)

    @needs_jit
    def test_mc_first_crossing(self):
        rng = np.random.default_rng(3)
        normals = rng.standard_normal((200, 50))
        b_path = np.linspace(0.6, 0.0, 51)
        s1, x1 = _kernels.mc_first_crossing_numpy(0.0, 50, 0.02, normals, b_path)
        s2, x2 = _kernels.mc_first_crossing_jit(0.0, 50, 0.02, normals, b_path)
        assert np.array_equal(s1, s2)
        assert np.allclose(x1, x2, rtol=0.0, atol=1e-14)


class TestEnvSwitch:
    def test_flag_disables_compiled_path(self):
        code = (
            "from stopbound import _kernels;"
            "print(_kernels.using_numba(),"
            " _kernels.residuals is _kernels.residuals_numpy)"
        )
        env = dict(os.environ, STOPBOUND_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]


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
        normals = np.zeros((5, 10))
        b_path = np.zeros(11)
        s, x = _kernels.mc_first_crossing(1.0, 10, 0.1, normals, b_path)
        assert np.all(s == 0)
        assert np.all(x == 1.0)

    def test_never_crossing(self):
        normals = np.zeros((5, 10))
        b_path = np.full(11, 100.0)
        s, x = _kernels.mc_first_crossing(0.0, 10, 0.1, normals, b_path)
        assert np.all(s == 10)
        assert np.all(x == 0.0)
