"""Lattice reference boundaries and Monte Carlo valuation."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from stopbound import _kernels, fredholm, oracle
from stopbound.constants import solve_B
from stopbound.problem import american_put, builtin

from reference_loops import (
    _mc_b_path,
    monotone_loop,
    reference_boundary_slice,
    reference_dp_backward,
    reference_expectation,
    reference_extract_boundary,
    reference_mc_first_crossing,
    reference_mc_pair_crossing,
    reference_mc_value,
    reference_one_shot_mc_value,
    reference_stencil,
    reference_two_row_dp_backward,
    rows_multiplied,
)


@pytest.fixture(scope="module")
def linear():
    return builtin("linear")


@pytest.fixture(scope="module")
def small_grid(linear):
    # moderate resolution shared by the cheap lattice tests
    return oracle.backward_induction(linear, -2.0, t_steps=4000, x_steps=2000)


class TestBackwardInduction:
    def test_precondition_errors(self, linear):
        with pytest.raises(ValueError):
            oracle.backward_induction(linear, 1.0)
        with pytest.raises(oracle.ResolutionError):
            oracle.backward_induction(linear, -1.0, t_steps=8)
        with pytest.raises(ValueError):
            oracle.backward_induction(linear, -1.0, x_bounds=(-0.5, 0.5))
        base = builtin("linear")
        p_no_h = type(base)(
            label="nohx",
            r=1.0,
            h_tilde=base.h_tilde,
            laplace_h_tilde=base.laplace_h_tilde,
            b_inf=base.b_inf,
        )
        with pytest.raises(ValueError):
            oracle.backward_induction(p_no_h, -1.0)

    def test_terminal_slice_is_payoff(self, small_grid, linear):
        hx = np.array([linear.h(x) for x in small_grid.x_values])
        assert np.allclose(small_grid.value[-1], hx)

    def test_value_dominates_payoff(self, small_grid, linear):
        hx = np.array([linear.h(x) for x in small_grid.x_values])
        disc = math.exp(-linear.r * small_grid.t_values[0])
        assert np.all(small_grid.value[0] >= disc * hx - 1e-12)

    def test_boundary_monotone_in_time(self, small_grid):
        assert np.all(np.diff(small_grid.boundary) <= 1e-12)


def _lattice_inputs(p, ts, xs):
    gh_x, gh_w = oracle._gauss_hermite()
    hx = np.array([p.h(x) for x in xs])
    return np.exp(-p.r * ts), hx, ts[1] - ts[0], gh_x, gh_w


class TestStencilLattice:
    """The stencil lattice against the ``np.interp`` loop."""

    @pytest.mark.parametrize("label", ["linear", "put"])
    @pytest.mark.parametrize("t_steps, x_steps", [(40, 64), (200, 300)])
    def test_matches_reference_loop(self, label, t_steps, x_steps):
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        grid = oracle.backward_induction(p, -2.0, t_steps=t_steps, x_steps=x_steps)
        xs = grid.x_values
        disc, hx, dt, gh_x, gh_w = _lattice_inputs(p, grid.t_values, xs)
        V = reference_dp_backward(disc, hx, dt, xs[0], xs[1] - xs[0], gh_x, gh_w)
        assert grid.value.shape == (2, x_steps)
        assert np.max(np.abs(grid.value[0] - V[0])) <= 1e-10
        assert np.array_equal(grid.value[-1], V[-1])
        b_ref = reference_extract_boundary(disc, hx, V, xs)
        assert np.max(np.abs(grid.boundary - b_ref)) <= 1e-10

    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_points_reflected_at_both_edges(self, width):
        # The outer Gauss--Hermite points (2.86 sqrt(dt) = 0.64) leave the
        # grid on both sides; at width 0.5 some leave it again after the
        # reflection and are held at the edge value, as np.interp holds them.
        p = builtin("linear")
        ts = np.linspace(-1.0, 0.0, 21)
        xs = np.linspace(-width / 2.0, width / 2.0, 64)
        disc, hx, dt, gh_x, gh_w = _lattice_inputs(p, ts, xs)
        shifts = math.sqrt(dt) * gh_x
        xp = xs[None, :] + shifts[:, None]
        assert (xp < xs[0]).any() and (xp > xs[-1]).any()
        xp = np.where(xp < xs[0], 2.0 * xs[0] - xp, xp)
        xp = np.where(xp > xs[-1], 2.0 * xs[-1] - xp, xp)
        assert (xp < xs[0]).any() == (width == 0.5)
        # one step of an arbitrary slice, where no payoff masks an edge row
        v = np.random.default_rng(2).normal(size=xs.size)
        cont = reference_expectation(v, xs[0], xs[1] - xs[0], math.sqrt(dt), gh_x, gh_w)
        A = _kernels.expectation_stencil(xs, shifts, gh_w)
        assert np.max(np.abs(A @ v - cont)) <= 1e-14 * np.abs(v).max()
        v_first, _, b = _kernels.dp_backward(disc, hx, xs, dt, gh_x, gh_w)
        V = reference_dp_backward(disc, hx, dt, xs[0], xs[1] - xs[0], gh_x, gh_w)
        assert np.max(np.abs(v_first - V[0])) <= 1e-10
        b_ref = reference_extract_boundary(disc, hx, V, xs)
        assert np.max(np.abs(np.minimum.accumulate(b) - b_ref)) <= 1e-10

    def test_stencil_rows_hold_at_most_ten_entries(self):
        xs = np.linspace(-1.0, 1.0, 50)
        gh_x, gh_w = oracle._gauss_hermite()
        A = _kernels.expectation_stencil(xs, 0.1 * gh_x, gh_w)
        dense = np.column_stack([A @ e for e in np.eye(xs.size)])
        assert (dense != 0.0).sum(axis=1).max() <= 2 * gh_x.size
        assert np.allclose(dense.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("label, width, t_steps",
                             [("linear", None, 120), ("put", None, 120), ("linear", 0.5, 20)])
    def test_three_pass_step_matches_two_row_loop(self, label, width, t_steps):
        # Outer Gauss--Hermite points leave the grid at both edges on every
        # case; at width 0.5 some leave it again after the reflection.
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        ts = np.linspace(-1.0, 0.0, t_steps + 1)
        lo, hi = oracle.default_x_bounds(p, -1.0) if width is None else (-width / 2, width / 2)
        xs = np.linspace(lo, hi, 150)
        disc, hx, dt, gh_x, gh_w = _lattice_inputs(p, ts, xs)
        xp = xs[None, :] + math.sqrt(dt) * gh_x[:, None]
        assert (xp < xs[0]).any() and (xp > xs[-1]).any()
        xp = np.where(xp < xs[0], 2.0 * xs[0] - xp, xp)
        xp = np.where(xp > xs[-1], 2.0 * xs[-1] - xp, xp)
        assert (xp < xs[0]).any() == (width is not None)
        new = _kernels.dp_backward(disc, hx, xs, dt, gh_x, gh_w)
        ref = reference_two_row_dp_backward(disc, hx, xs, dt, gh_x, gh_w)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)
        assert len(np.unique(new[2][:-1])) > 1

    @pytest.mark.parametrize("cont", [
        [0, 0, 0, 0, 0, 0, 0, 0],  # no continuation
        [1, 1, 1, 1, 1, 1, 1, 1],  # continuation up to the last node
        [0, 0, 0, 1, 1, 1, 1, 1],  # ... from inside the grid
        [1, 0, 0, 0, 0, 0, 0, 0],  # transition at node 0
        [1, 1, 1, 0, 0, 0, 1, 1],  # positive band at the far edge
        [0, 1, 1, 0, 0, 1, 0, 0],  # a run from inside, then a band
        [0, 0, 1, 0, 0, 0, 0, 0],  # a one-node run after a stop region
        [0, 0, 0, 0, 0, 0, 0, 1],  # continuation at the last node only
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_boundary_slice_crafted(self, cont, seed):
        rng = np.random.default_rng(seed)
        xs = np.linspace(-1.0, 2.5, 8)
        pay = rng.uniform(0.0, 1.0, 8)
        # the value is the payoff plus a positive gap where it continues
        v = pay + np.where(np.array(cont, dtype=bool), rng.uniform(0.01, 0.5, 8), 0.0)
        b = _kernels.boundary_slice(v, pay, xs, v > pay)
        assert b == reference_boundary_slice(v - pay, xs)
        assert b == reference_extract_boundary(np.ones(1), pay, v[None, :], xs)[0]

    def test_stencil_matches_reference_stencil(self):
        # The sparse matrix of the interpolated points and the np.interp
        # loop, to 1e-14 of the slice's largest value.  Both read each
        # point's fraction off the rounded node values, the stencil off the
        # uniform spacing.  On a rough slice over the put's default range
        # the two references differ by 4e-14 themselves, so rough slices
        # run on narrow grids only.  Outer points leave at one edge, at
        # both, and (the last two) leave again after the reflection.
        gh_x, gh_w = oracle._gauss_hermite()
        rng = np.random.default_rng(3)
        narrow = [(np.linspace(-1.0, 1.0, 50), 0.1),
                  (np.linspace(-0.5, 0.5, 64), math.sqrt(1 / 20)),
                  (np.linspace(-0.25, 0.25, 64), math.sqrt(1 / 20)),
                  (np.linspace(-0.25, 0.25, 64), 0.22)]
        cases = [(xs, scale, rng.normal(size=xs.size)) for xs, scale in narrow]
        for p, t_min, x_steps in ((builtin("linear"), -1.0, 150),
                                  (american_put(1.0, 0.5), -4.0, 3000)):
            xs = np.linspace(*oracle.default_x_bounds(p, t_min), x_steps)
            cases.append((xs, math.sqrt(-t_min / 2000), np.sin(3.0 * xs)))
        for xs, scale, v in cases:
            new = _kernels.expectation_stencil(xs, scale * gh_x, gh_w) @ v
            csr = reference_stencil(xs, scale * gh_x, gh_w) @ v
            cont = reference_expectation(v, xs[0], xs[1] - xs[0], scale, gh_x, gh_w)
            tol = 1e-14 * np.abs(v).max()
            assert np.max(np.abs(new - csr)) <= tol
            assert np.max(np.abs(new - cont)) <= tol

    def test_stencil_rejects_an_asymmetric_rule(self):
        gh_x, gh_w = oracle._gauss_hermite()
        with pytest.raises(ValueError):
            _kernels.expectation_stencil(np.linspace(-1.0, 1.0, 50), 0.1 * gh_x + 1e-3, gh_w)

    @pytest.mark.parametrize("width, x_steps", [(8.0, 400), (0.5, 30)])
    def test_prefix_rows_equal_full_product(self, width, x_steps):
        # Prefixes inside the bottom edge rows, in the interior and into
        # the top edge rows; on the narrow grid every row is an edge row.
        gh_x, gh_w = oracle._gauss_hermite()
        xs = np.linspace(-width / 2, width / 2, x_steps)
        A = _kernels.expectation_stencil(xs, 0.165 * gh_x, gh_w)
        n, reach = xs.size, A.reach
        assert (n <= 2 * reach + 1) == (width == 0.5)
        v = np.random.default_rng(4).normal(size=n)
        full = A @ v
        ms = {1, 2, reach // 2, reach, reach + 1, n // 2, n - reach - 1, n - reach,
              n - reach + 1, n - 1, n}
        for m in sorted(k for k in ms if 1 <= k <= n):
            # rows from m + reach up are not read, rows from m up not written
            A.values[...] = np.where(np.arange(n) < m + reach, v, np.nan)
            out = np.full(n, np.nan)
            A.prefix(m, out)()
            assert np.array_equal(out[:m], full[:m]), m
            assert np.isnan(out[m:]).all()

    def test_peak_memory_below_one_lattice(self, linear):
        t_steps = x_steps = 2000
        tracemalloc.start()
        try:
            oracle.backward_induction(linear, -2.0, t_steps=t_steps, x_steps=x_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (t_steps + 1) * x_steps

    def test_monotone_passes_match_the_loop(self, linear):
        rng = np.random.default_rng(5)
        b = np.round(rng.normal(size=500), 1)  # with ties
        assert np.array_equal(np.minimum.accumulate(b), monotone_loop(b))
        # the lattice boundary and the extrapolated one, bit for bit
        ts = np.linspace(-2.0, 0.0, 101)
        xs = np.linspace(*oracle.default_x_bounds(linear, -2.0), 100)
        disc, hx, dt, gh_x, gh_w = _lattice_inputs(linear, ts, xs)
        raw = _kernels.dp_backward(disc, hx, xs, dt, gh_x, gh_w)[2]
        coarse = oracle.backward_induction(linear, -2.0, t_steps=100, x_steps=100)
        assert np.array_equal(coarse.boundary, monotone_loop(raw))
        fine = oracle.backward_induction(linear, -2.0, t_steps=400, x_steps=200)
        ref = oracle.refined_boundary(linear, -2.0, 100, 100)
        b_fine = np.interp(coarse.t_values, fine.t_values, fine.boundary)
        assert np.array_equal(ref.boundary, monotone_loop(2.0 * b_fine - coarse.boundary))


def _equal_to_two_row_loop(args):
    new, log = rows_multiplied(*args)
    ref = reference_two_row_dp_backward(*args)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)
    assert len(log) == args[0].shape[0] - 1
    return new, log


def _default_lattice(p, t_min, t_steps, x_steps):
    ts = np.linspace(t_min, 0.0, t_steps + 1)
    xs = np.linspace(*oracle.default_x_bounds(p, t_min), x_steps)
    disc, hx, dt, gh_x, gh_w = _lattice_inputs(p, ts, xs)
    return disc, hx, xs, dt, gh_x, gh_w


class TestPrefixStep:
    """Only a row prefix is multiplied; every value and boundary bit is the full product's."""

    def test_put_whose_low_side_stops(self, monkeypatch):
        # Early in the induction the put's continuation run starts well
        # above row 0: the prefix holds a stopped low side as well.
        starts = []
        read = _kernels.boundary_slice

        def recorded(v, pay, xs, cont):
            starts.append(int(cont.argmax()))
            return read(v, pay, xs, cont)

        monkeypatch.setattr(_kernels, "boundary_slice", recorded)
        args = _default_lattice(american_put(1.0, 0.5), -4.0, 400, 600)
        new, log = _equal_to_two_row_loop(args)
        assert max(starts) > 200
        assert len(np.unique(new[2])) > 300

    def test_stadje_without_discounting(self):
        # r = 0: no discounting separates a row's product from its payoff,
        # only the stencil's curvature term, which is zero where the payoff
        # is linear.  The reflected upper edge lifts the expectation of this
        # decreasing payoff above it, so the test cannot clear the top rows
        # and every row stays in the prefix.
        args = _default_lattice(builtin("stadje"), -1.0, 200, 400)
        assert np.all(args[0] == 1.0)
        new, log = _equal_to_two_row_loop(args)
        assert set(log) == {400}
        assert len(np.unique(new[2])) > 100

    def test_prefix_grows_mid_induction(self, monkeypatch):
        # With no spare rows the prefix is sliced again whenever continuation
        # comes within one stencil reach of its edge.
        monkeypatch.setattr(_kernels, "_PREFIX_SLACK", 0)
        args = _default_lattice(builtin("linear"), -2.0, 400, 400)
        new, log = _equal_to_two_row_loop(args)
        assert len(set(log)) > 10
        assert np.all(np.diff(log) >= 0)

    def test_payoff_cleared_nowhere(self):
        # One step that grows by half makes the largest discount ratio about
        # 1.5, so the one-time test clears no row and every row is
        # multiplied; the other steps still stop on the upper side.
        p = builtin("linear")
        ts = np.linspace(-2.0, 0.0, 201)
        disc = np.exp(-p.r * ts)
        disc[:100] /= 1.5
        xs = np.linspace(*oracle.default_x_bounds(p, -2.0), 300)
        hx = np.array([p.h(x) for x in xs])
        gh_x, gh_w = oracle._gauss_hermite()
        new, log = _equal_to_two_row_loop((disc, hx, xs, ts[1] - ts[0], gh_x, gh_w))
        assert set(log) == {xs.size}
        assert len(np.unique(new[2])) > 100

    @pytest.mark.parametrize("label, t_min, x_steps", [("linear", -10.0, 400),
                                                       ("put", -4.0, 600)])
    def test_rows_multiplied_below_x_steps(self, label, t_min, x_steps):
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        _, log = rows_multiplied(*_default_lattice(p, t_min, 400, x_steps))
        assert len(log) == 400
        assert max(log) < x_steps
        assert sum(log) < 0.7 * 400 * x_steps


class TestRefinedBoundary:
    def test_long_horizon_limit(self, linear_oracle, linear):
        # far from expiry the boundary flattens at the perpetual level
        assert linear_oracle.ref.at(-10.0) == pytest.approx(linear.b_inf, abs=0.02)

    def test_stadje_boundary_level(self):
        # square-root-of-time problem: b(t) = alpha * sqrt(-t)
        from stopbound.constants import stadje_alpha

        ref = oracle.refined_boundary(builtin("stadje"), -1.0, 500, 1000)
        assert ref.at(-1.0) == pytest.approx(stadje_alpha(), abs=0.02)

    def test_self_convergence_within_one_cell(self, linear):
        # doubling both resolutions moves the extrapolated boundary by less
        # than one spatial cell of the coarser run
        r1 = oracle.refined_boundary(linear, -2.0, 250, 500)
        r2 = oracle.refined_boundary(linear, -2.0, 500, 1000)
        ts = np.linspace(-1.9, -0.1, 10)
        diff = max(abs(r2.at(t) - r1.at(t)) for t in ts)
        assert diff <= r1.dx


class TestExpiryRoot:
    @staticmethod
    def _boundary(t, b):
        return oracle.RefinedBoundary(t_values=t, boundary=b, dt=t[1] - t[0], dx=0.01,
                                      coarse=None)

    def test_recovers_root_and_coefficient(self):
        # b = a + alpha * sqrt(-t) inside the window; the slices before it
        # and the one at expiry are off the curve and must not enter the fit.
        t = np.linspace(-1.0, 0.0, 2001)
        b = 0.0123 + 0.7 * np.sqrt(-t)
        b[t < -0.05] += 5.0
        b[-1] = -3.0
        a, alpha = oracle.expiry_root(self._boundary(t, b))
        assert a == pytest.approx(0.0123, abs=1e-12)
        assert alpha == pytest.approx(0.7, abs=1e-12)

    def test_needs_two_slices_in_the_window(self):
        t = np.linspace(-1.0, 0.0, 11)
        with pytest.raises(oracle.ResolutionError):
            oracle.expiry_root(self._boundary(t, np.sqrt(-t)))


class TestExtractD:
    def test_origin_and_monotonicity(self, small_grid, linear):
        nodes = np.linspace(0.0, linear.b_inf, 30)
        g, truncated = oracle.extract_d(small_grid, nodes)
        assert g.values[0] == 0.0
        assert np.all(np.diff(g.values) <= 0.0)
        assert truncated[-1]  # the perpetual level is past the horizon

    def test_small_node_scale(self, small_grid):
        # near the origin d(y) ~ -B y^2; the lattice estimate at y = 0.1
        # must land within 50% of that scale
        g, _ = oracle.extract_d(small_grid, np.array([0.0, 0.1]))
        target = -solve_B(1.0).B * 0.01
        assert abs(g.values[1] - target) <= 0.5 * abs(target)

    def test_out_of_range(self, small_grid):
        with pytest.raises(oracle.OutOfRangeError):
            oracle.extract_d(small_grid, np.array([0.0, 1e9]))

    def test_interval_ordering(self, linear_oracle, linear):
        nodes = np.linspace(0.0, linear.b_inf, 20)
        d_lo, d_hi, truncated = oracle.d_intervals(linear_oracle.ref, nodes)
        assert np.all(d_lo <= d_hi + 1e-12)
        assert d_hi[0] == 0.0
        assert truncated[-1]


class TestMonteCarlo:
    def _boundary(self, linear, n=200):
        nodes = np.linspace(0.0, linear.b_inf, n)
        return fredholm.BoundaryGrid(nodes, -solve_B(1.0).B * nodes**2)

    def test_immediate_stop_is_exact(self, linear):
        b = self._boundary(linear)
        est, se = oracle.mc_value(linear, -1.0, 0.9, b, 1000, 7)
        assert est == pytest.approx(math.exp(1.0) * linear.h(0.9), abs=1e-12)
        assert se <= 1e-12

    def test_seed_determinism(self, linear):
        b = self._boundary(linear)
        a = oracle.mc_value(linear, -1.0, 0.0, b, 2000, 42)
        c = oracle.mc_value(linear, -1.0, 0.0, b, 2000, 42)
        d = oracle.mc_value(linear, -1.0, 0.0, b, 2000, 43)
        assert a == c
        assert a != d

    def test_agrees_with_lattice_value(self, linear):
        # near-optimal rule: MC estimate within 3 standard errors of the
        # dynamic-programming value, and never materially above it
        grid = oracle.backward_induction(linear, -1.0, t_steps=4000, x_steps=4000)
        dp_val = float(np.interp(0.0, grid.x_values, grid.value[0]))
        b = self._boundary(linear)
        est, se = oracle.mc_value(linear, -1.0, 0.0, b, 20000, 1234)
        assert abs(est - dp_val) <= 3.0 * se
        assert est <= dp_val + 2.0 * se

    def test_preconditions(self, linear):
        b = self._boundary(linear)
        with pytest.raises(ValueError):
            oracle.mc_value(linear, -1.0, 0.0, b, 10, 0)
        with pytest.raises(ValueError):
            oracle.mc_value(linear, 1.0, 0.0, b, 2000, 0)
        with pytest.raises(ValueError, match="n_steps"):
            oracle.mc_value(linear, -1.0, 0.0, b, 2000, 0, n_steps=0)
        with pytest.raises(ValueError, match="even"):
            oracle.mc_value(linear, -1.0, 0.0, b, 2001, 0)

    @pytest.mark.parametrize("x0", [-0.5, 0.0, 0.3])
    def test_mirror_cancels_when_the_rule_never_binds(self, linear, x0):
        # d = -1e-9 y^2 binds only at time 0, where linear pays the position:
        # the two members of a pair end at x0 + S and x0 - S.
        nodes = np.linspace(0.0, 50.0, 200)
        b = fredholm.BoundaryGrid(nodes, -1e-9 * nodes**2)
        est, se = oracle.mc_value(linear, -1.0, x0, b, 2000, 6, n_steps=400)
        assert est == pytest.approx(x0, abs=1e-12)
        assert se <= 1e-12

    @staticmethod
    def _kernel(s, x0, dt, normals, b_path, running):
        """The kernel over ``normals`` of shape ``(pairs, steps)``, its scratch made here."""
        walk = normals.T.copy()
        return _kernels.mc_first_crossing(s, x0, dt, walk, np.empty(walk.shape, dtype=bool),
                                          b_path[1:], running)

    def test_kernel_matches_step_loop_on_ties(self):
        # Integer steps against levels at integers from x0 land exactly on
        # the boundary: S = b - x0 for the first member, S = x0 - b for the
        # second.
        normals = np.round(np.random.default_rng(4).normal(size=(300, 40)))
        for x0 in (0.0, 0.5):
            b_path = np.full(41, 2.0 + x0)
            b_path[::7] = 3.0 + x0
            s, running = np.zeros(300), np.ones((2, 300), dtype=bool)
            col, x = self._kernel(s, x0, 1.0, normals, b_path, running)
            step = np.minimum(col + 1, 40)
            ref_step, ref_x, ref_s, ref_running = reference_mc_pair_crossing(x0, 1.0, normals,
                                                                             b_path)
            assert np.array_equal(step, ref_step) and np.array_equal(x, ref_x)
            assert np.array_equal(running, ref_running) and running.any()
            live = running.any(axis=0)
            assert np.array_equal(s[live], ref_s[live])
            for m, sign in enumerate((1.0, -1.0)):
                old = reference_mc_first_crossing(x0, 40, 1.0, sign * normals, b_path)
                assert np.array_equal(step[m], old[0]) and np.array_equal(x[m], old[1])
                assert np.any(x[m] == b_path[step[m]]) and np.any(step[m] == 40)

    def test_masked_member_never_crosses(self):
        # A member flagged as stopped never crosses, though its walk would;
        # its partner walks as alone.
        normals = np.random.default_rng(5).normal(size=(300, 40))
        b_path = np.full(41, 1.5)
        s = np.zeros(300)
        running = np.array([np.ones(300, dtype=bool), np.zeros(300, dtype=bool)])
        col, x = self._kernel(s, 0.0, 0.1, normals, b_path, running)
        ref = reference_mc_first_crossing(0.0, 40, 0.1, normals, b_path)
        assert np.array_equal(np.minimum(col[0] + 1, 40), ref[0])
        assert np.array_equal(x[0], ref[1]) and np.any(col[0] < 40)
        assert np.array_equal(running[0], col[0] == 40) and not running[1].any()
        assert np.any(reference_mc_first_crossing(0.0, 40, 0.1, -normals, b_path)[0] < 40)
        assert np.all(col[1] == 40) and np.array_equal(x[1], -s)

    @pytest.mark.parametrize("x0", [-0.5, 0.0, 0.3])
    def test_pair_loop_matches_member_loop(self, linear, x0):
        # One displacement per pair puts each member at x0 + S or x0 - S,
        # one rounding, where the member loop rounds its position from x0 at
        # every one of up to 400 steps: the same stop steps, positions at
        # most 22 ulps of max(|x|, 1) apart on these seeds, and at x0 = 0
        # the same bits.
        dt, b_path = _mc_b_path(-1.0, self._boundary(linear), 400)
        for seed in (3, 6, 11):
            normals = np.random.default_rng(seed).standard_normal((1000, 400))
            step, x, _, _ = reference_mc_pair_crossing(x0, dt, normals, b_path)
            assert np.any(step < 400) and np.any(step == 400)
            for m, sign in enumerate((1.0, -1.0)):
                old_step, old_x = reference_mc_first_crossing(x0, 400, dt, sign * normals, b_path)
                assert np.array_equal(step[m], old_step)
                if x0 == 0.0:
                    assert np.array_equal(x[m], old_x)
                ulp = np.spacing(np.maximum(np.abs(old_x), 1.0))
                assert np.all(np.abs(x[m] - old_x) <= 32 * ulp)

    @pytest.mark.parametrize("x0", [-0.5, 0.0, 0.3, 0.9])
    def test_matches_one_shot_reference(self, monkeypatch, linear, x0):
        # One chunk spanning every step draws each stream's whole
        # (n_steps, pairs) array at once, so it is the one-shot draw.  0.9
        # starts past the boundary.  4098 paths split into 1024 and 1025
        # pairs.
        monkeypatch.setattr(oracle, "_MC_BLOCK_VALUES", 4098 * 400)
        b = self._boundary(linear)
        args = (linear, -1.0, x0, b, 4098, 11)
        assert oracle.mc_value(*args, n_steps=400) == reference_one_shot_mc_value(
            *args, n_steps=400)

    @staticmethod
    def _counted(monkeypatch):
        """Record the shape of every chunk's walk, and of every draw by stream.

        Streams are keyed by the spawn key of their generator's seed.
        """
        shapes, draws = [], {}
        kernel, default_rng = _kernels.mc_first_crossing, np.random.default_rng

        def counted(s, x0, dt, walk, hit, b, running):
            shapes.append(walk.shape)
            return kernel(s, x0, dt, walk, hit, b, running)

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.drawn = draws.setdefault(seed.spawn_key, [])

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                self.drawn.append(out.shape)
                return out

        monkeypatch.setattr(_kernels, "mc_first_crossing", counted)
        monkeypatch.setattr(oracle.np.random, "default_rng", CountingRng)
        return shapes, draws

    @pytest.mark.parametrize("width", [1, 3, 52])
    def test_chunk_widths_match(self, monkeypatch, linear, width):
        # 110 steps end on a short chunk at widths 3 and 52.  Some paths run
        # to time 0, so every chunk of each stream is drawn, except from 0.3
        # on the put, which starts past its boundary.
        p = american_put(1.0, 0.5)
        rule, _ = oracle.extract_d(oracle.backward_induction(p, -1.0, None, 200, 200),
                                   np.linspace(0.0, p.b_inf, 40))
        schedule = [width] * (110 // width) + [110 % width] * (110 % width > 0)
        monkeypatch.setattr(oracle, "_MC_BLOCK_VALUES", 1000 * width + 999)
        shapes, draws = self._counted(monkeypatch)
        for prob, b in ((p, rule), (linear, self._boundary(linear))):
            for x0 in (-0.5, 0.0, 0.3):
                args = (prob, -1.0, x0, b, 1000, 3)
                ref = reference_mc_value(*args, n_steps=110, width=width)
                shapes.clear()
                draws.clear()
                assert oracle.mc_value(*args, n_steps=110) == ref
                stops_at_once = prob is p and x0 == 0.3
                assert sorted(draws) == [(0,), (1,)]
                for drawn in draws.values():
                    assert [w for w, _ in drawn] == ([] if stops_at_once else schedule)
                assert sorted(shapes) == sorted(d for v in draws.values() for d in v)

    def test_draws_only_for_running_paths(self, monkeypatch, linear):
        # Chunks of 20 steps, each drawn only for the pairs left in its
        # stream; each stream starts with 500 of the 1000 pairs.
        monkeypatch.setattr(oracle, "_MC_BLOCK_VALUES", 2000 * 20)
        shapes, draws = self._counted(monkeypatch)
        oracle.mc_value(linear, -1.0, 0.0, self._boundary(linear), 2000, 8, n_steps=400)
        assert sorted(draws) == [(0,), (1,)]
        for drawn in draws.values():
            rows = [r for _, r in drawn]
            assert rows[0] == 500 and rows == sorted(rows, reverse=True) and rows[-1] < 500
        assert sorted(shapes) == sorted(d for v in draws.values() for d in v)
        assert sum(w * r for w, r in shapes) < 1000 * 400

    def test_stop_at_once_draws_nothing(self, monkeypatch, linear):
        shapes, draws = self._counted(monkeypatch)
        est, se = oracle.mc_value(linear, -1.0, 0.9, self._boundary(linear), 2000, 8)
        assert shapes == [] and all(v == [] for v in draws.values())
        assert est == pytest.approx(math.exp(linear.r) * linear.h(0.9), abs=1e-12)
        assert se <= 1e-12

    def test_returns_with_no_thread_running(self, linear):
        threads = threading.active_count()
        oracle.mc_value(linear, -1.0, 0.0, self._boundary(linear), 2002, 9, n_steps=300)
        assert threading.active_count() == threads

    def test_worker_error_reaches_caller(self, monkeypatch, linear):
        # 2002 paths: the second stream alone walks a chunk of 501 pairs.
        error = RuntimeError("second stream failed")
        kernel = _kernels.mc_first_crossing

        def failing(s, x0, dt, walk, hit, b, running):
            if walk.shape[1] == 501:
                raise error
            return kernel(s, x0, dt, walk, hit, b, running)

        monkeypatch.setattr(_kernels, "mc_first_crossing", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            oracle.mc_value(linear, -1.0, 0.0, self._boundary(linear), 2002, 9, n_steps=300)
        assert raised.value is error
        assert threading.active_count() == threads

    def test_peak_memory_below_one_draw(self, linear):
        # One (20000, 2000) draw of normals is 320 MB.
        b = self._boundary(linear)
        tracemalloc.start()
        try:
            oracle.mc_value(linear, -1.0, 0.0, b, 20000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_peak_memory_one_walk_per_pair(self, linear):
        # Chunks of 52 steps over 10000 pairs: one float walk buffer and its
        # boolean hit scratch per stream, 4.2 and 0.5 MB over both.  A
        # second walk per pair would add 4.2 MB.
        b = self._boundary(linear)
        tracemalloc.start()
        try:
            oracle.mc_value(linear, -1.0, 0.0, b, 20000, 5, n_steps=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
