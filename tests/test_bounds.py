"""Certified envelope construction and its tightening behavior."""

import math

import numpy as np
import pytest

from stopbound import bounds as bounds_mod
from stopbound.bounds import (
    GRID,
    BoundaryEnvelope,
    extended_cvalues,
    initial_envelope,
    iterate,
    lower_step,
    upper_step,
)
from stopbound.constants import solve_B
from stopbound.fredholm import BoundaryGrid, CGrid
from stopbound.problem import builtin, american_put

from reference_loops import (
    BISECTION_TOL,
    certificate_faults,
    reference_lower_step,
    reference_upper_step,
    residuals,
)


N_NODES = 24
N_C = 16


@pytest.fixture(scope="module")
def linear():
    return builtin("linear")


@pytest.fixture(scope="module")
def cgrid(linear):
    return CGrid.for_problem(linear, N_C)


@pytest.fixture(scope="module")
def nodes(linear):
    return BoundaryGrid.uniform(linear, N_NODES).nodes


@pytest.fixture(scope="module")
def env0(linear, cgrid, nodes):
    return initial_envelope(linear, nodes, cgrid)


@pytest.fixture(scope="module")
def env3(linear, cgrid, nodes):
    history = []
    env = iterate(linear, nodes, cgrid, 3, collect=history)
    return env, history


class TestInitialEnvelope:
    def test_upper_is_zero(self, env0):
        assert np.all(env0.upper.values == 0.0)
        assert env0.iteration == 0

    def test_lower_strictly_negative_interior(self, env0):
        assert env0.lower.values[0] == 0.0
        assert np.all(env0.lower.values[1:] <= -1e-6)

    def test_lower_monotone(self, env0):
        assert np.all(np.diff(env0.lower.values) <= 1e-15)

    def test_mid_node_sandwich(self, env0):
        # the true boundary behaves like -B x^2 near the origin; the first
        # certified envelope must not exclude that scale at a mid node
        B = solve_B(1.0).B
        k = N_NODES // 2
        x = env0.lower.nodes[k]
        assert env0.lower.values[k] <= -B * x * x / 4.0
        assert env0.lower.values[k] >= -4.0 * B * x * x - 1.0

    def test_truncation_flags_near_terminal_node(self, env0):
        # at the last node only arbitrarily deep levels pass the certificate
        assert env0.lower_truncated[-1]
        assert not env0.lower_truncated[1]


class TestSteps:
    def test_upper_step_interior_negative(self, linear, env0):
        up = upper_step(linear, env0.lower, env0.tabulation)
        # Node k is certified from segments 0..k-1 only: nodes 1 and 2 stay 0.
        assert np.all(up.values[:3] == 0.0)
        assert np.all(up.values[3:] < 0.0)
        assert np.all(up.values >= env0.lower.values)

    def test_lower_step_respects_cap(self, linear, env0):
        up = upper_step(linear, env0.lower, env0.tabulation)
        low, _ = lower_step(linear, up, env0.tabulation)
        assert np.all(low.values <= up.values + 1e-12)

    def test_extended_cvalues(self, linear, cgrid):
        ext = extended_cvalues(linear, cgrid)
        assert ext.shape == (N_C + 8,)
        assert np.all(np.diff(ext) > 0.0)
        assert ext[-1] == pytest.approx(4.0 * cgrid.values[-1])


class TestIterate:
    def test_first_iteration_matches_manual_steps(self, linear, cgrid, nodes, env0):
        env1 = iterate(linear, nodes, cgrid, 1)
        manual = upper_step(linear, env0.lower, env0.tabulation)
        assert np.array_equal(env1.lower.values, env0.lower.values)
        assert np.allclose(
            env1.upper.values, np.minimum(manual.values, 0.0), atol=1e-15
        )

    def test_history_structure(self, env3):
        env, history = env3
        assert len(history) == 4
        assert [e.iteration for e in history] == [0, 1, 2, 3]
        assert env is history[-1]

    def test_sandwich_preserved(self, env3):
        env, _ = env3
        assert np.all(env.lower.values <= env.upper.values + 1e-12)
        assert np.all(np.diff(env.lower.values) <= 1e-15)
        assert np.all(np.diff(env.upper.values) <= 1e-15)

    def test_widths_never_loosen(self, env3):
        _, history = env3
        for prev, nxt in zip(history, history[1:]):
            assert np.all(nxt.widths <= prev.widths + 1e-12)

    def test_invalid_iteration_count(self, linear, cgrid, nodes):
        with pytest.raises(ValueError):
            iterate(linear, nodes, cgrid, 0)


class TestEnvelopeValidation:
    def test_crossing_bounds_rejected(self, nodes, env0):
        lower = BoundaryGrid(nodes, np.zeros(nodes.shape[0]))
        vals = np.linspace(0.0, -1.0, nodes.shape[0])
        upper = BoundaryGrid(nodes, vals)
        with pytest.raises(ValueError):
            BoundaryEnvelope(lower, upper, 0, np.zeros(nodes.shape[0], dtype=bool),
                             env0.tabulation)

    def test_mismatched_nodes_rejected(self, linear, nodes, env0):
        other = BoundaryGrid.uniform(linear, N_NODES + 1)
        lower = BoundaryGrid(nodes, np.zeros(nodes.shape[0]))
        with pytest.raises(ValueError):
            BoundaryEnvelope(lower, other, 0, np.zeros(nodes.shape[0], dtype=bool),
                             env0.tabulation)


class TestLockstepMatchesScalarBisection:
    """The lockstep steps reproduce the per-node scalar bisection, refined on the grid, exactly.

    The reference bisects each node to ``BISECTION_TOL`` and then bisects
    the grid of certified levels within its final bracket, so a matching
    bound lies within one grid step of that bracket on its certified side;
    every bound also carries its certificate in full sums, and loses it one
    grid step inward.
    """

    PROBLEMS = {
        "linear": lambda: builtin("linear"),
        "put_1_0.5": lambda: american_put(1.0, 0.5),
        "put_0.6_0.45": lambda: american_put(0.6, 0.45),
        "put_1.4_0.75": lambda: american_put(1.4, 0.75),
    }

    @pytest.mark.parametrize("grid", [(24, 16), (60, 40)])
    @pytest.mark.parametrize("label", sorted(PROBLEMS))
    def test_steps_bit_equal(self, label, grid):
        p = self.PROBLEMS[label]()
        n_nodes, n_c = grid
        t_max = 50.0 / p.r  # the default
        nodes = BoundaryGrid.uniform(p, n_nodes).nodes
        env = initial_envelope(p, nodes, CGrid.for_problem(p, n_c))
        tab = env.tabulation
        zero = BoundaryGrid(nodes, np.zeros(n_nodes))
        ref_low, ref_trunc = reference_lower_step(tab, zero, BISECTION_TOL, t_max, GRID)
        assert np.array_equal(env.lower.values, ref_low)
        assert np.array_equal(env.lower_truncated, ref_trunc)
        assert ref_trunc.any() and not ref_trunc.all()
        assert certificate_faults(tab, zero, env.lower.values, GRID, t_max, lower=True) == []

        up = upper_step(p, env.lower, tab)
        ref_up = reference_upper_step(tab, env.lower, BISECTION_TOL, t_max, GRID)
        assert np.array_equal(up.values, ref_up)
        assert certificate_faults(tab, env.lower, up.values, GRID, t_max, lower=False) == []

        low, trunc = lower_step(p, up, tab)
        ref_low, ref_trunc = reference_lower_step(tab, up, BISECTION_TOL, t_max, GRID)
        assert np.array_equal(low.values, ref_low)
        assert np.array_equal(trunc, ref_trunc)
        assert certificate_faults(tab, up, low.values, GRID, t_max, lower=True) == []

    def test_small_t_max_truncates(self, linear, env0, monkeypatch):
        # Levels of about 1 are certified at the middle nodes, so a range of
        # [-1, 0] truncates the deeper half of the nodes.
        tab, t_max = env0.tabulation, 1.0
        monkeypatch.setattr(bounds_mod, "_default_t_max", lambda p: t_max)
        zero = env0.upper
        low, trunc = lower_step(linear, zero, tab)
        ref_low, ref_trunc = reference_lower_step(tab, zero, BISECTION_TOL, t_max, GRID)
        assert 1 < trunc.sum() < N_NODES - 1  # some nodes truncate, not all
        assert np.array_equal(trunc, ref_trunc)
        assert np.array_equal(low.values, ref_low)
        assert np.all(low.values[trunc] == -t_max)
        assert certificate_faults(tab, zero, low.values, GRID, t_max, lower=True) == []
        # Truncated at -1, the lower bound is not one: it fails its own
        # certificate against the upper step.
        with pytest.raises(ValueError, match="upper_step"):
            upper_step(linear, low, tab)

    def test_failing_upper_bound_raises(self, linear, env0):
        # An "upper" bound below the lower one is not certified: the residual
        # at the bound itself is negative.
        deep = env0.upper.with_values(2.0 * env0.lower.values)
        assert np.min(residuals(env0.tabulation, deep.values[:-1])) < 0.0
        with pytest.raises(ValueError, match="lower_step"):
            lower_step(linear, deep, env0.tabulation)

    def test_infeasible_lower_bound_raises(self, linear, env0):
        # A "lower" bound above the upper one makes every level infeasible at
        # every node.
        up = upper_step(linear, env0.lower, env0.tabulation)
        shallow = env0.lower.with_values(0.5 * up.values)
        with pytest.raises(ValueError, match="upper_step"):
            upper_step(linear, shallow, env0.tabulation)


class TestCertifiedSteps:
    """Every bound a step returns is proved by the full-sum residuals, and sharp to one grid step."""

    PROBLEMS = {
        "linear": lambda: builtin("linear"),
        "put_1_0.5": lambda: american_put(1.0, 0.5),
    }

    @staticmethod
    def recorded_steps(p, monkeypatch):
        """``(lower, against, values, tab)`` of every step of ``iterate`` at 60x40, 3 iterations."""
        steps = []
        lower, upper = bounds_mod.lower_step, bounds_mod.upper_step

        def lower_recorded(p, against, tab):
            out = lower(p, against, tab)
            steps.append((True, against, out[0].values, tab))
            return out

        def upper_recorded(p, against, tab):
            out = upper(p, against, tab)
            steps.append((False, against, out.values, tab))
            return out

        monkeypatch.setattr(bounds_mod, "lower_step", lower_recorded)
        monkeypatch.setattr(bounds_mod, "upper_step", upper_recorded)
        iterate(p, BoundaryGrid.uniform(p, 60).nodes, CGrid.for_problem(p, 40), 3)
        return steps

    @pytest.mark.parametrize("label", sorted(PROBLEMS))
    def test_every_returned_level_is_certified(self, label, monkeypatch):
        p = self.PROBLEMS[label]()
        steps = self.recorded_steps(p, monkeypatch)
        assert [lower for lower, *_ in steps] == [True, False, True, False]
        t_max = 50.0 / p.r
        for lower, against, values, tab in steps:
            assert np.any(values[1:] != (-t_max if lower else 0.0))  # something is probed
            assert certificate_faults(tab, against, values, GRID, t_max, lower) == []

    # (start of the grid search given the closed-form level, extra evaluations allowed)
    STARTS = {
        # one gallop and one bisection over the piece, each at most log2 of
        # its width in grid steps, plus one
        "outward_end": (lambda tau: np.full_like(tau, -np.inf), None),
        "inward_end": (lambda tau: np.full_like(tau, np.inf), None),
        # three grid steps inward: a gallop of 2 and a bisection of 2
        "three_steps_in": (lambda tau: tau + 3 * GRID, 5),
    }

    @pytest.mark.parametrize("start", sorted(STARTS))
    @pytest.mark.parametrize("label", sorted(PROBLEMS))
    def test_grid_search_from_a_bad_start(self, label, start, monkeypatch):
        # Started away from the closed-form switch level, the galloping
        # search must find the same grid point within its evaluation bound.
        p = self.PROBLEMS[label]()
        env = initial_envelope(p, BoundaryGrid.uniform(p, 60).nodes, CGrid.for_problem(p, 40))
        tab = env.tabulation
        calls = []
        block, switch = bounds_mod._block_residuals, bounds_mod._switch_levels

        def counted(*args):
            calls.append(1)
            return block(*args)

        monkeypatch.setattr(bounds_mod, "_block_residuals", counted)

        def run():
            calls.clear()
            up = upper_step(p, env.lower, tab)
            n_up = len(calls)
            low, trunc = lower_step(p, up, tab)
            return up.values, low.values, trunc, n_up, len(calls) - n_up

        *good, good_up, good_low = run()
        moved, bound = self.STARTS[start]
        monkeypatch.setattr(bounds_mod, "_switch_levels", lambda *args: moved(switch(*args)))
        *bad, bad_up, bad_low = run()
        assert all(np.array_equal(a, b) for a, b in zip(good, bad))
        if bound is None:
            bound = 2 * math.ceil(math.log2(50.0 / p.r / GRID + 2)) + 2
        for n_good, n_bad in ((good_up, bad_up), (good_low, bad_low)):
            assert n_good < n_bad <= n_good + bound
