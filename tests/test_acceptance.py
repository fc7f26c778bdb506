"""Acceptance suite.

One test per release criterion; each prints a single ``CRITERION n PASS``
or ``CRITERION n FAIL`` line with the measured figures before asserting.
Expensive artifacts come from session fixtures (see ``conftest.py``) that
record their own build time, so runtime budgets cover the real cost.
"""

import math
import time

import numpy as np
import pytest

from stopbound import bounds as bounds_mod
from stopbound import fredholm, oracle, solver
from stopbound.constants import solve_B, stadje_alpha
from stopbound.fredholm import BoundaryGrid, CGrid, closed_form_residual, penalty
from stopbound.problem import builtin

from conftest import interval_gaps

B1_REFERENCE = 2.4503
BETA_TABLE = {0.5: 3.0133, 2.0: 1.7814, 3.0: 1.3984}
BETA_ZERO_TABLED = 3.9084
ALPHA_REFERENCE = 0.638833


def _report(number, ok, detail):
    print(f"\nCRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_universal_constant():
    t0 = time.perf_counter()
    const = solve_B(1.0)
    residual = abs(const.identity_residual())
    elapsed = time.perf_counter() - t0
    err = abs(const.B - B1_REFERENCE)
    ok = err <= 1e-3 and residual <= 1e-8 and elapsed < 1.0
    _report(
        1,
        ok,
        f"B={const.B:.6f} (|err|={err:.2e}<=1e-3), identity residual "
        f"{residual:.2e}<=1e-8, {elapsed:.2f}s<1s",
    )


def test_criterion_2_constant_table():
    t0 = time.perf_counter()
    values = {beta: solve_B(beta).B for beta in (0.0, 0.5, 2.0, 3.0)}
    elapsed = time.perf_counter() - t0
    errs = {b: abs(values[b] - BETA_TABLE[b]) for b in BETA_TABLE}
    ordered = [values[b] for b in (0.0, 0.5, 2.0, 3.0)]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    ok = all(e <= 1e-3 for e in errs.values()) and decreasing and elapsed < 5.0
    _report(
        2,
        ok,
        "B(beta) table "
        + ", ".join(f"{b}:{values[b]:.4f}" for b in (0.0, 0.5, 2.0, 3.0))
        + f"; errors {max(errs.values()):.2e}<=1e-3 (beta>0), strictly "
        f"decreasing={decreasing}, {elapsed:.2f}s<5s "
        "(beta=0 tabled value checked separately)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published table value 3.9084 for the power-0 constant is "
        "inconsistent with its own defining identity, whose root is "
        "3.904860 (independent closed form: sqrt(2*pi/B)*exp(1/(2B))*"
        "Phi(1/sqrt(B)) = 1); the 3.5e-3 discrepancy exceeds the 1e-3 "
        "tolerance for every root-finder tolerance, so this sub-check "
        "cannot pass against the tabled figure"
    ),
)
def test_criterion_2_power_zero_tabled_value():
    assert abs(solve_B(0.0).B - BETA_ZERO_TABLED) <= 1e-3


def test_criterion_3_square_root_coefficient():
    t0 = time.perf_counter()
    alpha = stadje_alpha()
    elapsed = time.perf_counter() - t0
    err = abs(alpha - ALPHA_REFERENCE)
    link = abs(alpha - 1.0 / math.sqrt(solve_B(1.0).B))
    ok = err <= 1e-4 and link <= 1e-4 and elapsed < 1.0
    _report(
        3,
        ok,
        f"alpha={alpha:.6f} (|err|={err:.2e}<=1e-4), "
        f"|alpha - 1/sqrt(B)|={link:.2e}<=1e-4, {elapsed:.2f}s<1s",
    )


def test_criterion_4_closed_form_verification():
    t0 = time.perf_counter()
    alpha = stadje_alpha()
    worst = fredholm.verify_closed_form("stadje", [1.0, 2.0, 4.0])
    sign_change = (
        closed_form_residual(alpha - 0.05, 2.0) > 0.0
        and closed_form_residual(alpha + 0.05, 2.0) < 0.0
    )
    wrong = abs(closed_form_residual(0.9, 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and sign_change and wrong >= 1e-2 and elapsed < 30.0
    _report(
        4,
        ok,
        f"double-integral residual {worst:.2e}<=1e-5 at c in {{1,2,4}}, "
        f"sign change across alpha={sign_change}, wrong-coefficient residual "
        f"{wrong:.2e}>=1e-2, {elapsed:.1f}s<30s",
    )


def test_criterion_5_linear_solve(linear_solution):
    rep = linear_solution.report
    ideal = float(len(linear_solution.cgrid))
    obj = rep.objective
    trace = rep.objective_trace
    monotone = all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    b_fit = solver.asymptotic_check(rep, linear_solution.problem, k=5)
    fit_err = abs(b_fit - B1_REFERENCE) / B1_REFERENCE
    seconds = linear_solution.env_seconds + linear_solution.seconds
    ok = (
        rep.converged
        and abs(obj - ideal) <= 0.01 * ideal
        and monotone
        and rep.grid.values[0] == 0.0
        and fit_err <= 0.25
        and seconds < 300.0
    )
    _report(
        5,
        ok,
        f"objective {obj:.6f} within 1% of {ideal:.0f}, trace monotone="
        f"{monotone}, d(0)=0, fitted B {b_fit:.4f} within 25% of "
        f"{B1_REFERENCE} (rel err {fit_err:.1%}), {seconds:.0f}s<300s",
    )


def test_criterion_6_linear_vs_oracle(linear_solution, linear_oracle):
    ref = linear_oracle.ref
    gap, truncated = interval_gaps(
        ref, linear_solution.report.grid.nodes, linear_solution.report.grid.values
    )
    slack = 3.0 * ref.dt
    worst = float(np.max(gap[~truncated]))
    tail = ref.at(ref.t_values[0])
    tail_err = abs(tail - math.sqrt(0.5))
    seconds = (
        linear_solution.env_seconds + linear_solution.seconds + linear_oracle.seconds
    )
    ok = worst <= slack and tail_err <= 0.02 and seconds < 600.0
    _report(
        6,
        ok,
        f"max segment gap to lattice reference {worst:.4f}<= {slack:.4f} "
        f"(3 time steps), reference long-horizon level err "
        f"{tail_err:.4f}<=0.02, {seconds:.0f}s<600s",
    )


def test_criterion_7_certified_envelope(linear_setup, linear_oracle):
    ref = linear_oracle.ref
    env = linear_setup.envelope
    history = linear_setup.history
    nodes = env.lower.nodes
    d_lo, d_hi, truncated = oracle.d_intervals(ref, nodes)
    slack = ref.dt
    interior = ~truncated
    contain = np.all(
        (env.lower.values[:-1][interior] - slack <= d_hi[interior])
        & (env.upper.values[:-1][interior] + slack >= d_lo[interior])
    )
    tighten = all(
        np.all(nxt.widths <= prev.widths + 1e-12)
        for prev, nxt in zip(history, history[1:])
    )
    seconds = linear_setup.env_seconds + linear_oracle.seconds
    ok = bool(contain) and tighten and seconds < 300.0
    _report(
        7,
        ok,
        f"envelope contains the lattice boundary at "
        f"{int(interior.sum())} interior segments (one-step slack)="
        f"{bool(contain)}, widths non-increasing={tighten} over "
        f"{len(history)} iterations, {seconds:.0f}s<300s "
        "(no convergence of the envelope is asserted)",
    )


def test_criterion_8_property_suite(linear_problem):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)

    # penalty equals its floor exactly at the origin, exceeds it elsewhere
    floor_ok = True
    for _ in range(1000):
        c = float(rng.uniform(0.5, 5.0))
        lo = -0.99 / (c * c)
        x = 0.0
        while abs(x) < 1e-3:
            x = float(rng.uniform(lo, 3.0))
        if not penalty(c, x) > 1.0:
            floor_ok = False
            break
    floor_ok = floor_ok and penalty(2.0, 0.0) == 1.0

    # residual strictly increases when any boundary value moves toward zero
    g = BoundaryGrid.uniform(linear_problem, 10)
    base = g.with_values(-2.0 * g.nodes**2)
    r0 = fredholm.residual(linear_problem, base, 2.0)
    mono_ok = True
    for n in range(1, 9):
        bumped = base.values.copy()
        bumped[n] += 1e-6
        if fredholm.residual(linear_problem, base.with_values(bumped), 2.0) <= r0:
            mono_ok = False

    # quadrature self-consistency against the analytic moment
    from stopbound.constants import closed_form_moment, moment_integral

    quad_ok = all(
        abs(moment_integral(B, 1.0) - closed_form_moment(B)) <= 1e-9
        for B in (0.7, 2.45, 6.0)
    )

    # Monte Carlo determinism under a fixed seed
    bb = g.with_values(-2.45 * g.nodes**2)
    mc1 = oracle.mc_value(linear_problem, -1.0, 0.0, bb, 2000, 99, n_steps=400)
    mc2 = oracle.mc_value(linear_problem, -1.0, 0.0, bb, 2000, 99, n_steps=400)
    mc_ok = mc1 == mc2

    # solve determinism: identical inputs give bit-identical boundaries
    nodes = BoundaryGrid.uniform(linear_problem, 16).nodes
    cgrid = CGrid.for_problem(linear_problem, 10)
    env = bounds_mod.iterate(linear_problem, nodes, cgrid, 1)
    s1 = solver.solve(linear_problem, cgrid, env)
    s2 = solver.solve(linear_problem, cgrid, env)
    solve_ok = np.array_equal(s1.grid.values, s2.grid.values)

    elapsed = time.perf_counter() - t0
    ok = floor_ok and mono_ok and quad_ok and mc_ok and solve_ok and elapsed < 120.0
    _report(
        8,
        ok,
        f"penalty floor iff origin (1000 samples)={floor_ok}, residual "
        f"monotone in boundary values={mono_ok}, quadrature matches analytic "
        f"moment={quad_ok}, MC deterministic={mc_ok}, solve deterministic="
        f"{solve_ok}, {elapsed:.0f}s<120s",
    )


def test_criterion_9_american_put(
    put_problem, put_solution, put_solution_midpoint, put_oracle
):
    rep = put_solution.report
    root, _alpha = oracle.expiry_root(put_oracle.ref)
    root_tol = 0.015
    b_fit = solver.asymptotic_check(rep, put_problem, k=5)
    fit_err = abs(b_fit - B1_REFERENCE) / B1_REFERENCE
    ref = put_oracle.ref
    gap, truncated = interval_gaps(ref, rep.grid.nodes, rep.grid.values)
    slack = 3.0 * ref.dt
    worst = float(np.max(gap[~truncated]))
    spread = float(
        np.max(
            np.abs(rep.grid.values - put_solution_midpoint.report.grid.values)
        )
    )
    multistart_tol = 1e-6
    seconds = (
        put_solution.env_seconds
        + put_solution.seconds
        + put_solution_midpoint.seconds
        + put_oracle.seconds
    )
    ok = (
        rep.converged
        and put_solution_midpoint.report.converged
        and abs(root) <= root_tol
        and fit_err <= 0.35
        and worst <= slack
        and spread <= multistart_tol
        and seconds < 600.0
    )
    _report(
        9,
        ok,
        f"lattice root at expiry {root:+.5f} from log(theta), |.|<={root_tol}, fitted B {b_fit:.4f} within "
        f"35% (rel err {fit_err:.1%}), max gap to lattice reference "
        f"{worst:.4f}<={slack:.4f} (3 time steps), multi-start spread "
        f"{spread:.2e}<={multistart_tol:.0e}, {seconds:.0f}s<600s",
    )
