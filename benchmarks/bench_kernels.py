"""Time the rewritten kernels against the loops they replaced.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_kernels.py

The references live in ``tests/reference_loops.py``: the per-node scalar
bisection with one full residual sum per probe, one adaptive quadrature per
segment and parameter, and the lattice that interpolates every
Gauss--Hermite point with ``np.interp`` and stores the whole value array,
the two-row lattice step that stored the stencil's zeros, multiplied every
row and formed a value-payoff gap per slice, and the Monte Carlo loop that
walks each member of every running antithetic pair one step at a time
through the same chunks of normals, in the same two streams.  The envelope
steps, the two-row lattice and the Monte Carlo estimates must match their
reference exactly, the weights to 1e-12 relative, and the ``np.interp``
lattice values to 1e-9.  The envelope steps' reference refines each
bisection bracket on the grid of certified levels, every bound must carry
its certificate in the full-sum residuals and lose it one grid step
inward, and the row prints the steps' count of residual-block
evaluations beside their time.  The two-row comparison runs on each
lattice that ``stopbound oracle`` runs in the benchmark and prints the
share of stencil rows the current step multiplies.  On the same lattices, one step's product over a
prefix of a quarter and of half the rows is timed against SciPy's CSR
product of the same stencil (the lattice's product before it ran on NumPy
alone), which it must match to 1e-14.  The pure-Python ``find_root`` must return SciPy's
``brentq`` bits on the library's own root finds.  The solver's
Levenberg--Marquardt polish must give the boundary that SciPy's
trust-region reflective solver gives, to 1.5e-7.  The last row times
``import stopbound`` in fresh interpreters.
"""

import math
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.optimize import least_squares as scipy_least_squares

from stopbound import _kernels as k
from stopbound import bounds, constants, fredholm, numerics, oracle, problem, solver
from stopbound.problem import american_put, builtin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_loops import (  # noqa: E402
    BISECTION_TOL,
    adaptive_weights,
    certificate_faults,
    reference_dp_backward,
    reference_lower_step,
    reference_mc_value,
    reference_stencil,
    reference_two_row_dp_backward,
    reference_upper_step,
    rows_multiplied,
)


def _time(fn, *args, repeat=5, **kwargs):
    best = math.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def steps_reference(p, env, tol=BISECTION_TOL):
    """Upper step against ``env.lower``, then lower step against that, node by node."""
    tab, t_max = env.tabulation, 50.0 / p.r
    up = env.lower.with_values(reference_upper_step(tab, env.lower, tol, t_max, bounds.GRID))
    return up.values, reference_lower_step(tab, up, tol, t_max, bounds.GRID)[0]


def steps_current(p, env):
    up = bounds.upper_step(p, env.lower, env.tabulation)
    return up.values, bounds.lower_step(p, up, env.tabulation)[0].values


def block_evaluations(fn, *args):
    """``fn(*args)`` and the number of ``bounds._block_residuals`` calls it makes."""
    calls = []
    block = bounds._block_residuals

    def counted(*a):
        calls.append(1)
        return block(*a)

    bounds._block_residuals = counted
    try:
        out = fn(*args)
    finally:
        bounds._block_residuals = block
    return out, len(calls)


def rewrites(n_nodes=60, n_c=40):
    """Time the envelope steps and the weight rule against their references."""
    p = american_put(1.0, 0.5)
    grid = fredholm.BoundaryGrid.uniform(p, n_nodes)
    cgrid = fredholm.CGrid.for_problem(p, n_c)
    env = bounds.initial_envelope(p, grid.nodes, cgrid)
    tab, cs = env.tabulation, env.tabulation.c_values
    rows = []

    t_ref, ref = _time(steps_reference, p, env, repeat=1)
    t_new, new = _time(steps_current, p, env)
    if not all(np.array_equal(a, b) for a, b in zip(ref, new)):
        raise AssertionError("envelope steps: lockstep and per-node grid levels differ")
    t_max, up = 50.0 / p.r, env.lower.with_values(new[0])
    faults = (certificate_faults(tab, env.lower, new[0], bounds.GRID, t_max, lower=False)
              + certificate_faults(tab, up, new[1], bounds.GRID, t_max, lower=True))
    if faults:
        raise AssertionError(f"envelope steps: nodes {faults} lack the full-sum certificate"
                             " or keep it one grid step inward")
    evals = block_evaluations(steps_current, p, env)[1]
    rows.append(("envelope steps", t_ref, t_new, evals))

    t_ref, ref = _time(adaptive_weights, p, grid.nodes, cs, repeat=1)
    t_new, new = _time(fredholm.segment_weights, p, grid, cs)
    if not np.max(np.abs(new - ref) / np.abs(ref)) <= 1e-12:
        raise AssertionError("segment weights: rule and adaptive quadrature differ")
    rows.append(("segment weights", t_ref, t_new, ""))

    print(f"american_put (1, 0.5), {n_nodes} nodes x {len(cs)} parameters; envelope steps:"
          " an upper step, then a lower step, matching the per-node bisection refined on"
          " the grid and certified in full sums")
    print(f"{'rewrite':<22}{'reference (s)':>15}{'current (s)':>13}{'speedup':>10}"
          f"{'residual blocks':>17}")
    for name, t_ref, t_new, evals in rows:
        print(f"{name:<22}{t_ref:>15.6f}{t_new:>13.6f}{t_ref / t_new:>10.1f}{evals:>17}")


def _lattice_inputs(p, t_min, t_steps, x_steps):
    ts = np.linspace(t_min, 0.0, t_steps + 1)
    xs = np.linspace(*oracle.default_x_bounds(p, t_min), x_steps)
    hx = p.h(xs)
    gh_x, gh_w = oracle._gauss_hermite()
    return np.exp(-p.r * ts), hx, xs, ts[1] - ts[0], gh_x, gh_w


def lattice(t_steps=2000, x_steps=2000, t_min=-10.0):
    """Time the stencil lattice against the ``np.interp`` loop on ``linear``."""
    disc, hx, xs, dt, gh_x, gh_w = _lattice_inputs(builtin("linear"), t_min, t_steps, x_steps)
    t_ref, V = _time(reference_dp_backward, disc, hx, dt, xs[0], xs[1] - xs[0], gh_x, gh_w,
                     repeat=1)
    t_new, (v_first, v_terminal, _) = _time(k.dp_backward, disc, hx, xs, dt, gh_x, gh_w,
                                            repeat=3)
    err = max(np.max(np.abs(v_first - V[0])), np.max(np.abs(v_terminal - V[-1])))
    if not err <= 1e-9:
        raise AssertionError(f"dp_backward: stencil and np.interp loop differ by {err:.3g}")
    print(f"linear lattice from t = {t_min:g}, {t_steps + 1} x {x_steps}, max |dV| {err:.2g}")
    print(f"{'kernel':<22}{'reference (s)':>15}{'current (s)':>13}{'speedup':>10}")
    print(f"{'dp_backward':<22}{t_ref:>15.6f}{t_new:>13.6f}{t_ref / t_new:>10.1f}")


# The four lattices of ``stopbound oracle`` at the benchmark's resolutions:
# the coarse and the fine run of each refined boundary.
ORACLE_LATTICES = (
    ("linear", -10.0, 2000, 2000),
    ("linear", -10.0, 8000, 4000),
    ("american_put", -4.0, 2000, 3000),
    ("american_put", -4.0, 8000, 6000),
)


def lattice_step():
    """Time the prefix step against the two-row loop on each ``oracle`` lattice."""
    print("dp_backward against the two-row loop that multiplies every row;"
          " values and boundary equal")
    print(f"{'lattice':<38}{'two-row loop (s)':>18}{'current (s)':>13}{'speedup':>10}"
          f"{'rows multiplied':>17}")
    for label, t_min, t_steps, x_steps in ORACLE_LATTICES:
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        args = _lattice_inputs(p, t_min, t_steps, x_steps)
        t_ref, ref = _time(reference_two_row_dp_backward, *args, repeat=2)
        t_new, new = _time(k.dp_backward, *args, repeat=2)
        if not all(np.array_equal(a, b) for a, b in zip(ref, new)):
            raise AssertionError(f"dp_backward: prefix step and two-row loop differ on {label}")
        rows = sum(rows_multiplied(*args)[1])
        name = f"{label} from t = {t_min:g}, {t_steps + 1} x {x_steps}"
        print(f"{name:<38}{t_ref:>18.6f}{t_new:>13.6f}{t_ref / t_new:>10.2f}"
              f"{rows / (t_steps * x_steps):>17.3f}")


def stencil_product(number=200, repeat=5):
    """Time one step's prefix product against SciPy's CSR product on each ``oracle`` lattice."""
    print("one step's product over rows [0, m): banded stencil against SciPy's CSR matrix"
          f" of the same stencil; best of {repeat} x {number} calls, rows agree to 1e-14")
    print(f"{'lattice':<38}{'rows m':>8}{'CSR (us)':>10}{'current (us)':>14}{'speedup':>10}")
    for label, t_min, t_steps, x_steps in ORACLE_LATTICES:
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        _, _, xs, dt, gh_x, gh_w = _lattice_inputs(p, t_min, t_steps, x_steps)
        shifts = math.sqrt(dt) * gh_x
        A = k.expectation_stencil(xs, shifts, gh_w)
        C = reference_stencil(xs, shifts, gh_w)
        C.eliminate_zeros()
        v, out = np.sin(3.0 * xs), np.empty(x_steps)
        for m in (x_steps // 4, x_steps // 2):
            A.values[...] = v
            C_m, product = C[:m], A.prefix(m, out)
            # alternate the two, so a slow stretch of a shared machine hits both
            t_csr, t_new = (min(pair) / number for pair in zip(*(
                (timeit.timeit(lambda: C_m @ v, number=number), timeit.timeit(product, number=number))
                for _ in range(repeat))))
            err = float(np.max(np.abs(out[:m] - C_m @ v)))
            if not err <= 1e-14:
                raise AssertionError(f"stencil product: {label} rows differ from CSR by {err:.3g}")
            name = f"{label} from t = {t_min:g}, {t_steps + 1} x {x_steps}"
            print(f"{name:<38}{m:>8}{t_csr * 1e6:>10.1f}{t_new * 1e6:>14.1f}{t_csr / t_new:>10.2f}")


def monte_carlo(paths=5000, n_steps=2000, t_min=-1.0):
    """Time ``mc_value`` against its paired chunk schedule walked by the step loop."""
    p = builtin("linear")
    rule, _ = oracle.extract_d(oracle.backward_induction(p, t_min, None, n_steps, 500),
                               np.linspace(0.0, p.b_inf, 60))
    args = (p, t_min, 0.0, rule, paths, 0)
    drawn = []
    kernel = k.mc_first_crossing

    def counted(x, dt, walks, b):
        drawn.append(walks[0].size)
        return kernel(x, dt, walks, b)

    t_ref, ref = _time(reference_mc_value, *args, n_steps=n_steps, repeat=1)
    k.mc_first_crossing = counted
    try:
        t_new, new = _time(oracle.mc_value, *args, n_steps=n_steps, repeat=1)
    finally:
        k.mc_first_crossing = kernel
    if new != ref:
        raise AssertionError("mc_value: chunked kernel and step loop differ")
    width = max(1, oracle._MC_BLOCK_VALUES // paths)
    print(f"linear Monte Carlo from ({t_min:g}, 0), {paths // 2} antithetic pairs x"
          f" {n_steps} steps in 2 streams, chunks of {width} steps, estimates equal")
    print(f"normals drawn {sum(drawn):,} of paths x n_steps {paths * n_steps:,}"
          f" ({sum(drawn) / (paths * n_steps):.3f})")
    print(f"{'function':<22}{'step loop (s)':>15}{'current (s)':>13}{'speedup':>10}")
    print(f"{'mc_value':<22}{t_ref:>15.6f}{t_new:>13.6f}{t_ref / t_new:>10.1f}")


def _trf_least_squares(fun, x0, jac, bounds, linear, **tolerances):
    """SciPy's trust-region reflective solver on the polish's stacked rows."""
    A, b = linear
    return scipy_least_squares(
        lambda x: np.concatenate([fun(x), A @ x - b]), x0,
        jac=lambda x: np.vstack([jac(x), A]), bounds=bounds, method="trf",
        x_scale="jac", **tolerances,
    )


POLISH_CASES = (("linear", 30, 15), ("american_put", 30, 15),
                ("linear", 60, 40), ("american_put", 60, 40))


def polish():
    """Time ``solver.solve`` with its Levenberg--Marquardt polish against SciPy's TRF."""
    print("solver.solve (2 envelope iterations, asymptotic seed): Levenberg--Marquardt polish"
          " against SciPy's TRF; boundaries agree to 1.5e-7")
    print(f"{'case':<24}{'TRF (s)':>10}{'current (s)':>13}{'speedup':>10}"
          f"{'nfev TRF/LM':>14}{'max |dd|':>11}")
    saved = solver.least_squares
    for label, n_nodes, n_c in POLISH_CASES:
        p = builtin("linear") if label == "linear" else american_put(1.0, 0.5)
        cgrid = fredholm.CGrid.for_problem(p, n_c)
        env = bounds.iterate(p, fredholm.BoundaryGrid.uniform(p, n_nodes).nodes, cgrid, 2)
        t_new, new = _time(solver.solve, p, cgrid, env, repeat=3)
        solver.least_squares = _trf_least_squares
        try:
            t_ref, ref = _time(solver.solve, p, cgrid, env, repeat=3)
        finally:
            solver.least_squares = saved
        move = float(np.max(np.abs(new.grid.values - ref.grid.values)))
        if not (new.converged and ref.converged and move <= 1.5e-7):
            raise AssertionError(f"polish: {label} {n_nodes} x {n_c} moves the boundary by {move:.3g}")
        name = f"{label} {n_nodes} x {n_c}"
        nfev = f"{ref.polish_nfev}/{new.polish_nfev}"
        print(f"{name:<24}{t_ref:>10.4f}{t_new:>13.4f}{t_ref / t_new:>10.1f}{nfev:>14}"
              f"{move:>11.2g}")


def _root_calls():
    """``(f, bracket, tol)`` of the root finds in ``solve_B`` and the puts' smooth fit."""
    calls = []

    def record(f, bracket, tol=1e-10):
        calls.append((f, bracket, tol))
        return numerics.find_root(f, bracket, tol)

    saved = problem.find_root, constants.find_root
    problem.find_root = constants.find_root = record
    try:
        for beta in (0.0, 0.5, 1.0, 2.0):
            constants.solve_B(beta)
        for rho in (0.5, 1.0, 2.0):
            for theta in (0.25, 0.5, 0.75):
                american_put(rho, theta)
    finally:
        problem.find_root, constants.find_root = saved
    return calls


def root_finding():
    """Time ``find_root`` against SciPy's ``brentq`` on the same functions."""
    calls = _root_calls()

    def port():
        return [numerics.find_root(f, b, tol) for f, b, tol in calls]

    def scipy_brentq():
        return [brentq(f, b.lo, b.hi, xtol=tol, rtol=4.0 * 2.3e-16) for f, b, tol in calls]

    t_ref, ref = _time(scipy_brentq, repeat=3)
    t_new, new = _time(port, repeat=3)
    if new != ref:
        raise AssertionError("find_root: the port and scipy.optimize.brentq differ")
    print(f"solve_B (4 powers) and put smooth fit (9 puts): {len(calls)} root finds, roots equal")
    print(f"{'kernel':<22}{'brentq (s)':>15}{'current (s)':>13}{'speedup':>10}")
    print(f"{'find_root':<22}{t_ref:>15.6f}{t_new:>13.6f}{t_ref / t_new:>10.2f}")


def cold_start(runs=3):
    """Median wall time of ``import stopbound`` in fresh interpreters (printed only)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    print(f"fresh-process wall, median of {runs}")
    for statement in ("import numpy", "import stopbound"):
        walls = []
        for _ in range(runs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", statement], env=env, check=True)
            walls.append(time.perf_counter() - t0)
        print(f"{statement:<22}{statistics.median(walls):>13.3f} s")


def main() -> None:
    rewrites()
    print()
    polish()
    print()
    root_finding()
    print()
    cold_start()
    print()
    lattice()
    print()
    lattice_step()
    print()
    stencil_product()
    print()
    monte_carlo()


if __name__ == "__main__":
    main()
