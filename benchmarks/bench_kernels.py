"""Benchmark the JIT kernel variants against the pure-NumPy fallbacks.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_kernels.py

Each kernel is timed in both variants on solver-realistic shapes and the
outputs are checked to agree to round-off, so this doubles as a consistency
audit of the dual implementations.  Set ``STOPBOUND_NO_NUMBA=1`` before
importing the package to force the fallback path in library code; this
script times both variants explicitly regardless of the flag.

The envelope steps and the segment-weight rule are timed against the loops
they replaced, the references in ``tests/reference_loops.py``: the per-node
scalar bisection with one full residual sum per probe, and one adaptive
quadrature per segment and parameter.  The steps must match their reference
exactly, the weights to 1e-12 relative.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from stopbound import _kernels as k
from stopbound import bounds, fredholm
from stopbound.problem import american_put

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_loops import (  # noqa: E402
    adaptive_weights,
    reference_lower_step,
    reference_upper_step,
)


def _time(fn, *args, repeat=5, **kwargs):
    best = math.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def steps_reference(p, env, tol=bounds.DEFAULT_BISECTION_TOL):
    """Upper step against ``env.lower``, then lower step against that, node by node."""
    tab, t_max = env.tabulation, 50.0 / p.r
    up = env.lower.with_values(reference_upper_step(tab, env.lower, tol, t_max))
    return up.values, reference_lower_step(tab, up, tol, t_max)[0]


def steps_current(p, env):
    up = bounds.upper_step(p, env.lower, env.tabulation)
    return up.values, bounds.lower_step(p, up, env.tabulation)[0].values


def rewrites(n_nodes=60, n_c=40):
    """Time the envelope steps and the weight rule against their references."""
    p = american_put(1.0, 0.5)
    grid = fredholm.BoundaryGrid.uniform(p, n_nodes)
    cgrid = fredholm.CGrid.for_problem(p, n_c)
    env = bounds.initial_envelope(p, grid.nodes, cgrid)
    cs = env.tabulation.c_values
    rows = []

    t_ref, ref = _time(steps_reference, p, env, repeat=1)
    t_new, new = _time(steps_current, p, env)
    if not all(np.array_equal(a, b) for a, b in zip(ref, new)):
        raise AssertionError("envelope steps: lockstep and per-node bounds differ")
    rows.append(("envelope steps", t_ref, t_new))

    t_ref, ref = _time(adaptive_weights, p, grid.nodes, cs, repeat=1)
    t_new, new = _time(fredholm.segment_weights, p, grid, cs)
    if not np.max(np.abs(new - ref) / np.abs(ref)) <= 1e-12:
        raise AssertionError("segment weights: rule and adaptive quadrature differ")
    rows.append(("segment weights", t_ref, t_new))

    print(f"american_put (1, 0.5), {n_nodes} nodes x {len(cs)} parameters")
    print(f"{'rewrite':<22}{'reference (s)':>15}{'current (s)':>13}{'speedup':>10}")
    for name, t_ref, t_new in rows:
        print(f"{name:<22}{t_ref:>15.6f}{t_new:>13.6f}{t_ref / t_new:>10.1f}")


def main() -> None:
    rng = np.random.default_rng(0)
    M, N = 40, 60
    cs = math.sqrt(2.0) + 0.1 * np.arange(1, M + 1)
    gam = cs * cs / 2.0 - 1.0
    c2 = cs * cs
    lap = -1.0 / c2
    W = np.abs(rng.normal(0.02, 0.01, size=(M, N - 1)))
    y = np.linspace(0.0, math.sqrt(0.5), N)
    d = -2.45 * y * y
    lower = d - 1.0
    upper = np.zeros(N)

    rows = []

    def bench(name, numpy_fn, jit_fn, args_factory):
        t_np, out_np = _time(numpy_fn, *args_factory())
        if jit_fn is None:
            rows.append((name, t_np, None, None))
            return
        jit_fn(*args_factory())  # warm up compilation
        t_jit, out_jit = _time(jit_fn, *args_factory())
        a = out_np[0] if isinstance(out_np, tuple) else out_np
        b = out_jit[0] if isinstance(out_jit, tuple) else out_jit
        agree = np.allclose(np.asarray(a, float), np.asarray(b, float),
                            rtol=1e-12, atol=1e-12)
        if not agree:
            raise AssertionError(f"{name}: variants disagree")
        rows.append((name, t_np, t_jit, t_np / t_jit))

    have = hasattr(k, "residuals_jit")

    bench("residuals", k.residuals_numpy,
          k.residuals_jit if have else None,
          lambda: (lap, W, gam, np.ascontiguousarray(d[:-1])))
    bench("surrogate_objective", k.surrogate_objective_numpy,
          k.surrogate_objective_jit if have else None,
          lambda: (lap, W, gam, c2, np.ascontiguousarray(d[:-1])))
    bench("sweep", k.sweep_numpy,
          k.sweep_jit if have else None,
          lambda: (lap, W, gam, c2, d.copy(), lower, upper))

    n_t, n_x = 400, 400
    ts = np.linspace(-2.0, 0.0, n_t)
    xs = np.linspace(-5.0, 5.0, n_x)
    disc = np.exp(-ts)
    hx = xs.copy()
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(5)
    gh_w = gh_w / gh_w.sum()
    dt = ts[1] - ts[0]

    def dp_args():
        return (disc, hx, np.empty((n_t, n_x)), dt, xs[0], xs[1] - xs[0], gh_x, gh_w)

    def dp_np(*a):
        k.dp_backward_numpy(*a)
        return a[2]

    def dp_jit(*a):
        k.dp_backward_jit(*a)
        return a[2]

    bench("dp_backward", dp_np, dp_jit if have else None, dp_args)

    normals = rng.standard_normal((20000, 500))
    b_path = np.full(501, 0.3)
    bench("mc_first_crossing", k.mc_first_crossing_numpy,
          k.mc_first_crossing_jit if have else None,
          lambda: (0.0, 500, 0.002, normals, b_path))

    print(f"numba available: {have}   library dispatch uses numba: {k.using_numba()}")
    print(f"{'kernel':<22}{'numpy (s)':>12}{'numba (s)':>12}{'speedup':>10}")
    for name, t_np, t_jit, ratio in rows:
        if t_jit is None:
            print(f"{name:<22}{t_np:>12.6f}{'-':>12}{'-':>10}")
        else:
            print(f"{name:<22}{t_np:>12.6f}{t_jit:>12.6f}{ratio:>10.1f}")
    print()
    rewrites()


if __name__ == "__main__":
    main()
