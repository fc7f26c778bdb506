"""Benchmark the JIT kernel variants against the pure-NumPy fallbacks.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_kernels.py

Each kernel is timed in both variants on solver-realistic shapes and the
outputs are checked to agree to round-off, so this doubles as a consistency
audit of the dual implementations.  Set ``STOPBOUND_NO_NUMBA=1`` before
importing the package to force the fallback path in library code; this
script times both variants explicitly regardless of the flag.
"""

import math
import time

import numpy as np

from stopbound import _kernels as k


def _time(fn, *args, repeat=5, **kwargs):
    best = math.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


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


if __name__ == "__main__":
    main()
