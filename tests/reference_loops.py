"""The loops the envelope steps and the weight rule replaced, kept as references.

The per-node scalar bisection takes one full residual sum per probe; the
lockstep prefix-sum steps must reproduce it bit for bit.  The adaptive
weights take one quadrature per segment and parameter; the Gauss--Legendre
rule must match them to 1e-12 relative on smooth integrands.  The tests
check both agreements and ``benchmarks/bench_kernels.py`` times against
these loops.
"""

import math

import numpy as np

from stopbound import _kernels, numerics


def _bisect(holds, t_max, tol, keep_high):
    lo, hi = -t_max, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid) == keep_high:
            hi = mid
        else:
            lo = mid
    return hi if keep_high else lo


def residuals(tab, d):
    return _kernels.residuals_numpy(tab.lap, tab.W, tab.gam, np.ascontiguousarray(d))


def reference_lower_step(tab, upper, tol, t_max):
    u = upper.values
    n = u.shape[0]
    out = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    for k in range(1, n):
        tail = np.arange(n - 1) >= k

        def holds(t):
            d = np.where(tail, np.minimum(t, u[:-1]), u[:-1])
            return bool(np.min(residuals(tab, d)) >= 0.0)

        if not holds(0.0):
            out[k] = u[k]
        elif holds(-t_max):
            out[k], truncated[k] = -t_max, True
        else:
            out[k] = _bisect(holds, t_max, tol, keep_high=True)
    return np.maximum.accumulate(np.minimum(out, u)[::-1])[::-1], truncated


def reference_upper_step(tab, lower, tol, t_max):
    v = lower.values
    n = v.shape[0]
    out = np.zeros(n)
    for k in range(1, n):
        head = np.arange(n - 1) <= k

        def holds(t):
            d = np.where(head, np.maximum(t, v[:-1]), v[:-1])
            return bool(np.max(residuals(tab, d)) <= 0.0)

        if holds(0.0):
            out[k] = 0.0
        elif not holds(-t_max):
            out[k] = v[k]
        else:
            out[k] = _bisect(holds, t_max, tol, keep_high=False)
    return np.minimum(np.minimum.accumulate(np.maximum(out, v)), 0.0)


def adaptive_weights(p, nodes, cs):
    """Segment weights by one adaptive quadrature per segment and parameter."""
    w = np.array([
        [numerics.integrate_finite(lambda y: math.exp(c * y) * p.h_tilde(y), a, b)
         for a, b in zip(nodes[:-1], nodes[1:])]
        for c in cs
    ])
    for loc, weight in p.atoms:
        if 0.0 <= loc <= nodes[-1]:
            n = min(int(np.searchsorted(nodes, loc, side="right")) - 1, len(nodes) - 2)
            w[:, n] += [weight * math.exp(c * loc) for c in cs]
    return w
