"""The loops the envelope steps, the weight rule and the lattice replaced, kept as references.

The per-node scalar bisection takes one full residual sum per probe and
then bisects the grid of certified levels within its final bracket; the
lockstep prefix-sum steps, which reach that grid point by a closed form,
must reproduce it bit for bit, and ``certificate_faults`` checks each
bound's certificate in full sums.  The adaptive weights take one
quadrature per segment and parameter; the Gauss--Legendre rule must match
them to 1e-12 relative on smooth integrands.  The lattice
interpolates every Gauss--Hermite point with ``np.interp`` on each step and
stores the whole ``(n_t, n_x)`` value array; the stencil lattice must
match its values and boundary to round-off.  ``reference_stencil`` is the
sparse matrix (SciPy's, loaded by the tests only) of the same interpolated
points, zeros stored, which the stencil's product must match to 1e-14 of
the slice.  The two-row loop takes the stencil's full product on every
row and forms the value-payoff gap of every slice; the step that
multiplies only a row prefix must reproduce it bit for bit, and
``rows_multiplied`` counts that prefix.  Monte Carlo
walks one displacement ``S`` per running antithetic pair one step at a time
over each time-major chunk of normals, its members at ``x0 + S`` and ``x0 -
S``, in each of two streams: contiguous blocks of the pairs, each drawn
from its own generator spawned from the seed.  The kernel's row adds must
reproduce its estimates bit for bit.  The whole-path draw of each stream is
kept as well: a single chunk spanning every step must reproduce it.  The
loop that walked each member from ``x0`` on its own, the second over the
negated normals, is kept too: it must give the same stop steps and, to a
few ulps, the same positions.  The tests check these agreements and
``benchmarks/bench_kernels.py`` times against these loops.
"""

import math

import numpy as np
from scipy import sparse

from stopbound import _kernels, numerics, oracle


# The tolerance of the scalar reference bisection.
BISECTION_TOL = 1e-6


def _bisect(holds, t_max, tol, keep_high):
    """The final bracket ``(lo, hi)`` of bisecting ``[-t_max, 0]`` for the switch of ``holds``."""
    lo, hi = -t_max, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid) == keep_high:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _on_grid(holds, bracket, grid, keep_high):
    """The grid level next to the switch of ``holds`` in ``bracket``, on the side where it fails.

    ``holds`` keeps its value at ``hi`` above the switch when ``keep_high``,
    at ``lo`` below it otherwise; the grid indices bisected start just
    outside the bracket, so the level lies within one grid step of it.
    """
    lo, hi = bracket
    if keep_high:
        a, b = math.ceil(lo / grid) - 1, math.ceil(hi / grid)
    else:
        a, b = math.floor(lo / grid), math.floor(hi / grid) + 1
    while b - a > 1:
        mid = (a + b) // 2
        if holds(mid * grid) == keep_high:
            b = mid
        else:
            a = mid
    return (a if keep_high else b) * grid


def residuals(tab, d):
    return _kernels.residuals(tab.lap, tab.W, tab.gam, np.ascontiguousarray(d))


def lower_holds(tab, u, k, t):
    """Every full-sum residual ``>= 0`` with level ``t`` on segments ``k..`` capped by ``u``."""
    d = u[:-1].copy()
    d[k:] = np.minimum(t, d[k:])
    return bool(np.min(residuals(tab, d)) >= 0.0)


def upper_holds(tab, v, k, t):
    """Every full-sum residual ``<= 0`` with level ``t`` on segments ``..k-1`` floored by ``v[1:]``."""
    d = v[1:].copy()
    d[:k] = np.maximum(t, d[:k])
    return bool(np.max(residuals(tab, d)) <= 0.0)


def reference_lower_step(tab, upper, tol, t_max, grid):
    """Per node, bisection to ``tol``, then the certified grid level within its bracket."""
    u = upper.values
    n = u.shape[0]
    out = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    for k in range(1, n):

        def holds(t):
            return lower_holds(tab, u, k, t)

        if not holds(0.0):
            out[k] = u[k]
        elif holds(-t_max):
            out[k], truncated[k] = -t_max, True
        else:
            out[k] = _on_grid(holds, _bisect(holds, t_max, tol, True), grid, True)
    return np.maximum.accumulate(np.minimum(out, u)[::-1])[::-1], truncated


def reference_upper_step(tab, lower, tol, t_max, grid):
    """Per node, bisection to ``tol``, then the certified grid level within its bracket."""
    v = lower.values
    n = v.shape[0]
    out = np.zeros(n)
    for k in range(1, n):

        def holds(t):
            return upper_holds(tab, v, k, t)

        if holds(0.0):
            out[k] = 0.0
        elif not holds(-t_max):
            out[k] = v[k]
        else:
            out[k] = _on_grid(holds, _bisect(holds, t_max, tol, False), grid, False)
    return np.minimum(np.minimum.accumulate(np.maximum(out, v)), 0.0)


def certificate_faults(tab, against, values, grid, t_max, lower):
    """Nodes whose bound lacks its full-sum certificate, or still has it one grid step inward.

    ``values`` are a lower step's bounds against the upper bound
    ``against`` when ``lower``, else an upper step's against the lower
    bound ``against``.  A lower bound at ``-t_max`` (truncated) and an
    upper bound at 0 certify nothing and are skipped.
    """
    holds, inward, vacuous = (lower_holds, grid, -t_max) if lower else (upper_holds, -grid, 0.0)
    b = against.values
    return [k for k in range(1, values.shape[0]) if values[k] != vacuous
            and (holds(tab, b, k, values[k]) or not holds(tab, b, k, values[k] + inward))]


def adaptive_weights(p, nodes, cs):
    """Segment weights by one adaptive quadrature per segment and parameter.

    Atoms in ``(0, b_inf]`` are added; one at the origin is the transform's.
    """
    w = np.array([
        [numerics.integrate_finite(lambda y: np.exp(c * y) * p.h_tilde(y), a, b)
         for a, b in zip(nodes[:-1], nodes[1:])]
        for c in cs
    ])
    for loc, weight in p.atoms:
        if 0.0 < loc <= nodes[-1]:
            n = min(int(np.searchsorted(nodes, loc, side="right")) - 1, len(nodes) - 2)
            w[:, n] += [weight * math.exp(c * loc) for c in cs]
    return w


def reference_expectation(v, x0, dx, sq, gh_x, gh_w):
    """One Gauss--Hermite step of the slice ``v``, one ``np.interp`` per point."""
    n_x = v.shape[0]
    x_hi = x0 + (n_x - 1) * dx
    xs = x0 + dx * np.arange(n_x)
    cont = np.zeros(n_x)
    for i in range(gh_x.shape[0]):
        xp = xs + sq * gh_x[i]
        xp = np.where(xp < x0, 2.0 * x0 - xp, xp)
        xp = np.where(xp > x_hi, 2.0 * x_hi - xp, xp)
        cont += gh_w[i] * np.interp(xp, xs, v)
    return cont


def reference_dp_backward(disc, hx, dt, x0, dx, gh_x, gh_w):
    """Whole value array ``(len(disc), len(hx))`` by per-point ``np.interp``."""
    n_t, n_x = disc.shape[0], hx.shape[0]
    V = np.empty((n_t, n_x))
    V[n_t - 1, :] = disc[n_t - 1] * hx
    sq = math.sqrt(dt)
    for k in range(n_t - 2, -1, -1):
        cont = reference_expectation(V[k + 1], x0, dx, sq, gh_x, gh_w)
        V[k] = np.maximum(disc[k] * hx, cont)
    return V


def reference_extract_boundary(disc, hx, V, xs):
    """Boundary of every slice of ``V``, then made non-increasing by a loop."""
    n_t, n_x = V.shape
    dx = xs[1] - xs[0]
    b = np.empty(n_t)
    for k in range(n_t):
        diff = V[k] - disc[k] * hx
        pos = diff > 0.0
        if not pos.any():
            b[k] = xs[0]
            continue
        trans = np.where(pos[:-1] & ~pos[1:])[0]
        if trans.size == 0:
            b[k] = xs[-1]
            continue
        i = int(trans[0])
        w1 = math.sqrt(diff[i])
        w0 = math.sqrt(diff[i - 1]) if i > 0 else w1
        if w0 > w1:
            b[k] = xs[i] + w1 / ((w0 - w1) / dx)
        else:
            b[k] = xs[i] + 0.5 * dx
    return monotone_loop(b)


def reference_stencil(xs, shifts, weights):
    """The expectation stencil as a SciPy CSR matrix: each point's two nodes, zeros stored."""
    n_x = xs.shape[0]
    x0, x_hi = xs[0], xs[-1]
    xp = xs[None, :] + shifts[:, None]
    xp = np.where(xp < x0, 2.0 * x0 - xp, xp)
    xp = np.where(xp > x_hi, 2.0 * x_hi - xp, xp)
    i0 = np.clip(np.searchsorted(xs, xp, side="right") - 1, 0, n_x - 2)
    fr = np.clip((xp - xs[i0]) / (xs[i0 + 1] - xs[i0]), 0.0, 1.0)
    w = weights[:, None]
    rows = np.broadcast_to(np.arange(n_x), xp.shape)
    return sparse.coo_array(
        (np.concatenate([(w * (1.0 - fr)).ravel(), (w * fr).ravel()]),
         (np.concatenate([rows.ravel(), rows.ravel()]),
          np.concatenate([i0.ravel(), (i0 + 1).ravel()]))),
        shape=(n_x, n_x),
    ).tocsr()


def reference_boundary_slice(gap, xs):
    """Boundary of one slice from its whole value-payoff ``gap`` array."""
    pos = gap > 0.0
    if not pos.any():
        return xs[0]
    trans = pos[:-1] & ~pos[1:]
    i = int(trans.argmax())
    if not trans[i]:
        return xs[-1]
    w1 = math.sqrt(gap[i])
    w0 = math.sqrt(gap[i - 1]) if i > 0 else w1
    if w0 > w1:
        return xs[i] + w1 / ((w0 - w1) / (xs[1] - xs[0]))
    return xs[i] + 0.5 * (xs[1] - xs[0])


def reference_two_row_dp_backward(disc, hx, xs, dt, gh_x, gh_w):
    """``_kernels.dp_backward`` as two rows, the stencil's full product and a gap per slice."""
    A = _kernels.expectation_stencil(xs, math.sqrt(dt) * gh_x, gh_w)
    n_t = disc.shape[0]
    boundary = np.empty(n_t)
    v_terminal = v = disc[-1] * hx
    boundary[-1] = xs[0]
    for k in range(n_t - 2, -1, -1):
        pay = disc[k] * hx
        v = np.maximum(pay, A @ v)
        boundary[k] = reference_boundary_slice(v - pay, xs)
    return v, v_terminal, boundary


class _StencilRows:
    """A stencil that appends the row count of each prefix product to ``log``."""

    def __init__(self, A, log):
        self.A, self.log = A, log

    def __getattr__(self, name):
        return getattr(self.A, name)

    def prefix(self, m, out):
        product = self.A.prefix(m, out)

        def logged():
            self.log.append(m)
            product()

        return logged

    def __matmul__(self, v):
        return self.A @ v


def rows_multiplied(disc, hx, xs, dt, gh_x, gh_w):
    """``_kernels.dp_backward``'s returns and the stencil rows it multiplies, one count a step.

    Full products (the one-time test per lattice) are not counted.
    """
    log = []
    stencil = _kernels.expectation_stencil
    _kernels.expectation_stencil = lambda *args: _StencilRows(stencil(*args), log)
    try:
        out = _kernels.dp_backward(disc, hx, xs, dt, gh_x, gh_w)
    finally:
        _kernels.expectation_stencil = stencil
    return out, log


def monotone_loop(b):
    """Non-increasing copy of ``b``, one comparison per entry."""
    b = np.array(b, dtype=float)
    for k in range(1, b.shape[0]):
        if b[k] > b[k - 1]:
            b[k] = b[k - 1]
    return b


def reference_mc_first_crossing(x0, n_steps, dt, normals, b_path):
    """First crossings by one masked update of every live path per step.

    ``x0`` is a start position shared by every path or one per path.
    """
    paths = normals.shape[0]
    stop_step = np.full(paths, n_steps, dtype=np.int64)
    stop_x = np.empty(paths)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (paths,)).copy()
    alive = x < b_path[0]
    stop_x[~alive] = x[~alive]
    stop_step[~alive] = 0
    sq = math.sqrt(dt)
    for k in range(1, n_steps + 1):
        x[alive] += sq * normals[alive, k - 1]
        crossed = alive & (x >= b_path[k])
        stop_step[crossed] = k
        stop_x[crossed] = x[crossed]
        alive &= ~crossed
    stop_x[alive] = x[alive]
    return stop_step, stop_x


def reference_mc_pair_crossing(x0, dt, normals, b_path, s=None, running=None):
    """First crossings of antithetic pairs by one masked update of every live displacement per step.

    Pair ``i`` walks one displacement ``S`` from ``s[i]`` (0 by default),
    ``normals[i, k - 1]`` driving step ``k``.  Its first member, at ``x0 +
    S``, stops at the first step with ``S >= b_path[k] - x0``, its second,
    at ``x0 - S``, at the first step with ``S <= x0 - b_path[k]``.
    ``running`` flags the members that run, shape ``(2, pairs)`` (by
    default every member when ``x0 < b_path[0]``, none otherwise).  Returns
    ``(stop_step, stop_x, s, running)``: the stop step and position of each
    member, ``n_steps`` and the last position for one that runs on (0 and
    ``x0`` for one that never ran), and the displacements and flags at the
    end.
    """
    pairs, n_steps = normals.shape
    s = np.zeros(pairs) if s is None else np.array(s, dtype=float)
    run = np.full((2, pairs), x0 < b_path[0]) if running is None else running.copy()
    stop_step = np.where(run, n_steps, 0)
    stop_x = np.full((2, pairs), float(x0))
    sq = math.sqrt(dt)
    for k in range(1, n_steps + 1):
        live = run.any(axis=0)
        s[live] += sq * normals[live, k - 1]
        for m, crossed in enumerate((s >= b_path[k] - x0, s <= x0 - b_path[k])):
            crossed &= run[m]
            stop_step[m, crossed] = k
            stop_x[m, crossed] = x0 + s[crossed] if m == 0 else x0 - s[crossed]
            run[m] &= ~crossed
    stop_x[0, run[0]] = x0 + s[run[0]]
    stop_x[1, run[1]] = x0 - s[run[1]]
    return stop_step, stop_x, s, run


def _mc_b_path(t0, boundary, n_steps):
    dt = -t0 / n_steps
    ts = t0 + dt * np.arange(n_steps + 1)
    b_path = np.interp(ts, boundary.values[::-1], boundary.nodes[::-1],
                       left=boundary.nodes[-1], right=0.0)
    return dt, np.maximum(b_path - 0.5826 * math.sqrt(dt), 0.0)


def _mc_estimate(p, t0, dt, stop_step, stop_x):
    """Mean payoff over every path; standard error over the pair means."""
    h_stop = np.array([p.h(x) for x in stop_x.ravel()]).reshape(stop_x.shape)
    payoff = np.exp(-p.r * (t0 + stop_step * dt)) * h_stop
    pairs = stop_x.shape[1]
    return float(payoff.mean()), float(payoff.mean(axis=0).std(ddof=1) / math.sqrt(pairs))


def _mc_streams(paths, rng_seed):
    """``(generator, pairs)`` of each stream: the first ``paths // 4`` pairs, then the rest.

    Each stream draws from its own generator, spawned from the seed.
    """
    pairs = paths // 2
    seeds = np.random.SeedSequence(rng_seed).spawn(2)
    return zip((np.random.default_rng(s) for s in seeds), (pairs // 2, pairs - pairs // 2))


def _two_stream_estimate(p, t0, x0, boundary, paths, rng_seed, n_steps, stream):
    """Estimate over the pairs of both streams, each walked by ``stream(rng, pairs, ...)``."""
    dt, b_path = _mc_b_path(t0, boundary, n_steps)
    blocks = [stream(rng, pairs, float(x0), dt, b_path, n_steps)
              for rng, pairs in _mc_streams(paths, rng_seed)]
    stop_step, stop_x = (np.concatenate(a, axis=1) for a in zip(*blocks))
    return _mc_estimate(p, t0, dt, stop_step, stop_x)


def _one_shot_stream(rng, pairs, x0, dt, b_path, n_steps):
    normals = rng.standard_normal((n_steps, pairs))
    return reference_mc_pair_crossing(x0, dt, normals.T, b_path)[:2]


def reference_one_shot_mc_value(p, t0, x0, boundary, paths, rng_seed, n_steps=2000):
    """One time-major ``(n_steps, pairs)`` draw per stream, walked by the pair step loop.

    The first member of every pair is driven by the normals, the second by
    their negation.
    """
    return _two_stream_estimate(p, t0, x0, boundary, paths, rng_seed, n_steps,
                                _one_shot_stream)


def reference_mc_value(p, t0, x0, boundary, paths, rng_seed, n_steps=2000, width=None):
    """``oracle.mc_value`` by its paired chunk schedule, walked by the pair step loop.

    In each stream, each chunk of ``width`` steps (by default the oracle's)
    draws a fresh time-major ``(steps, running pairs)`` array of normals, in
    pair order, and walks each pair's displacement on from where the last
    chunk left it.  The first member of a pair is driven by the normals,
    the second by their negation.  A member runs on while it does not stop
    within the chunk, and a pair while either member runs.
    """
    if width is None:
        width = max(1, oracle._MC_BLOCK_VALUES // paths)

    def chunked_stream(rng, pairs, x0, dt, b_path, n_steps):
        stop_step = np.zeros((2, pairs), dtype=np.int64)
        stop_x = np.full((2, pairs), x0)
        running = np.full((2, pairs), x0 < b_path[0])
        s = np.zeros(pairs)
        for k in range(0, n_steps, width):
            live = np.flatnonzero(running.any(axis=0))
            w = min(width, n_steps - k)
            normals = rng.standard_normal((w, live.size))
            own = running[:, live]
            step, x, s[live], running[:, live] = reference_mc_pair_crossing(
                x0, dt, normals.T, b_path[k:k + w + 1], s[live], own)
            member, pair = np.nonzero(own)
            stop_step[member, live[pair]] = k + step[member, pair]
            stop_x[member, live[pair]] = x[member, pair]
        return stop_step, stop_x

    return _two_stream_estimate(p, t0, x0, boundary, paths, rng_seed, n_steps, chunked_stream)
