"""Performance-critical numerical kernels, one NumPy implementation each.

The solver reads ``residuals``, ``fredholm`` reads ``residuals`` and
``penalties``, and the oracle reads ``dp_backward`` and
``mc_first_crossing``; the envelope sums its residuals from prefix sums of
its own.  ``sweep``, the coordinate descent that the solver no longer runs,
and ``surrogate_objective``, which only ``sweep`` reads, stay only because
the benchmark's tracer still reports ``sweep``'s call site.
Callers look every kernel up as an attribute of this module, so a profiler
can wrap it in one place.  ``dp_backward`` loops over time slices, each
step one product by a banded stencil (one tap set for every row, the edge
reflection read through ghost nodes: four pair sums and one ``np.einsum``)
and four passes over only the rows that can continue, a row prefix: the
rows above it lie deep in the stopping region, where the value is the
payoff bit for bit;
``mc_first_crossing`` walks antithetic pairs of paths over a
time-major chunk of normals, which the caller sizes and draws for the pairs
still running: one displacement per pair, one row add per step, then one
comparison over the chunk per member.

Shapes used throughout:

* ``lap``  : ``(M,)``   transform values, one per kernel parameter ``c``;
* ``W``    : ``(M, N-1)`` segment weights, row ``l`` belongs to ``c_l``;
* ``gam``  : ``(M,)``   kernel exponents ``c**2/2 - r``;
* ``c2``   : ``(M,)``   squared kernel parameters;
* ``d``    : ``(N,)``   boundary values at the spatial nodes (the final
  entry is a tail value that does not enter the residual sum).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "residuals",
    "penalties",
    "surrogate_objective",
    "sweep",
    "dp_backward",
    "Stencil",
    "expectation_stencil",
    "boundary_slice",
    "mc_first_crossing",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Finite, ordered stand-in for the +inf penalty sentinel so that descent can
# escape regions where the penalty pole 1 + c^2 R <= 0 is crossed.
_SENTINEL = 1e12
# dp_backward: relative margin of the test that proves a stencil row's float
# product below the float payoff (the rounding it covers is about 1e-15),
# and the stencil reaches of spare rows the multiplied prefix grows by, so a
# slowly moving boundary slices the stencil a few times per lattice.
_CLEAR_TOL = 1e-12
_PREFIX_SLACK = 4


def residuals(lap, W, gam, dvals):
    """Residual vector R(c_l; d) = lap_l + sum_n exp(gam_l * d_n) * W_ln.

    The exponent is capped at 700, so the exponential cannot overflow.  It
    sets no NumPy error state itself: entering ``np.errstate`` costs about
    2.3 µs, a third of a call at 15 parameters and 29 segments, so each
    caller enters it once (``solver.solve`` around its polishes and
    ``Tabulation.residual_vector``).
    """
    E = np.exp(np.minimum(gam[:, None] * dvals[None, :], 700.0))
    return lap + (E * W).sum(axis=1)


def penalties(c2, R):
    """``F_c(R) = (c**2 R + 1/(1 + c**2 R))**2`` per entry, ``+inf`` at and past the pole.

    ``c2`` holds ``c * c``, so ``u = c2 * R`` keeps the product order
    ``(c * c) * R``; the pole is ``1 + u <= 0``.  Scalars broadcast too.
    """
    u = c2 * R
    inside = 1.0 + u
    pole = inside <= 0.0
    s = u + 1.0 / np.where(pole, 1.0, inside)
    return np.where(pole, np.inf, s * s)


def surrogate_objective(lap, W, gam, c2, dvals):
    """Summed penalties with a finite graded sentinel past the pole.

    Inside the admissible region (1 + c^2 R > 0 for every c) this is the
    sum of :func:`penalties`.  Outside it returns
    ``1e12 * (1 + sum of squared violations)`` which is ordered so a
    minimiser can walk back into the admissible region.
    """
    R = residuals(lap, W, gam, dvals)
    bad = 1.0 + c2 * R
    if np.any(bad <= 0.0):
        v = np.minimum(bad, 0.0)
        return _SENTINEL * (1.0 + float((v * v).sum()))
    return float(penalties(c2, R).sum())


def sweep(lap, W, gam, c2, d, lower, upper, scan_points=25, node_tol=1e-9):
    """One cyclic coordinate-descent sweep over the interior nodes.

    Each node ``n`` in ``1..N-2`` is minimised over the interval
    ``[max(lower_n, d_{n+1}), min(upper_n, d_{n-1})]`` by a coarse scan
    followed by golden-section refinement; the move is kept only when it
    does not increase the objective.  ``d`` is modified in place.

    Returns ``(objective, max_move)``.
    """
    n_nodes = d.shape[0]
    obj = surrogate_objective(lap, W, gam, c2, d[:-1])
    max_move = 0.0
    for n in range(1, n_nodes - 1):
        lo = max(lower[n], d[n + 1])
        hi = min(upper[n], d[n - 1])
        if hi - lo <= 0.0:
            d[n] = hi
            continue
        old = d[n]
        ts = np.linspace(lo, hi, scan_points)
        vals = np.empty(scan_points)
        for i, t in enumerate(ts):
            d[n] = t
            vals[i] = surrogate_objective(lap, W, gam, c2, d[:-1])
        k = int(np.argmin(vals))
        a = ts[max(k - 1, 0)]
        b = ts[min(k + 1, scan_points - 1)]
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        d[n] = x1
        f1 = surrogate_objective(lap, W, gam, c2, d[:-1])
        d[n] = x2
        f2 = surrogate_objective(lap, W, gam, c2, d[:-1])
        while b - a > node_tol:
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                d[n] = x1
                f1 = surrogate_objective(lap, W, gam, c2, d[:-1])
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                d[n] = x2
                f2 = surrogate_objective(lap, W, gam, c2, d[:-1])
        cand = 0.5 * (a + b)
        d[n] = cand
        new_obj = surrogate_objective(lap, W, gam, c2, d[:-1])
        if new_obj <= obj:
            obj = new_obj
            max_move = max(max_move, abs(cand - old))
        else:
            d[n] = old
    return obj, max_move


class Stencil:
    """The one-step expectation of :func:`expectation_stencil`: one tap set for every row.

    Row ``j`` of the product with ``v`` is ``taps[0] * u[j]`` plus, for
    each ``k >= 1``, ``taps[k] * (u[j - o] + u[j + o])`` with ``o =
    offsets[k - 1]``, where ``u`` is ``v`` with ``reach`` ghost nodes on
    each side.  A ghost node holds the value of the node that the edge
    reflection (and the hold beyond it) maps it to, so the edge rows read
    their reflected points through the same taps.  One preallocated
    ``(len(taps), n + 2 * reach)`` buffer holds ``u`` in row 0 and the pair
    sums in the rows below, and one ``np.einsum`` (not a BLAS call) reduces
    them.  ``v`` itself is :attr:`values`, the middle of row 0, so a caller
    that keeps its value row there is never copied in.  An ``einsum``
    element is the same sum in the same order whatever the number of rows,
    so the rows of a prefix product carry the full product's bits.
    Products share the buffer, :attr:`values` included: run one at a time.
    """

    def __init__(self, n, taps, offsets):
        self.n, self.taps, self.offsets = n, taps, offsets
        self.reach = pad = int(offsets.max()) if offsets.size else 0
        self._buf = np.empty((taps.shape[0], n + 2 * pad))
        self.values = self._buf[0, pad:pad + n]

        def source(g):
            # reflect at node 0, then at node n - 1, then hold at the edge
            y = np.abs(g)
            return pad + np.clip(np.where(y > n - 1, 2 * (n - 1) - y, y), 0, n - 1)

        self._below = source(np.arange(-pad, 0))
        self._above = source(np.arange(n, n + pad))

    def prefix(self, m, out):
        """Rows ``[0, m)`` of the product with :attr:`values`, as a call without arguments.

        Each call reads the current :attr:`values` below row ``m + reach``
        and writes the rows to ``out[:m]``, no row of ``out`` from ``m``
        up.  The views each call works on are formed here, once.
        """
        n, pad, buf = self.n, self.reach, self._buf
        u = buf[0]
        below = u[:pad]
        # the top ghosts are read only by the rows within reach of the top
        above = u[pad + n:] if m + pad > n else None
        pairs = [(u[pad - o:pad + m - o], u[pad + o:pad + m + o], buf[k, pad:pad + m])
                 for k, o in enumerate(self.offsets, 1)]
        rows, taps, out_m = buf[:, pad:pad + m], self.taps, out[:m]

        def product():
            below[...] = u[self._below]
            if above is not None:
                above[...] = u[self._above]
            for a, b, s in pairs:
                np.add(a, b, out=s)
            np.einsum("i,ij->j", taps, rows, out=out_m)

        return product

    def __matmul__(self, v):
        """The full product with ``v``, which overwrites :attr:`values`."""
        self.values[...] = v
        out = np.empty(self.n)
        self.prefix(self.n, out)()
        return out


def expectation_stencil(xs, shifts, weights):
    """One-step expectation on the uniform nodes ``xs`` as a :class:`Stencil`.

    Row ``j`` maps a value slice to ``sum_i weights[i] * v(xs[j] + shifts[i])``,
    the value read by linear interpolation after one reflection of the
    point at each spatial edge (and held at the edge value beyond it).  The
    rule must be mirror-symmetric (``shifts`` odd and ``weights`` even about
    their middle), as Gauss--Hermite rules are.  On uniform nodes a point
    ``p = shift / dx`` nodes away puts weight ``max(0, 1 - |o - p|)`` on
    offset ``o``, the same on every row, so the stencil is one tap per
    offset ``o >= 0`` (the same on both sides), offsets with zero weight
    dropped.  Reflection at an edge node maps nodes to nodes and is affine
    between them, so reading the reflected point equals interpolating
    ghost nodes beyond the edge, which is what :class:`Stencil` does.
    """
    shifts, weights = np.asarray(shifts, dtype=float), np.asarray(weights, dtype=float)
    if not (np.array_equal(shifts, -shifts[::-1]) and np.array_equal(weights, weights[::-1])):
        raise ValueError("the expectation rule must be mirror-symmetric")
    n_x = xs.shape[0]
    p = shifts / ((xs[-1] - xs[0]) / (n_x - 1))
    o = np.arange(int(np.abs(p).max()) + 2)
    tap = (weights[:, None] * np.maximum(0.0, 1.0 - np.abs(o[None, :] - p[:, None]))).sum(axis=0)
    offsets = np.flatnonzero(tap[1:]) + 1
    return Stencil(n_x, np.append(tap[0], tap[offsets]), offsets)


def boundary_slice(v, pay, xs, cont):
    """Exercise boundary of one time slice with values ``v`` and payoff ``pay``.

    The continuation region (``cont``, the caller's ``v > pay``) is the
    connected component on the low side; the boundary is its first
    continue-to-stop transition.  A slice with no continuation maps to
    ``xs[0]``, one with no transition to ``xs[-1]``.  Boolean
    ``argmax``/``argmin`` stop at the first hit, so the scan reads the slice
    once from the low side and forms no gap array.  ``v`` and ``pay`` are
    read only on the first continuation run, where the value and the
    continuation value agree, so ``v`` may be either, and rows past the run
    need not be set.
    """
    a = int(cont.argmax())
    if not cont[a]:
        return xs[0]
    # Reflecting truncation can fabricate a thin positive band at the far
    # spatial edge for payoffs decreasing in x, which a last-positive rule
    # would grab; the first stop after the low-side run ends the scan.
    f = a + int(cont[a:].argmin())
    if cont[f]:
        return xs[-1]
    i = f - 1
    # The value-payoff gap vanishes smoothly at the boundary; locating the
    # zero of its square root is far less biased than the last
    # strictly-positive cell.  A run of one row has no gap below it to
    # slope from.
    w1 = math.sqrt(v[i] - pay[i])
    w0 = math.sqrt(v[i - 1] - pay[i - 1]) if i > a else w1
    if w0 > w1:
        return xs[i] + w1 / ((w0 - w1) / (xs[1] - xs[0]))
    return xs[i] + 0.5 * (xs[1] - xs[0])


def dp_backward(disc, hx, xs, dt, gh_x, gh_w):
    """Backward induction on a regular space-time grid, one value row in place.

    ``disc`` holds the discount factor per time slice (at least two; the
    last is the terminal slice), ``hx`` the raw payoff per spatial node
    ``xs``.  The continuation value is the Gauss--Hermite expectation over
    one step of length ``dt`` (abscissae ``gh_x``, weights ``gh_w``), one
    fixed :func:`expectation_stencil` applied to the later slice, and the
    value is the larger of it and the discounted payoff.  Each slice's
    boundary is read off by :func:`boundary_slice` as it is computed, so
    only one value row is held.

    Deep in the stopping region the value is the payoff, so each step
    multiplies the stencil only over a row prefix ``[0, m)``; every row
    from ``m`` up is set to the payoff, bit for bit what the full product
    and maximum give for a finite payoff.  A row ``j`` may stay above the
    prefix when

    * its stencil reads no continuation node (``v > pay``) of the later
      slice, so every value it reads is the float payoff
      ``disc[k+1] * hx``, and
    * a one-time test per lattice clears it:
      ``q * (A @ hx)_j + tol * (A @ |hx|)_j < hx_j - tol * |hx_j|`` for the
      largest and the smallest ratio ``q = disc[k+1] / disc[k]`` (the
      stencil's entries are positive), with ``tol`` = ``_CLEAR_TOL``
      (1e-12).  Each of the row's payoff terms is rounded at most seven
      times (the payoff's product, a pair sum, a tap product and four
      sums), so the float product differs from ``disc[k+1] * (A @ hx)_j``
      by at most about 1e-15 times ``disc[k+1] * (A @ |hx|)_j``, and the
      test's own rounding is of the same size, so ``tol`` proves the float
      product strictly below the float payoff ``disc[k] * hx_j``, which
      ``np.maximum`` then returns.

    So ``m`` covers every row the test cannot clear and every row within
    the stencil's reach of the highest continuation node.  The product over
    the prefix (:meth:`Stencil.prefix`) gives each row the full product's
    bits, so every value and boundary bit equals the full product's; the
    prefix grows, with ``_PREFIX_SLACK`` reaches to spare, only when
    continuation comes within one reach of its edge.  A step is
    the product and four passes over the prefix (the payoff in place, the
    comparison, the maximum in place, and the boundary read) plus the
    payoff on the ``reach`` rows above it that the next product reads;
    ``v_first`` above those rows is filled with ``disc[0] * hx`` at the
    end.  The value row is the stencil's :attr:`Stencil.values`, so no
    product copies it in.

    Returns ``(v_first, v_terminal, boundary)``: the value slices at the
    first and the terminal time, and the per-slice boundary (not yet made
    monotone in time).
    """
    A = expectation_stencil(xs, math.sqrt(dt) * gh_x, gh_w)
    n_t, n_x, reach = disc.shape[0], hx.shape[0], A.reach
    q = disc[1:] / disc[:-1]
    Ahx = A @ hx
    above = np.maximum(q.max() * Ahx, q.min() * Ahx) + _CLEAR_TOL * (A @ np.abs(hx))
    uncleared = np.flatnonzero(~(above < hx - _CLEAR_TOL * np.abs(hx)))
    boundary = np.empty(n_t)
    v_terminal = disc[-1] * hx
    boundary[-1] = xs[0]  # the value equals the payoff at the terminal time
    v = A.values
    v[...] = v_terminal
    c_full = np.empty(n_x)
    cont = np.zeros(n_x, dtype=bool)
    # The first m rows are multiplied (-1 before the first step) and the
    # first w = m + reach rows of v kept current; the first `need` rows
    # must be multiplied.
    m, w = -1, 0
    need = int(uncleared[-1]) + 1 if uncleared.size else 0
    for k in range(n_t - 2, -1, -1):
        if need > m:
            # v holds slice k + 1, the payoff from row m up: extend the
            # rows kept current to those the wider product reads.
            m = min(n_x, need + _PREFIX_SLACK * reach)
            w, w_old = min(n_x, m + reach), w
            np.multiply(disc[k + 1], hx[w_old:w], out=v[w_old:w])
            hx_w, v_w, v_m, c, cont_m = hx[:w], v[:w], v[:m], c_full[:m], cont[:m]
            edge = cont[max(0, m - reach):m] if m < n_x else cont[:0]
            product = A.prefix(m, c_full)
        product()
        np.multiply(disc[k], hx_w, out=v_w)
        np.greater(c, v_m, out=cont_m)
        boundary[k] = boundary_slice(c, v, xs, cont)
        np.maximum(v_m, c, out=v_m)
        if np.count_nonzero(edge):
            # rows up to the highest continuation node plus one reach
            need = m + reach - int(edge[::-1].argmax())
    np.multiply(disc[0], hx[w:], out=v[w:])
    return v.copy(), v_terminal, boundary


def mc_first_crossing(s, x0, dt, walk, hit, b, running):
    """First crossings of antithetic pairs of Euler paths over one chunk of steps.

    Each pair is walked as one displacement ``S``: its first member, driven
    by ``+z``, is at ``x0 + S`` and its second, driven by ``-z``, at ``x0 -
    S``.  ``walk`` has shape ``(width, pairs)``.  On entry it holds the
    normals, time-major: ``walk[j, i]`` drives step ``j + 1`` of pair ``i``
    from the displacement ``s[i]`` (``s`` has shape ``(pairs,)``); ``b[j]``
    is the boundary level after step ``j + 1`` of length ``dt``.  ``walk``
    is overwritten with ``S``, one row add per step, so it rounds exactly as
    a step-by-step sum would, and ``s`` is advanced to the chunk's last
    step.  The first member crosses at the first step with ``S >= b - x0``,
    the second at the first step with ``S <= x0 - b``.  ``running`` (shape
    ``(2, pairs)``) flags the members still running: only they can cross,
    and each one that does is cleared.  ``hit`` is boolean scratch of
    ``walk``'s shape.  "Any hit" is reduced along time first and the first
    hit is searched only for members that hit.  Returns ``(col, x_at)``,
    each of shape ``(2, pairs)``: the crossing column, or ``width`` for a
    member that does not cross here, and the position there (at the last
    column if none).
    """
    width = walk.shape[0]
    walk *= math.sqrt(dt)
    walk[0] += s
    for j in range(1, width):
        np.add(walk[j - 1], walk[j], out=walk[j])
    s[...] = walk[-1]
    col = np.full(running.shape, width)
    x_at = np.stack([x0 + s, x0 - s])
    members = ((np.greater_equal, b - x0, np.add), (np.less_equal, x0 - b, np.subtract))
    for m, (crossed, level, position) in enumerate(members):
        crossed(walk, level[:, None], out=hit)
        pair = np.flatnonzero(hit.any(axis=0) & running[m])
        first = hit[:, pair].argmax(axis=0)
        col[m, pair] = first
        x_at[m, pair] = position(x0, walk[first, pair])
        running[m, pair] = False
    return col, x_at
