"""Performance-critical numerical kernels, one NumPy implementation each.

The solver and the envelope read ``residuals``, ``surrogate_objective`` and
``sweep``; the oracle reads ``dp_backward`` and ``mc_first_crossing``.
Callers look every kernel up as an attribute of this module, so a profiler
can wrap it in one place.  ``dp_backward`` loops over time slices, each
step one sparse matvec (a stencil with no stored zeros) and three row
passes; ``mc_first_crossing`` walks antithetic pairs of paths over a
time-major chunk of normals, which the caller sizes and draws for the pairs
still running: one row add per step and member, then one comparison over
the chunk.

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
    "surrogate_objective",
    "sweep",
    "dp_backward",
    "expectation_stencil",
    "boundary_slice",
    "mc_first_crossing",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Finite, ordered stand-in for the +inf penalty sentinel so that descent can
# escape regions where the penalty pole 1 + c^2 R <= 0 is crossed.
_SENTINEL = 1e12


def residuals(lap, W, gam, dvals):
    """Residual vector R(c_l; d) = lap_l + sum_n exp(gam_l * d_n) * W_ln."""
    with np.errstate(over="ignore", under="ignore"):
        E = np.exp(np.minimum(gam[:, None] * dvals[None, :], 700.0))
    return lap + (E * W).sum(axis=1)


def surrogate_objective(lap, W, gam, c2, dvals):
    """Penalised objective with a finite graded sentinel past the pole.

    Inside the admissible region (1 + c^2 R > 0 for every c) this equals
    ``sum_l (u_l + 1/(1+u_l))**2`` with ``u_l = c_l**2 R_l``.  Outside it
    returns ``1e12 * (1 + sum of squared violations)`` which is ordered so
    a minimiser can walk back into the admissible region.
    """
    u = c2 * residuals(lap, W, gam, dvals)
    bad = 1.0 + u
    if np.any(bad <= 0.0):
        v = np.minimum(bad, 0.0)
        return _SENTINEL * (1.0 + float((v * v).sum()))
    s = u + 1.0 / bad
    return float((s * s).sum())


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


def expectation_stencil(xs, shifts, weights):
    """One-step expectation on the nodes ``xs`` as a sparse matrix.

    Row ``j`` maps a value slice to ``sum_i weights[i] * v(xs[j] + shifts[i])``,
    the value read by linear interpolation after one reflection of the
    point at each spatial edge (and held at the edge value beyond it).  Each
    point touches two neighbouring nodes, so a row has at most
    ``2 * len(shifts)`` entries.  The matrix stores no zeros: a point that
    lands exactly on a node (the centre abscissa, shift 0, does on every row)
    puts weight 0 on the neighbouring node, and that entry is dropped, which
    changes no product bit.  ``scipy.sparse`` is imported on the first call,
    so only a lattice run loads it.
    """
    from scipy import sparse

    n_x = xs.shape[0]
    x0, x_hi = xs[0], xs[-1]
    xp = xs[None, :] + shifts[:, None]
    xp = np.where(xp < x0, 2.0 * x0 - xp, xp)
    xp = np.where(xp > x_hi, 2.0 * x_hi - xp, xp)
    i0 = np.clip(np.searchsorted(xs, xp, side="right") - 1, 0, n_x - 2)
    fr = np.clip((xp - xs[i0]) / (xs[i0 + 1] - xs[i0]), 0.0, 1.0)
    w = weights[:, None]
    rows = np.broadcast_to(np.arange(n_x), xp.shape)
    # The conversion to CSR sums the entries that several points share.
    A = sparse.coo_array(
        (np.concatenate([(w * (1.0 - fr)).ravel(), (w * fr).ravel()]),
         (np.concatenate([rows.ravel(), rows.ravel()]),
          np.concatenate([i0.ravel(), (i0 + 1).ravel()]))),
        shape=(n_x, n_x),
    ).tocsr()
    A.eliminate_zeros()
    return A


def boundary_slice(v, pay, xs):
    """Exercise boundary of one time slice with values ``v`` and payoff ``pay``.

    The continuation region (``v > pay``) is the connected component on the
    low side; the boundary is its first continue-to-stop transition.  A slice
    with no continuation maps to ``xs[0]``, one with no transition to
    ``xs[-1]``.  Boolean ``argmax``/``argmin`` stop at the first hit, so the
    scan reads the slice once from the low side and forms no gap array.
    """
    cont = v > pay
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
    # strictly-positive cell.
    w1 = math.sqrt(v[i] - pay[i])
    w0 = math.sqrt(v[i - 1] - pay[i - 1]) if i > 0 else w1
    if w0 > w1:
        return xs[i] + w1 / ((w0 - w1) / (xs[1] - xs[0]))
    return xs[i] + 0.5 * (xs[1] - xs[0])


def dp_backward(disc, hx, xs, dt, gh_x, gh_w):
    """Backward induction on a regular space-time grid, two rows at a time.

    ``disc`` holds the discount factor per time slice (the last is the
    terminal slice), ``hx`` the raw payoff per spatial node ``xs``.  The
    continuation value is the Gauss--Hermite expectation over one step of
    length ``dt`` (abscissae ``gh_x``, weights ``gh_w``), one fixed
    :func:`expectation_stencil` applied to the later slice.  Each slice's
    boundary is read off by :func:`boundary_slice` as it is computed, so
    only the current and the next value row are held.  A step is the
    matvec and three row passes: the payoff into one preallocated row, the
    maximum in place, and the comparison inside :func:`boundary_slice`.

    Returns ``(v_first, v_terminal, boundary)``: the value slices at the
    first and the terminal time, and the per-slice boundary (not yet made
    monotone in time).
    """
    A = expectation_stencil(xs, math.sqrt(dt) * gh_x, gh_w)
    n_t = disc.shape[0]
    boundary = np.empty(n_t)
    v_terminal = v = disc[-1] * hx
    boundary[-1] = xs[0]  # the value equals the payoff at the terminal time
    pay = np.empty_like(hx)
    for k in range(n_t - 2, -1, -1):
        np.multiply(disc[k], hx, out=pay)
        v = A @ v
        np.maximum(pay, v, out=v)
        boundary[k] = boundary_slice(v, pay, xs)
    return v, v_terminal, boundary


def mc_first_crossing(x, dt, walks, b):
    """First crossings of antithetic pairs of Euler paths over one chunk of steps.

    ``walks`` has shape ``(2, width, pairs)``.  On entry ``walks[0]`` holds
    the normals, time-major: ``walks[0, j, i]`` drives step ``j + 1`` of
    pair ``i``, its first member by ``+z`` and its second by ``-z``, from
    the positions ``x[0, i]`` and ``x[1, i]`` (``x`` has shape ``(2,
    pairs)``); ``b[j]`` is the boundary level after step ``j + 1`` of length
    ``dt``.  ``walks`` is overwritten with the positions of both members,
    one row add per step, so each rounds exactly as a step-by-step walk
    would.  A member crosses at the first step where its position is
    ``>= b``; one that starts at ``-inf`` never does, so a stopped member
    can ride along with a partner that still runs.  "Any hit" is reduced
    along time first and the first hit is searched only for members that
    hit.  Returns ``(col, x_at)``, each of shape ``(2, pairs)``: the
    crossing column, or ``width`` for a member that does not cross, and the
    position there (at the last column if none).
    """
    width = walks.shape[1]
    plus, minus = walks
    plus *= math.sqrt(dt)
    np.subtract(x[1], plus[0], out=minus[0])
    plus[0] += x[0]
    for j in range(1, width):
        np.subtract(minus[j - 1], plus[j], out=minus[j])
        np.add(plus[j - 1], plus[j], out=plus[j])
    hit = walks >= b[:, None]
    member, pair = np.nonzero(hit.any(axis=1))
    first = hit.transpose(0, 2, 1)[member, pair].argmax(axis=1)
    col = np.full(x.shape, width)
    col[member, pair] = first
    x_at = walks[:, -1].copy()
    x_at[member, pair] = walks[member, first, pair]
    return col, x_at
