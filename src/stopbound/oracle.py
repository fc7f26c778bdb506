"""Independent reference solutions by backward induction and Monte Carlo.

These paths share no code with the integral-identity machinery: the value
function is computed directly from its definition on a space-time lattice
(a Bermudan approximation of the continuous problem), the boundary is read
off the lattice, and Monte Carlo spot-checks the value attained by a given
stopping rule.  Everything here exists to validate the solver, so it must
stay structurally independent of it.

Conventions: time runs over ``[T_min, 0]`` and values are discounted to
the common epoch 0, i.e. stopping at time ``t`` pays ``exp(-r*t) * h(x)``
(``t <= 0``); this matches the identity machinery so boundaries compare
directly.  The lattice boundary carries a first-order bias in
``sqrt(dt)`` from the discrete exercise dates; :func:`refined_boundary`
removes the leading term by Richardson extrapolation against a finer run.

On the uniform lattice the one-step expectation is one fixed banded
stencil, built once per lattice (:func:`_kernels.expectation_stencil`):
every row shares one mirror-symmetric tap set, and the edge rows read
their reflected points through ghost nodes, so a product is four pair
sums and one ``np.einsum`` in NumPy alone.  The backward induction applies
it to one value row in place and reads the boundary off each slice as it
goes, so a lattice holds memory in ``t_steps + x_steps``, not in their
product.  It multiplies only the row prefix that can continue.  A row
above it reads no continuation node of the later slice, and a one-time
test per lattice, with a relative margin ``tol`` = 1e-12 far above the
rounding of a row product, proves its float product below the float
payoff; so it is the payoff, and every value and boundary bit equals the
full product's.  Monte Carlo simulates
antithetic pairs of paths, driven by ``z`` and ``-z``, and takes its
standard error over the pairs, which are the independent samples; so
``paths`` must be even.  It advances the pairs in chunks of time steps and
draws normals only for the pairs still running, so its memory is one chunk,
not ``paths`` rows.  The pairs are split into two contiguous blocks, each
drawn from its own generator spawned from the seed and run on a thread of
its own: NumPy releases the interpreter lock while it draws normals, which
is most of the cost.  The split is fixed, so a seed gives the same bits on
any machine.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .fredholm import BoundaryGrid
from .problem import Problem

__all__ = [
    "DPGrid",
    "RefinedBoundary",
    "ResolutionError",
    "OutOfRangeError",
    "default_x_bounds",
    "backward_induction",
    "extract_d",
    "refined_boundary",
    "d_intervals",
    "expiry_root",
    "mc_value",
]


# Float values per Monte Carlo chunk over both streams (8 MB), at least one
# time step for every path: half hold the normals of the running pairs, half
# the positions of their second members.
_MC_BLOCK_VALUES = 2**20


# :func:`expiry_root` fits the slices at times -_EXPIRY_WINDOW <= t < 0.
_EXPIRY_WINDOW = 0.05


class ResolutionError(ValueError):
    """Grid resolution too coarse for a meaningful reference solution."""


class OutOfRangeError(ValueError):
    """A query point lies outside the computed lattice."""


@dataclass
class DPGrid:
    """Solved space-time lattice with the extracted exercise boundary.

    ``boundary`` has one entry per time in ``t_values``.  ``value`` has shape
    ``(2, len(x_values))``: row 0 is the value at ``t_values[0]`` and row 1
    (also ``value[-1]``) the terminal value at time 0.  The slices between
    are not kept.
    """

    t_values: np.ndarray
    x_values: np.ndarray
    value: np.ndarray
    boundary: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t_values[1] - self.t_values[0])

    @property
    def dx(self) -> float:
        return float(self.x_values[1] - self.x_values[0])


@dataclass
class RefinedBoundary:
    """Extrapolated boundary on the coarse time lattice, ``coarse``."""

    t_values: np.ndarray
    boundary: np.ndarray
    dt: float
    dx: float
    coarse: DPGrid

    def at(self, t: float) -> float:
        return float(np.interp(t, self.t_values, self.boundary))


def default_x_bounds(p: Problem, t_min: float) -> Tuple[float, float]:
    """Spatial truncation wide enough for the diffusion over ``[t_min, 0]``."""
    span = math.sqrt(-t_min)
    if not math.isfinite(p.b_inf):
        return (-6.0 * span, 6.0 * span)
    return (-4.0 * span, p.b_inf + 4.0 * span)


def _gauss_hermite() -> Tuple[np.ndarray, np.ndarray]:
    # Probabilists' abscissae: exact for Gaussian moments up to order 9,
    # smooth in the state variable (a binomial stencil kinks the value and
    # pollutes the extracted boundary).
    x, w = np.polynomial.hermite_e.hermegauss(5)
    return x, w / w.sum()


def backward_induction(
    p: Problem,
    t_min: float,
    x_bounds: Optional[Tuple[float, float]] = None,
    t_steps: int = 2000,
    x_steps: int = 2000,
) -> DPGrid:
    """Value function and exercise boundary of the stopping problem on a lattice.

    Terminal condition ``V(0, x) = h(x)``; each backward step takes the
    maximum of the discounted payoff and the Gaussian one-step expectation
    (5-point quadrature, reflecting spatial truncation).  On the uniform grid
    that expectation is one fixed banded stencil, so the induction holds one
    value row, multiplied only over the rows that can continue, and reads
    the boundary off each slice as it goes; no ``(t_steps + 1, x_steps)``
    array is formed.  The returned grid keeps
    the value at ``t_min`` and at 0 only.
    """
    if p.h is None:
        raise ValueError(f"problem {p.label!r} carries no payoff for the lattice path")
    if not t_min < 0.0:
        raise ValueError("t_min must be negative")
    if t_steps < 16 or x_steps < 16:
        raise ResolutionError("lattice resolutions must be at least 16")
    lo_req, hi_req = default_x_bounds(p, t_min)
    if x_bounds is None:
        x_bounds = (lo_req, hi_req)
    elif x_bounds[0] > lo_req or x_bounds[1] < hi_req:
        raise ValueError(
            f"x_bounds {x_bounds} do not cover the required range "
            f"[{lo_req:.4g}, {hi_req:.4g}]"
        )
    ts = np.linspace(t_min, 0.0, t_steps + 1)
    xs = np.linspace(x_bounds[0], x_bounds[1], x_steps)
    dt = ts[1] - ts[0]
    disc = np.exp(-p.r * ts)
    hx = np.array([p.h(x) for x in xs])
    gh_x, gh_w = _gauss_hermite()
    v_first, v_terminal, b = _kernels.dp_backward(disc, hx, xs, dt, gh_x, gh_w)
    return DPGrid(t_values=ts, x_values=xs, value=np.stack([v_first, v_terminal]),
                  boundary=np.minimum.accumulate(b))


def _time_of(y: np.ndarray, t_values: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Latest time at which each ``y`` is below the non-increasing ``boundary``.

    Linear between slices, clamped to ``<= 0``, and ``0`` at ``y <= 0``.
    """
    # boundary is non-increasing in t, so reversed arrays are interp-ready
    v = np.interp(y, boundary[::-1], t_values[::-1], left=0.0, right=t_values[0])
    v = np.minimum(v, 0.0)
    v[y <= 0.0] = 0.0
    return v


def extract_d(grid: DPGrid, nodes: np.ndarray) -> Tuple[BoundaryGrid, np.ndarray]:
    """Boundary in time-over-space form ``d(y)`` at the given nodes.

    ``d(y)`` is the largest lattice time at which ``y`` is still in the
    continuation region, interpolated linearly between slices and clamped
    to ``<= 0``.  Returns the grid and a flag array marking nodes whose
    value hit the lattice horizon (within three time steps of ``T_min``),
    where ``d`` is truncated rather than resolved.
    """
    nodes = np.asarray(nodes, dtype=float)
    if np.any(nodes < grid.x_values[0]) or np.any(nodes > grid.x_values[-1]):
        raise OutOfRangeError("query node outside the lattice's spatial range")
    t_min = grid.t_values[0]
    d = np.minimum.accumulate(_time_of(nodes, grid.t_values, grid.boundary))
    truncated = d <= t_min + 3.0 * grid.dt
    d[truncated] = np.minimum(d[truncated], t_min)
    return BoundaryGrid(nodes=nodes, values=d), truncated


def refined_boundary(
    p: Problem,
    t_min: float,
    t_steps: int = 2000,
    x_steps: int = 2000,
) -> RefinedBoundary:
    """Richardson-extrapolated boundary, bias removed to first order.

    The Bermudan boundary sits below the continuous one by approximately a
    constant times ``sqrt(dt)``; running the lattice again at quadruple time
    (double space) resolution and forming ``2*b_fine - b_coarse`` cancels
    that term.  Both lattices span :func:`default_x_bounds`.
    """
    coarse = backward_induction(p, t_min, None, t_steps, x_steps)
    fine = backward_induction(p, t_min, None, 4 * t_steps, 2 * x_steps)
    b_fine = np.interp(coarse.t_values, fine.t_values, fine.boundary)
    b = np.minimum.accumulate(2.0 * b_fine - coarse.boundary)
    # dt/dx record the oracle's nominal resolution (the coarse lattice); the
    # finer companion run exists only to cancel the leading bias term.
    return RefinedBoundary(
        t_values=coarse.t_values, boundary=b, dt=coarse.dt, dx=coarse.dx, coarse=coarse
    )


def d_intervals(
    ref: RefinedBoundary, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment admissible ``d`` ranges implied by the reference boundary.

    A piecewise-constant boundary value on segment ``[y_n, y_{n+1})``
    represents every crossing time the continuous boundary takes inside the
    segment, so the faithful comparison is against the interval
    ``[d(y_{n+1}), d(y_n)]`` widened by one spatial cell of the reference
    lattice.  Returns ``(d_lo, d_hi, truncated)`` arrays over the
    segments (one entry per node except the last).
    """
    nodes = np.asarray(nodes, dtype=float)
    t_min = ref.t_values[0]
    d_lo = _time_of(nodes[1:] + ref.dx, ref.t_values, ref.boundary)
    d_hi = _time_of(np.maximum(nodes[:-1] - ref.dx, 0.0), ref.t_values, ref.boundary)
    truncated = d_lo <= t_min + 3.0 * ref.dt
    return d_lo, d_hi, truncated


def expiry_root(ref: RefinedBoundary) -> Tuple[float, float]:
    """Root and square-root coefficient ``(a, alpha)`` of the boundary at expiry.

    Near expiry the boundary leaves the edge of the terminal continuation
    set, the origin of the normalized frame, like ``alpha * sqrt(-t)``.  A
    least-squares fit of ``b = a + alpha * sqrt(-t)`` over the slices with
    ``-0.05 <= t < 0`` measures where the lattice puts that edge: ``a`` is
    its distance from the origin.  Fewer than two slices in the window
    raise :class:`ResolutionError`.
    """
    t = ref.t_values
    window = (t >= -_EXPIRY_WINDOW) & (t < 0.0)
    if np.count_nonzero(window) < 2:
        raise ResolutionError("fewer than two lattice slices within 0.05 of expiry")
    s = np.sqrt(-t[window])
    design = np.stack([np.ones_like(s), s], axis=1)
    (a, alpha), *_ = np.linalg.lstsq(design, ref.boundary[window], rcond=None)
    return float(a), float(alpha)


def _mc_stream(
    rng: np.random.Generator,
    pairs: int,
    x0: float,
    b_path: np.ndarray,
    n_steps: int,
    dt: float,
    width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stopping steps and positions of ``pairs`` antithetic pairs drawn from ``rng``.

    Walks the pairs in chunks of ``width`` time steps through one buffer
    sized for these pairs.  Returns ``(stop_step, stop_x)``, each of shape
    ``(2, pairs)``: row 0 is the member driven by ``+z``, row 1 the one
    driven by ``-z``.
    """
    buf = np.empty(2 * pairs * width)
    stop_step = np.zeros((2, pairs), dtype=np.int64)
    stop_x = np.full((2, pairs), float(x0))
    # A start at or past the boundary stops at step 0: no pair runs.
    live = np.arange(pairs if x0 < b_path[0] else 0)
    x = stop_x[:, live]
    for k in range(0, n_steps, width):
        if not live.size:
            break
        w = min(width, n_steps - k)
        walks = buf[:2 * w * live.size].reshape(2, w, live.size)
        rng.standard_normal(out=walks[0])
        col, x = _kernels.mc_first_crossing(x, dt, walks, b_path[k + 1:k + 1 + w])
        member, pair = np.nonzero(col < w)
        stop_step[member, live[pair]] = k + 1 + col[member, pair]
        stop_x[member, live[pair]] = x[member, pair]
        # A stopped member rides along at -inf, where it never crosses.
        x[member, pair] = -np.inf
        running = np.any(x > -np.inf, axis=0)
        live, x = live[running], x[:, running]
    member, pair = np.nonzero(x > -np.inf)
    stop_step[member, live[pair]] = n_steps
    stop_x[member, live[pair]] = x[member, pair]
    return stop_step, stop_x


def mc_value(
    p: Problem,
    t0: float,
    x0: float,
    boundary: BoundaryGrid,
    paths: int,
    rng_seed: int,
    n_steps: int = 2000,
) -> Tuple[float, float]:
    """Monte Carlo value of the stopping rule defined by ``boundary``.

    Euler paths from ``(t0, x0)`` stop at the first crossing of the
    boundary (or at time 0) and collect the discounted payoff.  Checking
    crossings only at discrete dates misses excursions between them, so the
    barrier is shifted toward the paths by ``0.5826 * sqrt(dt)``, the
    Broadie--Glasserman--Kou continuity correction, which cancels the
    leading bias.

    The paths are ``paths // 2`` antithetic pairs (Glasserman 2004, §4.2),
    so ``paths`` must be even: the two members of a pair are driven by the
    normals ``z`` and ``-z``.  The estimate is the mean payoff over all
    paths; the pairs are the independent samples, so the standard error is
    the sample standard deviation of the pair means over
    ``sqrt(paths // 2)``.

    The pairs are split into two contiguous blocks, ``pairs // 2`` and the
    rest.  Each block is a stream with its own generator, spawned from
    ``np.random.SeedSequence(rng_seed)``, and its own buffer.  The first
    stream runs on the caller's thread and the second on a worker thread,
    which the caller joins before it returns or raises; an exception the
    worker raises is raised again here.  The estimate depends on the fixed
    split, not on the machine's CPU count or on how the threads interleave.

    Each stream advances in chunks of ``max(1, _MC_BLOCK_VALUES // paths)``
    time steps (the last may be shorter) over its pairs still running, a
    pair running while either member does.  Each chunk draws one time-major
    ``(steps, running pairs)`` block of normals into the stream's
    preallocated buffer, which also holds the second member's positions,
    so a pair whose members have both stopped draws nothing more, a start
    already in the stopping region draws nothing at all, and memory is
    about :data:`_MC_BLOCK_VALUES` values over both streams together,
    whatever ``paths`` and ``n_steps`` are.  Which normal drives which step
    depends on the chunk width, so the estimate does too (within its
    standard error); for a fixed seed and path count it is bit-for-bit
    reproducible.  Returns ``(estimate, standard_error)``.
    """
    if p.h is None:
        raise ValueError(f"problem {p.label!r} carries no payoff to simulate")
    if paths < 1000:
        raise ValueError("need at least 1000 paths")
    if paths % 2:
        raise ValueError("paths must be even: they are simulated in antithetic pairs")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not t0 < 0.0:
        raise ValueError("t0 must be negative")
    dt = -t0 / n_steps
    ts = t0 + dt * np.arange(n_steps + 1)
    b_path = np.interp(ts, boundary.values[::-1], boundary.nodes[::-1],
                       left=boundary.nodes[-1], right=0.0)
    b_path = np.maximum(b_path - 0.5826 * math.sqrt(dt), 0.0)
    pairs = paths // 2
    width = max(1, _MC_BLOCK_VALUES // paths)
    half = pairs // 2
    rng0, rng1 = (np.random.default_rng(seed)
                  for seed in np.random.SeedSequence(rng_seed).spawn(2))
    second: list = []

    def run_second() -> None:
        try:
            second.append(_mc_stream(rng1, pairs - half, x0, b_path, n_steps, dt, width))
        except BaseException as exc:  # raised again on the caller's thread
            second.append(exc)

    worker = threading.Thread(target=run_second, name="stopbound-mc")
    worker.start()
    try:
        first = _mc_stream(rng0, half, x0, b_path, n_steps, dt, width)
    finally:
        worker.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    stop_step, stop_x = (np.concatenate(a, axis=1) for a in zip(first, second[0]))
    t_stop = t0 + stop_step * dt
    h_stop = np.array([p.h(x) for x in stop_x.ravel()]).reshape(2, pairs)
    payoff = np.exp(-p.r * t_stop) * h_stop
    est = float(payoff.mean())
    se = float(payoff.mean(axis=0).std(ddof=1) / math.sqrt(pairs))
    return est, se
