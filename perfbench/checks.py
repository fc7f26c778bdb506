"""Correctness checks on the outputs of the benchmark's operations.

Every check takes plain arrays and returns a list of failure messages (empty
when the output passes).  The checks compare against computations made apart
from the path under test (lattice references, closed forms) or against
properties the method must have, and they import nothing from ``stopbound``,
so a change to the program cannot change what they accept.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

# Slack for values that are equal up to round-off.
_EPS = 1e-12


def reference_d(ref: Dict, y: np.ndarray) -> np.ndarray:
    """Time-over-space form ``d(y)`` of a lattice boundary ``b(t)``.

    ``ref`` holds ``t_values`` (increasing, ``t_min`` to 0) and the
    non-increasing ``boundary``; levels beyond the boundary's range map to
    ``t_min`` and levels at or below 0 to 0.
    """
    t = np.asarray(ref["t_values"], dtype=float)
    b = np.asarray(ref["boundary"], dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.interp(y, b[::-1], t[::-1], left=0.0, right=t[0])
    d = np.minimum(d, 0.0)
    d[y <= 0.0] = 0.0
    return d


def boundary_shape(y: np.ndarray, d: np.ndarray, what: str) -> List[str]:
    """``d(0) = 0``, ``d <= 0`` and ``d`` non-increasing."""
    fails = []
    if y.size < 2 or y[0] != 0.0 or d[0] != 0.0:
        fails.append(f"{what}: d(0) is not 0")
    if np.any(d > 0.0):
        fails.append(f"{what}: positive boundary value {float(d.max()):.3g}")
    if np.any(np.diff(d) > _EPS):
        fails.append(f"{what}: boundary increases by {float(np.diff(d).max()):.3g}")
    return fails


def fitted_coefficient(y: np.ndarray, d: np.ndarray, k: int = 5) -> float:
    """Least-squares ``B`` in ``d = -B y**2`` over the ``k`` smallest positive nodes."""
    yy, dd = y[1 : k + 1], d[1 : k + 1]
    return float(-(dd * yy * yy).sum() / (yy**4).sum())


def segment_gap(ref: Dict, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Distance from each segment value to the reference's range on it.

    A piecewise-constant value on ``[y_n, y_{n+1})`` stands for every
    crossing time the continuous boundary takes there, widened by one
    spatial cell of the reference.  Truncated segments (the reference
    reaches its horizon there) are NaN.
    """
    t_min, dt, dx = float(ref["t_values"][0]), float(ref["dt"]), float(ref["dx"])
    d_lo = reference_d(ref, y[1:] + dx)
    d_hi = reference_d(ref, np.maximum(y[:-1] - dx, 0.0))
    gap = np.maximum(np.maximum(d[:-1] - d_hi, d_lo - d[:-1]), 0.0)
    gap[d_lo <= t_min + 3.0 * dt] = np.nan
    return gap


def check_solve(y: np.ndarray, d: np.ndarray, penalties: np.ndarray, cvals: int,
                B: float, rel_tol: float, ref: Dict) -> List[str]:
    """Solved boundary: shape, objective, small-y coefficient, lattice gap."""
    fails = boundary_shape(y, d, "solve")
    if penalties.size != cvals:
        fails.append(f"solve: {penalties.size} residuals for {cvals} parameters")
    obj = float(penalties.sum())
    if not abs(obj - cvals) <= 0.01 * cvals:
        fails.append(f"solve: objective {obj:.6g} not within 1% of M={cvals}")
    fitted = fitted_coefficient(y, d)
    if not abs(fitted - B) <= rel_tol * B:
        fails.append(f"solve: fitted B {fitted:.4f} not within {rel_tol:.0%} of {B:.4f}")
    gap = segment_gap(ref, y, d)
    if np.all(np.isnan(gap)):
        fails.append("solve: no segment of the lattice reference is resolved")
    elif not np.nanmax(gap) <= 3.0 * float(ref["dt"]):
        fails.append(f"solve: segment gap {np.nanmax(gap):.4g} exceeds 3 dt")
    return fails


def check_envelopes(y: np.ndarray, lowers: Sequence[np.ndarray],
                    uppers: Sequence[np.ndarray], ref: Dict) -> List[str]:
    """Envelope history: ordered sides, never loosening, containing the lattice.

    ``lowers[i]``/``uppers[i]`` are the sides after iteration ``i``.  Each
    envelope must contain the reference boundary, within one lattice time
    step, at every node the reference resolves.
    """
    fails = []
    t_min, dt = float(ref["t_values"][0]), float(ref["dt"])
    d_ref = reference_d(ref, y)
    resolved = d_ref > t_min + 3.0 * dt
    if not resolved.any():
        fails.append("bounds: no node of the lattice reference is resolved")
    for i, (lo, up) in enumerate(zip(lowers, uppers)):
        if np.any(lo > up + _EPS):
            fails.append(f"bounds: iteration {i} has lower above upper")
        if np.any(up > 0.0):
            fails.append(f"bounds: iteration {i} has a positive upper bound")
        if i > 0 and (np.any(lo < lowers[i - 1] - _EPS) or np.any(up > uppers[i - 1] + _EPS)):
            fails.append(f"bounds: iteration {i} loosens the envelope")
        miss = np.maximum(lo - d_ref, d_ref - up)[resolved]
        if miss.size and not miss.max() <= dt:
            fails.append(f"bounds: iteration {i} misses the lattice boundary by {miss.max():.4g}")
    return fails


def put_b_inf(rho: float, theta: float) -> float:
    """Perpetual put boundary in normalized coordinates, in closed form.

    With ``kappa = rho - rho/theta - 1/2``, ``r = rho + kappa**2/2`` and
    ``s = sqrt(2 r)``, smooth fit puts the perpetual exercise level at
    ``z = log((kappa + s) / (kappa + 1 + s))``; the normalized coordinate
    is ``y = log(theta) - z``.
    """
    kappa = rho - rho / theta - 0.5
    s = math.sqrt(2.0 * (rho + 0.5 * kappa * kappa))
    return math.log(theta) - math.log((kappa + s) / (kappa + 1.0 + s))


def boundary_root(t: np.ndarray, b: np.ndarray, window: float) -> float:
    """Level at which ``b(t) = a + alpha*sqrt(-t)`` meets ``t = 0``.

    Fitted over the slices with ``0 < -t <= window``.
    """
    near = (t < 0.0) & (t >= -window)
    A = np.column_stack([np.ones(int(near.sum())), np.sqrt(-t[near])])
    coef, *_ = np.linalg.lstsq(A, b[near], rcond=None)
    return float(coef[0])


def _time_grid(t: np.ndarray, b: np.ndarray) -> List[str]:
    fails = []
    if t.size < 2 or t[-1] != 0.0 or np.any(np.diff(t) <= 0.0):
        fails.append("oracle: time slices do not increase to 0")
    if np.any(np.diff(b) > _EPS):
        fails.append("oracle: boundary b(t) increases in t")
    return fails


def check_oracle_linear(t: np.ndarray, b: np.ndarray) -> List[str]:
    """Deep-horizon level of the linear problem at ``b_inf = sqrt(1/2)``."""
    fails = _time_grid(t, b)
    if not abs(b[0] - math.sqrt(0.5)) <= 0.02:
        fails.append(f"oracle: linear b(t_min) {b[0]:.5f} not within 0.02 of sqrt(1/2)")
    return fails


def check_oracle_put(t: np.ndarray, b: np.ndarray, rho: float, theta: float,
                     root_tol: float, level_tol: float) -> List[str]:
    """Boundary root at ``log(theta)``, deep-horizon level near ``b_inf``.

    The normalized put coordinate is ``y = log(theta) - z``, so the root
    maps back to ``z = log(theta) - y_root``.
    """
    fails = _time_grid(t, b)
    z_root = math.log(theta) - boundary_root(t, b, window=0.05)
    if not abs(z_root - math.log(theta)) <= root_tol:
        fails.append(f"oracle: put root maps to {z_root:.5f}, not log(theta)")
    b_inf = put_b_inf(rho, theta)
    if not abs(b[0] - b_inf) <= level_tol:
        fails.append(f"oracle: put b(t_min) {b[0]:.5f} not within {level_tol} of b_inf {b_inf:.5f}")
    return fails


def check_mc(estimate: float, stderr: float, value: float, bias: float) -> List[str]:
    """Monte Carlo estimate within 5 standard errors plus the lattice bias."""
    if not (stderr > 0.0 and abs(estimate - value) <= 5.0 * stderr + bias):
        return [f"mc: estimate {estimate:.5f} (se {stderr:.2g}) vs lattice {value:.5f}"
                f" (bias allowance {bias:.2g})"]
    return []
