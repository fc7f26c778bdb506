"""One-dimensional discounted stopping problems in normalized coordinates.

A problem is stored in the frame where the terminal-time continuation set
is the negative half-line: the generator payoff ``h_tilde = r*h - h''/2``
is non-positive left of the origin and non-negative on ``(0, b_inf)``,
``b_inf`` being the boundary of the corresponding infinite-horizon problem.
The change of variable into that frame is each constructor's own (see
:func:`american_put`); no output is written in the original coordinates.

``h_tilde`` may carry point masses (``atoms``): payoffs that satisfy the
generator relation only weakly, such as the kinked put payoff, contribute
``weight * exp(kernel exponent at the atom location)`` to every kernel
integral.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .numerics import RootBracket, find_root, integrate_semi_infinite

__all__ = [
    "Problem",
    "DriftedProblem",
    "UnsupportedRegimeError",
    "ProblemFileError",
    "builtin",
    "american_put",
    "remove_drift",
    "load_problem_file",
    "numeric_laplace",
    "smooth_fit_b_inf",
]


# Root tolerance of :func:`smooth_fit_b_inf`.
_SMOOTH_FIT_TOL = 1e-12


class UnsupportedRegimeError(ValueError):
    """Requested problem parameters fall outside the supported regime."""


class ProblemFileError(ValueError):
    """A problem-definition file is missing or malformed."""


@dataclass(eq=False)
class Problem:
    """A normalized one-sided discounted stopping problem.

    Attributes
    ----------
    label : str
        Identifier used in reports.
    r : float
        Discount rate per unit time (``r = 0`` is permitted only for
        closed-form verification problems).
    h : callable or None
        Payoff in normalized coordinates; required by the dynamic
        programming and Monte Carlo reference paths, not by the kernel
        representation itself.
    h_tilde : callable
        Generator payoff ``r*h - h''/2`` (density part).
    laplace_h_tilde : callable
        ``c -> integral_{-inf}^0 exp(c*y) dh_tilde(y)`` including atoms.
    b_inf : float
        Right endpoint of the infinite-horizon continuation set in the
        normalized frame; ``math.inf`` for problems whose boundary is
        unbounded.
    beta, m_ratio : float
        Local power of ``h_tilde`` at the origin and ratio of its one-sided
        leading coefficients; select the universal boundary constant.
        Near 0, ``|h_tilde(y)| ~ m_left * |y|**beta`` for ``y < 0`` and
        ``m_right * y**beta`` for ``y > 0``; ``m_ratio = m_left / m_right``,
        the left coefficient's magnitude over the right's.  For example
        ``h_tilde = 4y`` on the left and ``y`` on the right has
        ``m_ratio = 4``, and its lattice boundary gives ``B`` close to
        ``solve_B(1, 4) = 1.0621``, not ``solve_B(1, 0.25) = 6.711``.
    atoms : tuple of (location, weight)
        Point masses of ``h_tilde``.
    """

    label: str
    r: float
    h_tilde: Callable[[float], float]
    laplace_h_tilde: Callable[[float], float]
    b_inf: float
    beta: float = 1.0
    m_ratio: float = 1.0
    h: Optional[Callable[[float], float]] = None
    atoms: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("discount rate must be non-negative")
        if not self.b_inf > 0.0:
            raise ValueError("b_inf must be positive")

    @property
    def c_min(self) -> float:
        """Lower admissibility limit for the kernel parameter."""
        return math.sqrt(2.0 * self.r)

    def scaled(self, k: float) -> "Problem":
        """Problem with ``h_tilde`` (and its transform) multiplied by ``k > 0``.

        Positive scaling of the payoff leaves the continuation set
        unchanged; this helper exists to test that invariance.
        """
        if k <= 0.0:
            raise ValueError("scale factor must be positive")
        ht, lap, atoms = self.h_tilde, self.laplace_h_tilde, self.atoms
        return replace(
            self,
            label=f"{self.label}*{k:g}",
            h_tilde=lambda y: k * ht(y),
            laplace_h_tilde=lambda c: k * lap(c),
            atoms=tuple((loc, k * w) for loc, w in atoms),
        )


@dataclass(frozen=True)
class DriftedProblem:
    """A stopping problem driven by Brownian motion with constant drift."""

    mu: float
    r: float
    h: Callable[[float], float]


def numeric_laplace(
    h_tilde: Callable[[float], float],
    atoms: Tuple[Tuple[float, float], ...] = (),
    growth: float = 0.0,
) -> Callable[[float], float]:
    """Build ``c -> integral_{-inf}^0 exp(c*y) dh_tilde(y)`` by quadrature."""

    def lap(c: float) -> float:
        decay = c - growth
        if decay <= 0.0:
            raise ValueError(
                f"kernel parameter {c} does not dominate the payoff growth {growth}"
            )
        val = integrate_semi_infinite(lambda y: math.exp(c * y) * h_tilde(y), 0.0, -1, decay)
        for loc, w in atoms:
            if loc <= 0.0:
                val += w * math.exp(c * loc)
        return val

    return lap


def smooth_fit_b_inf(
    h: Callable[[float], float],
    r: float,
    bracket: Tuple[float, float],
) -> float:
    """Infinite-horizon boundary from the smooth-pasting condition.

    For a one-sided perpetual problem stopped on ``[b, inf)`` the value below
    the boundary is ``h(b) * exp(sqrt(2r) (y - b))``; pasting the derivative
    gives ``h'(b) = sqrt(2r) * h(b)``.  ``h'`` is taken by central
    differences, so ``h`` must be smooth near the root, which ``bracket``
    must enclose.
    """
    s = math.sqrt(2.0 * r)
    eps = 1e-7

    def g(b: float) -> float:
        hp = (h(b + eps) - h(b - eps)) / (2.0 * eps)
        return hp - s * h(b)

    lo, hi = bracket
    return find_root(g, RootBracket(lo, hi, g(lo), g(hi)), _SMOOTH_FIT_TOL)


def _linear() -> Problem:
    r = 1.0
    b_hard = 1.0 / math.sqrt(2.0 * r)
    b_check = smooth_fit_b_inf(lambda y: y, r, bracket=(1e-3, 5.0))
    if abs(b_hard - b_check) > 1e-6:
        raise RuntimeError(
            f"smooth-fit cross-check failed for the linear problem: "
            f"{b_hard} vs {b_check}"
        )
    return Problem(
        label="linear",
        r=r,
        h=lambda x: x,
        h_tilde=lambda y: y,
        laplace_h_tilde=lambda c: -1.0 / (c * c),
        b_inf=b_hard,
        beta=1.0,
        m_ratio=1.0,
    )


def _stadje() -> Problem:
    # Undiscounted cubic benchmark with the closed-form boundary
    # b(t) = alpha * sqrt(-t).  In the normalized orientation (continuation
    # left of the boundary, stopping to the right) the payoff is -y^3/3 and
    # the generator payoff is +y; the boundary is unbounded as t -> -inf,
    # so this problem is used by the closed-form verification and reference
    # paths only, never by the grid solver.
    return Problem(
        label="stadje",
        r=0.0,
        h=lambda x: -(x**3) / 3.0,
        h_tilde=lambda y: y,
        laplace_h_tilde=lambda c: -1.0 / (c * c),
        b_inf=math.inf,
        beta=1.0,
        m_ratio=1.0,
    )


def american_put(rho: float = 1.0, theta: float = 0.5) -> Problem:
    """Canonical American put with large dividends, normalized.

    Parameters
    ----------
    rho : float
        Interest rate over squared volatility, ``rho > 0``.
    theta : float
        Interest over dividend rate, ``theta < 1`` (the supported
        large-dividend regime).

    Notes
    -----
    The canonical payoff is ``exp(-rho*t) * (1 - exp(x + kappa*t))^+`` with
    ``kappa = rho - rho/theta - 1/2``.  Substituting ``z = x + kappa*t``
    turns it into a drifted problem with payoff ``rho*(1 - exp(z))^+``;
    removing the drift multiplies the payoff by ``exp(kappa*z)`` and raises
    the discount to ``r' = rho + kappa**2/2``.  The terminal continuation
    set is ``(log(theta), inf)`` in ``z``, so the normalized coordinate is
    ``y = log(theta) - z``.  The payoff kink at ``z = 0`` contributes a
    point mass of weight ``-rho/2`` at ``y = log(theta)``.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if theta >= 1.0:
        raise UnsupportedRegimeError(
            "theta >= 1 (dividend rate below the interest rate) puts the payoff "
            "kink on the terminal continuation boundary and is not supported"
        )
    kappa = rho - rho / theta - 0.5
    z0 = math.log(theta)
    r_prime = rho + kappa * kappa / 2.0
    a_density = rho * rho * math.exp(kappa * z0)
    a_payoff = rho * math.exp(kappa * z0)

    def h_tilde(y: float) -> float:
        if y <= z0:
            return 0.0
        return a_density * math.exp(-kappa * y) * (1.0 - math.exp(-y))

    def h_pay(y: float) -> float:
        v = a_payoff * math.exp(-kappa * y) * (1.0 - math.exp(z0 - y))
        return v if v > 0.0 else 0.0

    def laplace(c: float) -> float:
        i1 = (1.0 - math.exp((c - kappa) * z0)) / (c - kappa)
        i2 = (1.0 - math.exp((c - kappa - 1.0) * z0)) / (c - kappa - 1.0)
        return a_density * (i1 - i2) - 0.5 * rho * math.exp(c * z0)

    b_inf = smooth_fit_b_inf(h_pay, r_prime, bracket=(1e-6, max(20.0, -4.0 * z0)))
    s = math.sqrt(2.0 * r_prime)
    z_inf = math.log((kappa + s) / (kappa + 1.0 + s))
    if abs(b_inf - (z0 - z_inf)) > 1e-6:
        raise RuntimeError(
            f"smooth-fit cross-check failed for the put: {b_inf} vs {z0 - z_inf}"
        )
    return Problem(
        label="american_put",
        r=r_prime,
        h=h_pay,
        h_tilde=h_tilde,
        laplace_h_tilde=laplace,
        b_inf=b_inf,
        beta=1.0,
        m_ratio=1.0,
        atoms=((z0, -0.5 * rho),),
    )


def builtin(label: str, **params) -> Problem:
    """Construct one of the built-in problems.

    ``linear``: payoff ``x`` at unit discount; ``stadje``: the undiscounted
    cubic closed-form benchmark; ``american_put``: the canonical put,
    accepting ``rho`` and ``theta`` keyword parameters.
    """
    if label == "linear":
        return _linear()
    if label == "stadje":
        return _stadje()
    if label == "american_put":
        return american_put(**params)
    raise ValueError(f"unknown builtin problem {label!r}")


def remove_drift(p: DriftedProblem) -> Problem:
    """Equivalent driftless problem via an exponential change of measure.

    The payoff becomes ``exp(mu*y) * h(y)`` and the discount rate rises to
    ``r + mu**2/2``; values and continuation sets of the two formulations
    agree (cross-validated against backward induction, not assumed).  The
    returned problem carries a finite-difference generator payoff and is
    intended for reference-path validation; the infinite-horizon data
    (``b_inf``, local power) are not derived here.
    """
    r_prime = p.r + p.mu * p.mu / 2.0
    if not r_prime > 0.0:
        raise ValueError("transformed discount rate must be positive")
    mu, h = p.mu, p.h

    def h_prime(y: float) -> float:
        return math.exp(mu * y) * h(y)

    eps = 1e-5

    def h_tilde(y: float) -> float:
        second = (h_prime(y + eps) - 2.0 * h_prime(y) + h_prime(y - eps)) / (eps * eps)
        return r_prime * h_prime(y) - 0.5 * second

    return Problem(
        label="drift_removed",
        r=r_prime,
        h=h_prime,
        h_tilde=h_tilde,
        laplace_h_tilde=numeric_laplace(h_tilde, growth=max(0.0, -mu) + 1e-9),
        b_inf=math.inf,
    )


# name: (function, fewest arguments, most arguments)
_EXPR_CALLS = {
    "exp": (math.exp, 1, 1),
    "log": (math.log, 1, 2),
    "pow": (pow, 2, 2),
    "max": (max, 2, math.inf),
}
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}


def _compile_expr(node: ast.AST) -> Callable[[float], float]:
    """The function of ``y`` an expression tree computes.

    Only numbers, the name ``y``, ``+ - * / **``, unary ``-``/``+`` and
    calls to ``exp`` (1 argument), ``log`` (1 or 2), ``pow`` (2) and ``max``
    (2 or more) are accepted; any other node or argument count raises
    ``ValueError``, so no attribute, subscript, lambda or other name can
    reach the interpreter, and no call can fail on its arity later.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return lambda y: value
    if isinstance(node, ast.Name) and node.id == "y":
        return lambda y: y
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        op = _EXPR_OPS[type(node.op)]
        left, right = _compile_expr(node.left), _compile_expr(node.right)
        return lambda y: op(left(y), right(y))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        op, operand = _EXPR_OPS[type(node.op)], _compile_expr(node.operand)
        return lambda y: op(operand(y))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_CALLS
        and not node.keywords
    ):
        fn, fewest, most = _EXPR_CALLS[node.func.id]
        if not fewest <= len(node.args) <= most:
            raise ValueError(
                f"{ast.unparse(node)!r}: {node.func.id}() cannot take "
                f"{len(node.args)} argument(s)"
            )
        args = [_compile_expr(a) for a in node.args]
        return lambda y: fn(*(a(y) for a in args))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _parse_atoms(text: str) -> Tuple[Tuple[float, float], ...]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            loc, w = part.split(":")
            out.append((float(loc), float(w)))
        except ValueError as exc:
            raise ProblemFileError(f"bad atom entry {part!r}") from exc
    return tuple(out)


_FILE_KEYS = ("label", "r", "beta", "m_ratio", "b_inf", "htilde_expr", "atoms", "growth")


def load_problem_file(path: str) -> Problem:
    """Read a problem from a flat ``key=value`` definition file.

    Recognised keys: ``label``, ``r``, ``beta``, ``m_ratio``, ``b_inf``,
    ``htilde_expr`` (an arithmetic expression in ``y`` that may use
    ``exp``, ``log``, ``pow`` and ``max``), ``atoms`` (semicolon-separated
    ``location:weight`` pairs) and ``growth``.  Any other key raises
    ``ProblemFileError`` naming it and its line, so that a misspelt key
    cannot leave its default in force.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file {path!r}: {exc}") from exc
    kv = {}
    for i, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFileError(f"{path}:{i}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ProblemFileError(f"{path}:{i}: unknown key {key!r}")
        kv[key] = val
    missing = {"r", "b_inf", "htilde_expr"} - kv.keys()
    if missing:
        raise ProblemFileError(f"{path}: missing required keys {sorted(missing)}")
    try:
        expr = _compile_expr(ast.parse(kv["htilde_expr"], "<htilde_expr>", "eval").body)
    except (SyntaxError, ValueError) as exc:
        raise ProblemFileError(f"{path}: bad htilde_expr: {exc}") from exc

    def h_tilde(y: float) -> float:
        return float(expr(y))

    atoms = _parse_atoms(kv.get("atoms", ""))
    growth = float(kv.get("growth", "0.0"))
    try:
        return Problem(
            label=kv.get("label", "custom"),
            r=float(kv["r"]),
            h_tilde=h_tilde,
            laplace_h_tilde=numeric_laplace(h_tilde, atoms, growth),
            b_inf=float(kv["b_inf"]),
            beta=float(kv.get("beta", "1.0")),
            m_ratio=float(kv.get("m_ratio", "1.0")),
            atoms=atoms,
        )
    except ValueError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
