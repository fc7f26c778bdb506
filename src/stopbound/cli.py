"""Command-line front end: reproducible runs with CSV and plot-data outputs.

Subcommands
-----------
constants   universal boundary coefficients for a given payoff power
solve       envelope + solver run, writing boundary/trace/residual CSVs
bounds      envelope iteration only
verify      closed-form and reference-solution checks with pass/fail lines
oracle      lattice reference boundary
residuals   residual dump for a given (or seeded) boundary

Every run writes a ``manifest.txt`` with the fully resolved configuration;
passing it back through ``--config`` reproduces the outputs bit-identically
(all numerics are deterministic for fixed inputs).  Flags given on the
command line win over config-file values.

Exit codes: 0 success, 1 usage/config error, 2 solver non-convergence,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import constants as constants_mod
from . import fredholm, oracle, solver
from .numerics import ToleranceNotMetError
from .problem import Problem, ProblemFileError, builtin, load_problem_file

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

_BUILTINS = ("linear", "stadje", "american_put")

# verify's bound on the put lattice's root at expiry (oracle.expiry_root) in
# the normalized coordinate: the bound perfbench's put oracle check applies to
# the same fit, about 2.8 cells of verify's put lattice (dx = 0.0054).
_PUT_ROOT_TOL = 0.015


class _UsageError(Exception):
    pass


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out-dir", default=".", help="directory for CSV outputs")
    sp.add_argument("--config", help="key=value file of defaults (command line wins)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stopbound",
        description="Stopping boundaries via a Fredholm-type integral representation",
    )
    ap.add_argument("--version", action="version", version=f"stopbound {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("constants", help="universal boundary coefficients")
    # Not required by the parser, so that --config can supply it.
    sp.add_argument("--beta", type=float)
    sp.add_argument("--m-ratio", type=float, default=1.0)
    _add_output(sp)

    for name, helptext in (
        ("solve", "solve for the stopping boundary"),
        ("bounds", "iterate the certified envelope"),
        ("verify", "run closed-form / reference checks"),
        ("oracle", "lattice reference boundary"),
        ("residuals", "dump residuals for a boundary"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--problem", choices=_BUILTINS, help="builtin problem label")
        if name not in ("verify", "oracle"):
            # A problem file carries no payoff, which the lattice needs.
            sp.add_argument("--problem-file", help="path to a key=value problem definition")
        sp.add_argument("--rho", type=float, default=1.0,
                        help="put: rate over squared volatility")
        sp.add_argument("--theta", type=float, default=0.5,
                        help="put: interest over dividend rate")
        sp.add_argument("--nodes", type=int, default=60, help="spatial node count N")
        if name != "oracle":
            sp.add_argument("--cvals", type=int, default=40, help="kernel parameter count M")
        if name in ("solve", "bounds"):
            sp.add_argument("--iterations", type=int, default=2 if name == "solve" else 3,
                            help="envelope refinement steps")
        if name == "solve":
            sp.add_argument("--seed-mode", choices=("asymptotic", "envelope_midpoint"),
                            default="asymptotic")
        if name in ("verify", "oracle"):
            sp.add_argument("--t-min", type=float, default=-10.0,
                            help="lattice horizon (negative)")
            sp.add_argument("--t-steps", type=int, default=2000)
            sp.add_argument("--x-steps", type=int, default=2000)
        if name == "residuals":
            sp.add_argument("--boundary", help="boundary CSV (columns y,d) to evaluate;"
                            " defaults to the asymptotic seed curve")
        _add_output(sp)
    return ap


def _config_flags(path: str, args: argparse.Namespace) -> List[str]:
    """The key=value lines of a config file as ``--key=value`` flags.

    Keys the subcommand does not know, and empty values (an unset option
    in a manifest), are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    flags = []
    for i, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{i}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key in ("subcommand", "version", "config") or not hasattr(args, key) or not val:
            continue
        flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _write_manifest(args: argparse.Namespace) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "manifest.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"version={__version__}\n")
        for key in sorted(vars(args)):
            if key in ("config", "version"):
                continue
            val = getattr(args, key)
            if val is None:
                val = ""
            fh.write(f"{key}={val}\n")


def _write_csv(out_dir: str, name: str, header: List[str], rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])
    return path


def _builtin_problem(args: argparse.Namespace) -> Problem:
    """The problem of ``--problem`` (with ``--rho`` and ``--theta`` for the put)."""
    if args.problem is None:
        raise _UsageError(f"{args.subcommand} requires --problem")
    if args.problem == "american_put":
        return builtin("american_put", rho=args.rho, theta=args.theta)
    return builtin(args.problem)


def _get_problem(args: argparse.Namespace) -> Problem:
    """The problem of ``--problem-file`` or ``--problem``, for the commands that take both."""
    if args.problem_file:
        try:
            return load_problem_file(args.problem_file)
        except ProblemFileError as exc:
            raise _UsageError(str(exc)) from exc
    if args.problem is None:
        raise _UsageError("one of --problem or --problem-file is required")
    return _builtin_problem(args)


def _coefficient(p: Problem, report: Optional[solver.SolveReport] = None) -> float:
    """The small-y coefficient ``B``: the one a solve's prior used, if any."""
    if report is not None:
        return report.prior_B
    return constants_mod.solve_B(p.beta, p.m_ratio).B


def _reference_curve(B: float, y: np.ndarray) -> np.ndarray:
    return -B * y * y


def cmd_constants(args: argparse.Namespace) -> int:
    if args.beta is None:
        raise _UsageError("--beta is required")
    const = constants_mod.solve_B(args.beta, args.m_ratio)
    resid = const.identity_residual()
    print(f"beta        {const.beta:.6g}")
    print(f"m_ratio     {const.m_ratio:.6g}")
    print(f"B           {const.B:.10f}")
    print(f"alpha       {const.alpha:.10f}")
    print(f"identity residual {resid:.3e}")
    _write_manifest(args)
    _write_csv(
        args.out_dir,
        "constants.csv",
        ["beta", "m_ratio", "B", "alpha", "identity_residual"],
        [[const.beta, const.m_ratio, const.B, const.alpha, resid]],
    )
    return EXIT_OK


def _envelope(p: Problem, args: argparse.Namespace, iterations: int,
              collect: Optional[list] = None):
    grid = fredholm.BoundaryGrid.uniform(p, args.nodes)
    cgrid = fredholm.CGrid.for_problem(p, args.cvals)
    env = bounds_mod.iterate(p, grid.nodes, cgrid, iterations, collect=collect)
    return grid, cgrid, env


def _write_plot(args: argparse.Namespace, B: float, grid, env, values) -> None:
    ref = _reference_curve(B, grid.nodes)
    _write_csv(
        args.out_dir,
        "plot.dat",
        ["y", "d", "d_lower", "d_upper", "reference"],
        zip(grid.nodes, values, env.lower.values, env.upper.values, ref),
    )
    gp = os.path.join(args.out_dir, "plot.gp")
    with open(gp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key top right\n"
            "set xlabel 'y'\nset ylabel 'd(y)'\n"
            "plot 'plot.dat' using 1:2 skip 1 with lines title 'boundary', \\\n"
            "     'plot.dat' using 1:3 skip 1 with lines title 'lower', \\\n"
            "     'plot.dat' using 1:4 skip 1 with lines title 'upper', \\\n"
            "     'plot.dat' using 1:5 skip 1 with lines title 'small-y reference'\n"
        )


def _print_convergence(report: solver.SolveReport) -> None:
    print(f"max normalized residual {report.max_residual:.3e}"
          f" (tolerance {solver.RESIDUAL_TOLERANCE:.0e})")
    print(f"convergence reason {report.convergence_reason},"
          f" polishes run: {report.polishes}")
    print(f"polish status {report.polish_status}, nfev {report.polish_nfev}")


def cmd_solve(args: argparse.Namespace) -> int:
    p = _get_problem(args)
    grid, cgrid, env = _envelope(p, args, args.iterations)
    report = solver.solve(p, cgrid, env, args.seed_mode)
    _write_manifest(args)
    _write_csv(
        args.out_dir,
        "boundary.csv",
        ["y", "d", "d_lower", "d_upper"],
        zip(grid.nodes, report.grid.values, env.lower.values, env.upper.values),
    )
    _write_csv(
        args.out_dir,
        "trace.csv",
        ["step", "objective"],
        enumerate(report.objective_trace),
    )
    rv = report.residual_vector
    _write_csv(
        args.out_dir,
        "residuals.csv",
        ["c", "residual", "penalty"],
        zip(rv.c_values, rv.residuals, rv.penalties),
    )
    _write_plot(args, _coefficient(p, report), grid, env, report.grid.values)
    try:
        fitted = solver.asymptotic_check(report, p)
        print(f"fitted small-y coefficient B = {fitted:.4f}")
    except (solver.NotConvergedError, solver.InsufficientDataError) as exc:
        print(f"asymptotic check unavailable: {exc}")
    print(f"objective {report.objective:.10f} (converged: {report.converged})")
    _print_convergence(report)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_bounds(args: argparse.Namespace) -> int:
    p = _get_problem(args)
    history: list = []
    _grid, _cgrid, env = _envelope(p, args, args.iterations, collect=history)
    _write_manifest(args)
    rows = []
    for e in history:
        for y, lo, up in zip(e.lower.nodes, e.lower.values, e.upper.values):
            rows.append([y, lo, up, e.iteration])
    _write_csv(args.out_dir, "envelope.csv", ["y", "d_lower", "d_upper", "iteration"], rows)
    print(f"final envelope max width {float(np.max(env.widths)):.6g}"
          f" after {env.iteration} iterations")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    p = _builtin_problem(args)
    ref = oracle.refined_boundary(p, args.t_min, args.t_steps, args.x_steps)
    _write_manifest(args)
    _write_csv(args.out_dir, "oracle_tb.csv", ["t", "b"],
               zip(ref.t_values, ref.boundary))
    if math.isfinite(p.b_inf):
        nodes = np.linspace(0.0, p.b_inf, args.nodes)
        dg, _trunc = oracle.extract_d(ref.coarse, nodes)
        _write_csv(args.out_dir, "oracle_yd.csv", ["y", "d"],
                   zip(dg.nodes, dg.values))
    print(f"b({args.t_min}) = {ref.boundary[0]:.6f}")
    return EXIT_OK


def cmd_residuals(args: argparse.Namespace) -> int:
    p = _get_problem(args)
    grid = fredholm.BoundaryGrid.uniform(p, args.nodes)
    cgrid = fredholm.CGrid.for_problem(p, args.cvals)
    if args.boundary:
        try:
            data = np.genfromtxt(args.boundary, delimiter=",", names=True)
        except OSError as exc:
            raise _UsageError(f"cannot read boundary CSV {args.boundary!r}: {exc}")
        grid = fredholm.BoundaryGrid(np.asarray(data["y"]), np.asarray(data["d"]))
    else:
        grid = grid.with_values(_reference_curve(_coefficient(p), grid.nodes))
    rv = fredholm.objective(p, grid, cgrid)
    _write_manifest(args)
    _write_csv(args.out_dir, "residuals.csv", ["c", "residual", "penalty"],
               zip(rv.c_values, rv.residuals, rv.penalties))
    print(f"objective {rv.objective:.10f} over {len(cgrid)} parameters")
    return EXIT_OK


def _check(name: str, value: float, tol: float, lines: list) -> bool:
    ok = value <= tol
    lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.6g} (tolerance {tol:.3g})")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    label = args.problem
    if label is None:
        raise _UsageError("verify requires --problem")
    if label == "american_put":
        # The put's lattice: a shorter horizon and a finer space grid.  The
        # manifest records the lattice that runs.
        args.t_min = max(args.t_min, -4.0)
        args.x_steps = max(args.x_steps, 3000)
    _write_manifest(args)
    lines: list = []
    all_ok = True
    if label == "stadje":
        alpha = constants_mod.stadje_alpha()
        worst = fredholm.verify_closed_form("stadje", [1.0, 2.0, 4.0])
        all_ok &= _check("closed-form boundary max residual", worst, 1e-5, lines)
        wrong = abs(fredholm.closed_form_residual(0.9, 1.0))
        all_ok &= _check("wrong-coefficient residual is detectable (>=0.01)",
                         0.01 / max(wrong, 1e-300), 1.0, lines)
        sign_change = (fredholm.closed_form_residual(alpha - 0.05, 1.0)
                       * fredholm.closed_form_residual(alpha + 0.05, 1.0))
        all_ok &= _check("residual changes sign across the root", sign_change, 0.0, lines)
    else:
        p = _builtin_problem(args)
        grid, cgrid, env = _envelope(p, args, 3)
        report = solver.solve(p, cgrid, env)
        if not report.converged:
            print("solver did not converge")
            _print_convergence(report)
            return EXIT_NO_CONVERGENCE
        ref = oracle.refined_boundary(p, args.t_min, args.t_steps, args.x_steps)
        d_lo, d_hi, trunc = oracle.d_intervals(ref, grid.nodes)
        d = report.grid.values[:-1]
        gap = np.maximum(np.maximum(d - d_hi, d_lo - d), 0.0)
        all_ok &= _check("max boundary gap vs reference (time units)",
                         float(gap[~trunc].max()), 3.0 * ref.dt, lines)
        fitted = solver.asymptotic_check(report, p, k=5)
        B = _coefficient(p, report)
        tol = 0.25 if label == "linear" else 0.35
        all_ok &= _check("small-y coefficient relative error",
                         abs(fitted - B) / B, tol, lines)
        if label == "linear":
            all_ok &= _check("deep-horizon boundary error vs b_inf",
                             abs(ref.boundary[0] - p.b_inf), 0.02, lines)
        else:
            root, _alpha = oracle.expiry_root(ref)
            all_ok &= _check("lattice root at expiry vs log(theta), normalized",
                             abs(root), _PUT_ROOT_TOL, lines)
    for ln in lines:
        print(ln)
    print("VERIFY " + ("PASSED" if all_ok else "FAILED"))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "constants": cmd_constants,
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "residuals": cmd_residuals,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values go before the command line's own flags, so those
            # win, and each is converted and checked by its own option.
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args) + argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # Only the commands that take a grid size check it.
        if getattr(args, "nodes", 2) < 2:
            raise _UsageError("--nodes must be >= 2")
        if getattr(args, "cvals", 1) < 1:
            raise _UsageError("--cvals must be >= 1")
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProblemFileError, ValueError, ToleranceNotMetError) as exc:
        # A problem file whose integrals the quadrature cannot take (a
        # weight past the float range) is a bad input, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
