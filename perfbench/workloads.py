"""The benchmark's workloads: inputs, operations and the checks on their outputs.

Each workload builds, from the seed, the list of operations that make up one
round.  Every run repeats whole rounds of the same operations, so outputs,
counts and the share of failed operations do not depend on the run length.
Operations call the program only through ``stopbound.cli.main`` (in process)
or the public library API, always looked up on the module at call time so a
traced run sees every call.

References are built after the timed part (``Op.check`` runs then) or read
from ``references/``, written by ``make_references.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import checks
from stopbound import cli, constants, fredholm, oracle, problem

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

# `solve` runs at half the CLI's default node count (60) with 15 kernel
# parameters: the default grid costs about 100 s a round, more than one
# benchmark run may take.  The put's solve is sensitive to the grid (at 30x20
# it misses the lattice check, see README.md); 30x15 meets every check.
SOLVE_GRID = ["--nodes", "30", "--cvals", "15"]
# Relative tolerance of the fitted small-y coefficient, as `stopbound verify`.
SOLVE_B_TOL = {"linear": 0.25, "american_put": 0.35}
PUT = {"rho": 1.0, "theta": 0.5}
# (label, t_min, t_steps, x_steps) as `stopbound verify` and the acceptance
# tests run the lattice.
ORACLE_RUNS = (("linear", -10.0, 2000, 2000), ("american_put", -4.0, 2000, 3000))
# `bounds` draws this many put parameter pairs per seed, Latin-hypercube over
# these ranges, where the lattice reference resolves the whole boundary.
BOUNDS_PAIRS = 6
BOUNDS_RHO = (0.5, 1.5)
BOUNDS_THETA = (0.4, 0.8)
# Lattice reference for `bounds`, (t_min, t_steps, x_steps) per problem.
BOUNDS_REF = {"linear": (-10.0, 500, 500), "american_put": (-4.0, 500, 750)}
# `mc`: stopping rules read off a lattice on [MC_T0, 0], valued from a few
# start points at the lattice's first time slice.
MC_T0 = -1.0
MC_LATTICE = (1000, 1000)
MC_STARTS = (-0.5, 0.0)
MC_PATHS = 20000
MC_STEPS = 2000
# Oracle check tolerances in the normalized coordinate.
PUT_ROOT_TOL = 0.015
PUT_LEVEL_TOL = 0.01


@dataclass
class Op:
    """One operation: ``run(out_dir)`` is timed, ``check(output)`` is not.

    ``reference()``, where given, returns the lattice reference the check
    compares against.
    """

    label: str
    run: Callable[[str], object]
    check: Callable[[object], List[str]]
    reference: Optional[Callable[[], Dict]] = None


class OpFailed(RuntimeError):
    """The program reported failure (a non-zero exit code)."""


def builtin_params(label: str) -> dict:
    """Parameters of the `linear` and default put problems."""
    return {} if label == "linear" else dict(PUT)


def _put_args(rho: float, theta: float) -> List[str]:
    return ["--problem", "american_put", "--rho", repr(rho), "--theta", repr(theta)]


def _problem_args(label: str) -> List[str]:
    return ["--problem", "linear"] if label == "linear" else _put_args(**PUT)


def _cli(argv: List[str]) -> Callable[[str], object]:
    def run(out_dir: str) -> str:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out-dir", out_dir])
        if rc != 0:
            raise OpFailed(f"stopbound {argv[0]} exited with {rc}")
        return out_dir

    return run


def read_csv(out_dir: str, name: str) -> np.ndarray:
    return np.atleast_1d(np.genfromtxt(os.path.join(out_dir, name), delimiter=",",
                                       names=True))


def load_reference(name: str) -> Dict:
    with open(os.path.join(REFERENCE_DIR, name + ".json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["t_values"] = np.linspace(ref["t_min"], 0.0, ref["t_steps"] + 1)
    ref["boundary"] = np.asarray(ref["boundary"], dtype=float)
    return ref


def _as_ref(refined) -> Dict:
    return {"t_values": np.asarray(refined.t_values), "boundary": np.asarray(refined.boundary),
            "dt": float(refined.dt), "dx": float(refined.dx)}


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def build_solve(rng: np.random.Generator) -> List[Op]:
    B = functools.cache(lambda: constants.solve_B(1.0, 1.0).B)
    ops = []
    for label in rng.permutation(["linear", "american_put"]):
        label = str(label)
        ref = functools.cache(lambda label=label: load_reference("solve_" + label))

        def check(out_dir, label=label, ref=ref):
            bd = read_csv(out_dir, "boundary.csv")
            res = read_csv(out_dir, "residuals.csv")
            return checks.check_solve(bd["y"], bd["d"], res["penalty"], int(SOLVE_GRID[3]),
                                      B(), SOLVE_B_TOL[label], ref())

        ops.append(Op(f"solve {label}", _cli(["solve"] + _problem_args(label) + SOLVE_GRID),
                      check, ref))
    return ops


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def bounds_pairs(rng: np.random.Generator, k: int = BOUNDS_PAIRS) -> List[tuple]:
    """``k`` (rho, theta) pairs, one in each row and column of a k-by-k grid."""
    u = (rng.permutation(k) + rng.random(k)) / k
    v = (rng.permutation(k) + rng.random(k)) / k
    rho = BOUNDS_RHO[0] + u * (BOUNDS_RHO[1] - BOUNDS_RHO[0])
    theta = BOUNDS_THETA[0] + v * (BOUNDS_THETA[1] - BOUNDS_THETA[0])
    return [(float(a), float(b)) for a, b in zip(rho, theta)]


def _bounds_op(label: str, params: dict, args: List[str]) -> Op:
    t_min, t_steps, x_steps = BOUNDS_REF[label]

    @functools.cache
    def ref():
        p = problem.builtin(label, **params)
        return _as_ref(oracle.refined_boundary(p, t_min, t_steps, x_steps))

    def check(out_dir: str) -> List[str]:
        env = read_csv(out_dir, "envelope.csv")
        rows = [env[env["iteration"] == i] for i in np.unique(env["iteration"])]
        return checks.check_envelopes(rows[0]["y"], [r["d_lower"] for r in rows],
                                      [r["d_upper"] for r in rows], ref())

    return Op(f"bounds {label} {params}", _cli(["bounds"] + args), check, ref)


def build_bounds(rng: np.random.Generator) -> List[Op]:
    jobs = [("linear", {}, ["--problem", "linear"])]
    jobs += [("american_put", {"rho": r, "theta": t}, _put_args(r, t))
             for r, t in bounds_pairs(rng)]
    return [_bounds_op(*jobs[i]) for i in rng.permutation(len(jobs))]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def build_oracle(rng: np.random.Generator) -> List[Op]:
    ops = []
    for i in rng.permutation(len(ORACLE_RUNS)):
        label, t_min, t_steps, x_steps = ORACLE_RUNS[i]

        def check(out_dir, label=label):
            tb = read_csv(out_dir, "oracle_tb.csv")
            yd = read_csv(out_dir, "oracle_yd.csv")
            fails = checks.boundary_shape(yd["y"], yd["d"], "oracle_yd")
            if label == "linear":
                return fails + checks.check_oracle_linear(tb["t"], tb["b"])
            return fails + checks.check_oracle_put(tb["t"], tb["b"], PUT["rho"], PUT["theta"],
                                                   PUT_ROOT_TOL, PUT_LEVEL_TOL)

        argv = ["oracle"] + _problem_args(label) + [
            "--t-min", repr(t_min), "--t-steps", str(t_steps), "--x-steps", str(x_steps)]
        ops.append(Op(f"oracle {label}", _cli(argv), check))
    return ops


# ----------------------------------------------------------------------
# mc
# ----------------------------------------------------------------------

def build_mc(rng: np.random.Generator) -> List[Op]:
    jobs = []
    for label in ("linear", "american_put"):
        p = problem.builtin(label, **builtin_params(label))
        grid = oracle.backward_induction(p, MC_T0, None, *MC_LATTICE)
        rule, _truncated = oracle.extract_d(grid, np.linspace(0.0, p.b_inf, 60))
        for x0 in MC_STARTS:
            jobs.append((label, p, rule, x0, float(np.interp(x0, grid.x_values, grid.value[0]))))
    seeds = np.random.SeedSequence(int(rng.integers(2**63))).generate_state(len(jobs))

    ops = []
    for i in rng.permutation(len(jobs)):
        label, p, rule, x0, value = jobs[i]

        def run(_out_dir, p=p, rule=rule, x0=x0, seed=int(seeds[i])):
            return oracle.mc_value(p, MC_T0, x0, rule, paths=MC_PATHS, rng_seed=seed,
                                   n_steps=MC_STEPS)

        @functools.cache
        def lattice_bias(p=p, x0=x0, value=value):
            # First-order size of the lattice's own error: its value against
            # a lattice with half the time steps.
            half = oracle.backward_induction(p, MC_T0, None, MC_LATTICE[0] // 2, MC_LATTICE[1])
            return abs(value - float(np.interp(x0, half.x_values, half.value[0])))

        def check(out, value=value, lattice_bias=lattice_bias):
            est, se = out
            return checks.check_mc(est, se, value, lattice_bias())

        ops.append(Op(f"mc {label} x0={x0}", run, check))
    return ops


WORKLOADS: Dict[str, Callable[[np.random.Generator], List[Op]]] = {
    "solve": build_solve,
    "bounds": build_bounds,
    "oracle": build_oracle,
    "mc": build_mc,
}


def reset_between_ops() -> None:
    """Empty the process-wide weight cache, where the program still has one.

    Every operation then tabulates its weights as a fresh process would,
    whatever ran before it.
    """
    clear = getattr(fredholm, "clear_weight_cache", None)
    if clear is not None:
        clear()

