"""Report which outputs of stopbound's commands moved between two source trees.

Run from the repository root:

    python3 benchmarks/outputs.py --src A --src B

Each case of a fixed list, over the builtin problems and two problem files
the script writes, runs once per tree, in a new Python process that
imports ``stopbound.cli`` from ``--src`` and writes into a temporary
directory of its own.  For every case the script compares the exit codes,
stdout and each file written.  A file is identical or it is not; a CSV
that is not reports, per column, the largest absolute and relative
difference over the rows both trees wrote (and both row counts when they
differ).  Manifests are compared without their ``out_dir`` line, which
names the temporary directory.  It prints one JSON line and exits 0 whether
or not anything moved, since a change may intend a move.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_SCRIPT = "import sys\nfrom stopbound.cli import main\nsys.exit(main(sys.argv[1:]))"

PROBLEMS = {
    "linear": ["--problem", "linear"],
    "put(1,0.5)": ["--problem", "american_put", "--rho", "1", "--theta", "0.5"],
    "put(0.6,0.45)": ["--problem", "american_put", "--rho", "0.6", "--theta", "0.45"],
    "put(1,0.75)": ["--problem", "american_put", "--rho", "1", "--theta", "0.75"],
}
# (nodes, kernel parameters) of the solve and bounds cases.
GRIDS = ((12, 8), (30, 15), (60, 40))
# Problem files, written into a temporary directory shared by both trees:
# the linear problem as an expression, and a kinked one whose kink segment
# takes the adaptive quadrature.
PROBLEM_FILES = {
    "file y": "r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = y\n",
    "file kinked": "r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = max(y, 2*y - 0.3)\n",
}


def _verify_lattice(name: str) -> list:
    """The lattice ``verify`` runs for a problem (see ``cli.cmd_verify``)."""
    if name == "linear":
        return ["--t-min", "-10", "--t-steps", "2000", "--x-steps", "2000"]
    return ["--t-min", "-4", "--t-steps", "2000", "--x-steps", "3000"]


def write_problem_files(directory: str) -> dict:
    """Write :data:`PROBLEM_FILES` into ``directory``; name -> CLI arguments."""
    problems = {}
    for i, (name, text) in enumerate(PROBLEM_FILES.items()):
        path = Path(directory) / f"problem{i}.txt"
        path.write_text(text, encoding="utf-8")
        problems[name] = ["--problem-file", str(path)]
    return problems


def cases(problem_files: dict) -> dict:
    """Case name -> CLI arguments; ``problem_files`` from :func:`write_problem_files`."""
    out = {}
    for name, problem in PROBLEMS.items():
        for n, m in GRIDS:
            size = ["--nodes", str(n), "--cvals", str(m)]
            for seed in ("asymptotic", "envelope_midpoint"):
                out[f"solve {name} {n}x{m} {seed}"] = ["solve", *problem, *size, "--seed-mode", seed]
            out[f"bounds {name} {n}x{m}"] = ["bounds", *problem, *size]
    for name in ("linear", "put(1,0.5)"):
        out[f"residuals {name}"] = ["residuals", *PROBLEMS[name]]
    for name, problem in problem_files.items():
        for n, m in GRIDS:
            size = ["--nodes", str(n), "--cvals", str(m)]
            out[f"solve {name} {n}x{m}"] = ["solve", *problem, *size]
            out[f"bounds {name} {n}x{m}"] = ["bounds", *problem, *size]
        out[f"residuals {name}"] = ["residuals", *problem]
    for beta in ("0", "1", "2"):
        out[f"constants beta={beta}"] = ["constants", "--beta", beta]
    for name, problem in PROBLEMS.items():
        out[f"oracle {name} 200x200"] = ["oracle", *problem, "--t-steps", "200", "--x-steps", "200"]
        out[f"oracle {name} verify lattice"] = ["oracle", *problem, *_verify_lattice(name)]
    out["verify stadje"] = ["verify", "--problem", "stadje"]
    for name, problem in PROBLEMS.items():
        out[f"verify {name}"] = ["verify", *problem]
    return out


def run_case(src: str, argv: list) -> tuple:
    """Exit code, stdout and the files (name -> bytes) of one fresh run of ``argv``."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out_dir:
        cmd = [sys.executable, "-c", _SCRIPT] + argv + ["--out-dir", out_dir]
        child = subprocess.run(cmd, env=env, capture_output=True, text=True)
        files = {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}
    return child.returncode, child.stdout, files


def _without_out_dir(manifest: bytes) -> bytes:
    return b"".join(ln for ln in manifest.splitlines(True) if not ln.startswith(b"out_dir="))


def _number(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        return math.nan


def _json_float(x: float):
    return x if math.isfinite(x) else repr(x)


def csv_moves(a: bytes, b: bytes) -> dict:
    """Per column, the largest absolute and relative difference of two CSVs."""
    ra = list(csv.reader(io.StringIO(a.decode())))
    rb = list(csv.reader(io.StringIO(b.decode())))
    out = {}
    if ra[0] != rb[0]:
        out["header"] = [ra[0], rb[0]]
    if len(ra) != len(rb):
        out["rows"] = [len(ra) - 1, len(rb) - 1]
    columns = {}
    for j, name in enumerate(ra[0][: len(rb[0])]):
        worst_abs = worst_rel = 0.0
        for row_a, row_b in zip(ra[1:], rb[1:]):
            x, y = _number(row_a[j]), _number(row_b[j])
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y)
            diff = diff if not math.isnan(diff) else math.inf
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
        if worst_abs > 0.0:
            columns[name] = {"abs": _json_float(worst_abs), "rel": _json_float(worst_rel)}
    if columns:
        out["columns"] = columns
    return out


def compare(run_a: tuple, run_b: tuple) -> dict:
    """What moved from one run of a case to the other; empty when nothing did."""
    (code_a, out_a, files_a), (code_b, out_b, files_b) = run_a, run_b
    moved = {}
    if code_a != code_b:
        moved["exit"] = [code_a, code_b]
    lines_a, lines_b = out_a.splitlines(), out_b.splitlines()
    if lines_a != lines_b:
        n = max(len(lines_a), len(lines_b))
        lines_a += [None] * (n - len(lines_a))
        lines_b += [None] * (n - len(lines_b))
        moved["stdout"] = [[x, y] for x, y in zip(lines_a, lines_b) if x != y]
    files = {}
    for name in sorted(files_a.keys() | files_b.keys()):
        a, b = files_a.get(name), files_b.get(name)
        if a is None or b is None:
            files[name] = "only in " + ("B" if a is None else "A")
        elif name == "manifest.txt":
            if _without_out_dir(a) != _without_out_dir(b):
                files[name] = "differs"
        elif a != b:
            files[name] = csv_moves(a, b) if name.endswith((".csv", ".dat")) else "differs"
    if files:
        moved["files"] = files
    return moved


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="source tree to import stopbound from (give two)")
    args = ap.parse_args()
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    srcs = [str(Path(s).resolve()) for s in args.src]
    moves, n_files, n_identical = {}, 0, 0
    with tempfile.TemporaryDirectory() as problem_dir:
        case_list = cases(write_problem_files(problem_dir))
        for name, argv in case_list.items():
            run_a, run_b = (run_case(src, argv) for src in srcs)
            moved = compare(run_a, run_b)
            names = run_a[2].keys() | run_b[2].keys()
            n_files += len(names)
            n_identical += len(names - moved.get("files", {}).keys())
            if moved:
                moves[name] = moved
    print(json.dumps({
        "src": srcs,
        "cases": len(case_list),
        "files": n_files,
        "identical_files": n_identical,
        "moved_cases": len(moves),
        "moves": moves,
    }))


if __name__ == "__main__":
    main()
