"""Time stopbound commands end to end, each in a fresh interpreter.

Run from the repository root:

    python3 benchmarks/bench_commands.py [--src DIR ...]

Every run starts a new Python process that imports ``stopbound.cli`` from
``--src`` (default ``src``) and runs one command with its output in a
temporary directory, so each figure includes the interpreter's start and
every import the command makes.  The problem files two of the commands
read are written into a temporary directory of their own, in which every
command runs.  The commands run in rounds, one run of each per round (and,
with several ``--src`` trees, each tree in turn within a command), so that
a slow stretch of a shared machine falls on all of them alike.  For each
command the script reports the median over the rounds of the wall time and
of the child's peak resident set size (``ru_maxrss`` from ``os.wait4``),
and prints one JSON line.  A command that exits non-zero stops the run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Rounds; the reported figures are medians over them.
RUNS = 5

# Problem files, by file name: the linear problem as an expression, and a
# kinked one whose kink segment takes the adaptive quadrature.  Each
# transform of a problem file is an adaptive quadrature too.
PROBLEM_FILES = {
    "y.txt": "r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = y\n",
    "kinked.txt": "r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = max(y, 2*y - 0.3)\n",
}

# name -> CLI arguments, run in the directory of the problem files; ``None``
# only imports the package.
COMMANDS = {
    "import": None,
    "solve linear": ["solve", "--problem", "linear"],
    "solve put": ["solve", "--problem", "american_put", "--rho", "1", "--theta", "0.5"],
    "bounds": ["bounds", "--problem", "linear"],
    "oracle": ["oracle", "--problem", "linear", "--t-steps", "200", "--x-steps", "200"],
    "verify linear": ["verify", "--problem", "linear"],
    "verify put": ["verify", "--problem", "american_put", "--rho", "1", "--theta", "0.5"],
    "solve file y": ["solve", "--problem-file", "y.txt"],
    "bounds file kinked": ["bounds", "--problem-file", "kinked.txt"],
}

_SCRIPT = "import sys\nfrom stopbound.cli import main\nsys.exit(main(sys.argv[1:]))"


def run_once(src: str, argv, problem_dir: str) -> tuple:
    """Wall seconds and peak RSS in MB of one fresh process running ``argv`` in ``problem_dir``."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out_dir:
        if argv is None:
            cmd = [sys.executable, "-c", "import stopbound"]
        else:
            cmd = [sys.executable, "-c", _SCRIPT] + argv + ["--out-dir", out_dir]
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, cwd=problem_dir, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    # Reaped by wait4; recording the code stops Popen from waiting again.
    child.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(argv or ['import'])} (src {src}) exited {code}")
    return wall, usage.ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append",
                    help="source tree to import stopbound from (repeat to compare trees)")
    args = ap.parse_args()
    srcs = [str(Path(s).resolve()) for s in (args.src or [ROOT / "src"])]
    samples = {(s, name): [] for s in srcs for name in COMMANDS}
    with tempfile.TemporaryDirectory() as problem_dir:
        for file_name, text in PROBLEM_FILES.items():
            (Path(problem_dir) / file_name).write_text(text, encoding="utf-8")
        for _ in range(RUNS):
            for name, argv in COMMANDS.items():
                for src in srcs:
                    samples[src, name].append(run_once(src, argv, problem_dir))
    trees = [
        {
            "src": src,
            "commands": {
                name: {
                    "wall_s": round(statistics.median(w for w, _ in samples[src, name]), 4),
                    "peak_rss_mb": round(statistics.median(m for _, m in samples[src, name]), 1),
                }
                for name in COMMANDS
            },
        }
        for src in srcs
    ]
    print(json.dumps({"runs": RUNS, "python": sys.version.split()[0], "trees": trees}))


if __name__ == "__main__":
    main()
