"""Time stopbound commands end to end, each in a fresh interpreter.

Run from the repository root:

    python3 benchmarks/bench_commands.py [--src DIR ...]

Every run starts a new Python process that imports ``stopbound.cli`` from
``--src`` (default ``src``) and runs one command with its output in a
temporary directory, so each figure includes the interpreter's start and
every import the command makes.  The commands run in rounds, one run of
each per round (and, with several ``--src`` trees, each tree in turn
within a command), so that a slow stretch of a shared machine falls on all
of them alike.  For each command the script reports the median over the
rounds of the wall time and of the child's peak resident set size
(``ru_maxrss`` from ``os.wait4``), and prints one JSON line.  A command
that exits non-zero stops the run.
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

# name -> CLI arguments; ``None`` only imports the package.
COMMANDS = {
    "import": None,
    "solve linear": ["solve", "--problem", "linear"],
    "solve put": ["solve", "--problem", "american_put", "--rho", "1", "--theta", "0.5"],
    "bounds": ["bounds", "--problem", "linear"],
    "oracle": ["oracle", "--problem", "linear", "--t-steps", "200", "--x-steps", "200"],
    "verify linear": ["verify", "--problem", "linear"],
}

_SCRIPT = "import sys\nfrom stopbound.cli import main\nsys.exit(main(sys.argv[1:]))"


def run_once(src: str, argv) -> tuple:
    """Wall seconds and peak RSS in MB of one fresh process running ``argv``."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out_dir:
        if argv is None:
            cmd = [sys.executable, "-c", "import stopbound"]
        else:
            cmd = [sys.executable, "-c", _SCRIPT] + argv + ["--out-dir", out_dir]
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
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
    for _ in range(RUNS):
        for name, argv in COMMANDS.items():
            for src in srcs:
                samples[src, name].append(run_once(src, argv))
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
