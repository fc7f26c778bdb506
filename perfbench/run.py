"""stopbound pipeline benchmark: one workload per process.

    python3 perfbench/run.py --workload {solve,bounds,oracle,mc} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
caller issues the workload's operations back to back on a single thread
(a closed loop), repeating whole rounds until ``--seconds`` have passed.
Outputs are checked after the timed part.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Set-up is repeated this many times in a run; setup_s takes the median.
SETUP_REPEATS = 3
DEFAULT_SEED = 1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "bounds", "oracle", "mc"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stopbound", "__init__.py")):
        raise SystemExit(f"error: no stopbound package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import stopbound

    if os.path.dirname(os.path.dirname(os.path.abspath(stopbound.__file__))) != src:
        raise SystemExit(f"error: stopbound imported from {stopbound.__file__}, not {src}")
    import numpy as np
    import workloads

    return np, workloads


def main(argv=None) -> int:
    args = _parse(argv)
    np, workloads = import_program()
    import_s = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    build = workloads.WORKLOADS[args.workload]
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(np.random.default_rng(args.seed))
        build_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_s)

    run_dir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    op_s, round_s, done, errors = [], [], [], []

    def run_round(tag: str, phase: str) -> float:
        total = 0.0
        for i, op in enumerate(ops):
            workloads.reset_between_ops()
            gc.collect()
            if tracer:
                tracer.phase = phase
            t0 = time.perf_counter()
            try:
                output = op.run(os.path.join(run_dir, f"{tag}-{i:02d}"))
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.phase = "between"
            if phase == "op":
                op_s.append(elapsed)
            total += elapsed
            if isinstance(output, Exception):
                errors.append(f"{op.label}: {type(output).__name__}: {output}")
            else:
                done.append((op, output))
        return total

    t_start = time.perf_counter()
    while not round_s or time.perf_counter() - t_start < args.seconds:
        round_s.append(run_round(f"{len(round_s):03d}", "op"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(op_s), len(errors)

    if tracer:
        if tracer.needs_memory_round():
            tracer.trace_memory = True
            run_round("memory", "memory")
        tracer.uninstall()
    fails = []
    for op, output in done:
        fails += [f"{op.label}: {msg}" for msg in op.check(output)]
    for msg in errors + fails:
        print(msg, file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(len(round_s))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl.gz"))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload}: {len(round_s)} rounds of {len(ops)} operations,"
          f" round wall {statistics.median(round_s):.4f} s (median),"
          f" set-up {setup_s:.4f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
