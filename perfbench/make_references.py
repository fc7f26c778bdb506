"""Regenerate the stored lattice references of the `solve` workload.

    python3 perfbench/make_references.py

Run from the repository root.  Writes ``references/solve_<problem>.json``:
the Richardson-refined lattice boundary ``b(t)`` from
``stopbound.oracle.refined_boundary`` at the resolutions of the `oracle`
workload, which are those `stopbound verify` uses (about 10 s on one core).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from stopbound import oracle  # noqa: E402
from stopbound.problem import builtin  # noqa: E402


def main() -> None:
    for label, t_min, t_steps, x_steps in workloads.ORACLE_RUNS:
        params = workloads.builtin_params(label)
        ref = oracle.refined_boundary(builtin(label, **params), t_min, t_steps, x_steps)
        data = {
            "problem": label, "params": params, "t_min": t_min, "t_steps": t_steps,
            "x_steps": x_steps, "dt": ref.dt, "dx": ref.dx,
            "boundary": [float(b) for b in ref.boundary],
        }
        path = os.path.join(HERE, "references", f"solve_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
