"""The benchmark's own tests: every check accepts real outputs and rejects wrong ones.

    python3 perfbench/selftest.py            # all workloads, about 60 s
    python3 perfbench/selftest.py -k bounds  # unittest's name filter

Run from the repository root.  Each workload's operations run once (seed 1)
through the same code the benchmark times; the tests then feed the checks
the real outputs and deliberately wrong copies of them (a shifted boundary,
swapped envelope sides, an estimate far from the lattice value, ...).
The file is not named ``test_*.py``, so the package's pytest suite does not
collect it.
"""

import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

np, workloads = run.import_program()
import checks  # noqa: E402
from stopbound import constants  # noqa: E402

_OUT = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
_OUTPUTS = {}


def outputs(workload):
    """``[(op, output)]`` of one round of ``workload``, run once per process."""
    if workload not in _OUTPUTS:
        ops = workloads.WORKLOADS[workload](np.random.default_rng(run.DEFAULT_SEED))
        done = []
        for i, op in enumerate(ops):
            workloads.reset_between_ops()
            done.append((op, op.run(os.path.join(_OUT, f"{workload}-{i:02d}"))))
        _OUTPUTS[workload] = done
    return _OUTPUTS[workload]


def tearDownModule():
    shutil.rmtree(_OUT, ignore_errors=True)


def _csv(out_dir, name):
    return workloads.read_csv(out_dir, name)


class SolveChecks(unittest.TestCase):
    def setUp(self):
        self.cases = []
        B = constants.solve_B(1.0, 1.0).B
        for op, out_dir in outputs("solve"):
            label = op.label.split()[1]
            bd, res = _csv(out_dir, "boundary.csv"), _csv(out_dir, "residuals.csv")
            ref = op.reference()
            self.cases.append((op, out_dir, bd["y"], bd["d"].copy(), res["penalty"].copy(),
                               B, workloads.SOLVE_B_TOL[label], ref))

    def check(self, y, d, pen, B, tol, ref):
        return checks.check_solve(y, d, pen, int(workloads.SOLVE_GRID[3]), B, tol, ref)

    def test_real_output_passes(self):
        for op, out_dir, *_ in self.cases:
            self.assertEqual(op.check(out_dir), [], op.label)

    def test_shifted_boundary_rejected(self):
        for _op, _dir, y, d, pen, B, tol, ref in self.cases:
            shifted = d.copy()
            shifted[1:] -= 10.0 * ref["dt"]
            self.assertTrue(any("segment gap" in m for m in self.check(y, shifted, pen, B, tol, ref)))

    def test_shape_violations_rejected(self):
        for _op, _dir, y, d, pen, B, tol, ref in self.cases:
            for bad in (np.r_[-1e-3, d[1:]], np.r_[d[:-1], 1e-3], np.r_[d[:5], d[5] + 0.1, d[6:]]):
                self.assertNotEqual(self.check(y, bad, pen, B, tol, ref), [])

    def test_objective_off_target_rejected(self):
        for _op, _dir, y, d, pen, B, tol, ref in self.cases:
            fails = self.check(y, d, pen * 1.02, B, tol, ref)
            self.assertTrue(any("objective" in m for m in fails))
            self.assertTrue(any("residuals" in m for m in self.check(y, d, pen[:-1], B, tol, ref)))

    def test_wrong_small_y_coefficient_rejected(self):
        for _op, _dir, y, d, pen, B, tol, ref in self.cases:
            steep = d.copy()
            steep[1:6] *= 2.0
            self.assertTrue(any("fitted B" in m for m in self.check(y, steep, pen, B, tol, ref)))


class BoundsChecks(unittest.TestCase):
    def setUp(self):
        self.cases = []
        for op, out_dir in outputs("bounds"):
            env = _csv(out_dir, "envelope.csv")
            rows = [env[env["iteration"] == i] for i in np.unique(env["iteration"])]
            ref = op.reference()
            self.cases.append((op, out_dir, rows[0]["y"], [r["d_lower"].copy() for r in rows],
                               [r["d_upper"].copy() for r in rows], ref))

    def test_real_output_passes(self):
        for op, out_dir, *_ in self.cases:
            self.assertEqual(op.check(out_dir), [], op.label)

    def test_swapped_sides_rejected(self):
        for _op, _dir, y, lo, up, ref in self.cases:
            fails = checks.check_envelopes(y, up, lo, ref)
            self.assertTrue(any("lower above upper" in m for m in fails))

    def test_loosened_envelope_rejected(self):
        for _op, _dir, y, lo, up, ref in self.cases:
            looser = [v.copy() for v in lo]
            looser[-1][1:] = looser[-2][1:] - 0.01
            fails = checks.check_envelopes(y, looser, up, ref)
            self.assertTrue(any("loosens" in m for m in fails))

    def test_shifted_envelope_misses_lattice(self):
        for _op, _dir, y, lo, up, ref in self.cases:
            shift = 5.0 * ref["dt"]
            fails = checks.check_envelopes(y, [v - shift for v in lo],
                                           [np.minimum(v - shift, 0.0) for v in lo], ref)
            self.assertTrue(any("misses the lattice" in m for m in fails))

    def test_positive_upper_rejected(self):
        for _op, _dir, y, lo, up, ref in self.cases:
            bad = [v.copy() for v in up]
            bad[0][3] = 1e-3
            self.assertTrue(any("positive upper" in m for m in checks.check_envelopes(y, lo, bad, ref)))


class OracleChecks(unittest.TestCase):
    def setUp(self):
        self.cases = {op.label.split()[1]: (op, out_dir, _csv(out_dir, "oracle_tb.csv"))
                      for op, out_dir in outputs("oracle")}

    def test_real_output_passes(self):
        for op, out_dir, _tb in self.cases.values():
            self.assertEqual(op.check(out_dir), [], op.label)

    def test_shifted_linear_level_rejected(self):
        tb = self.cases["linear"][2]
        self.assertNotEqual(checks.check_oracle_linear(tb["t"], tb["b"] + 0.05), [])

    def test_shifted_put_boundary_rejected(self):
        tb = self.cases["american_put"][2]
        p = workloads.PUT
        fails = checks.check_oracle_put(tb["t"], tb["b"] + 0.05, p["rho"], p["theta"],
                                        workloads.PUT_ROOT_TOL, workloads.PUT_LEVEL_TOL)
        self.assertTrue(any("root" in m for m in fails))
        self.assertTrue(any("b_inf" in m for m in fails))

    def test_wrong_put_parameters_rejected(self):
        tb = self.cases["american_put"][2]
        fails = checks.check_oracle_put(tb["t"], tb["b"], 1.0, 0.6,
                                        workloads.PUT_ROOT_TOL, workloads.PUT_LEVEL_TOL)
        self.assertTrue(any("b_inf" in m for m in fails))

    def test_reversed_time_rejected(self):
        tb = self.cases["linear"][2]
        self.assertNotEqual(checks.check_oracle_linear(tb["t"][::-1], tb["b"][::-1]), [])

    def test_bad_time_over_space_boundary_rejected(self):
        _op, out_dir, _tb = self.cases["linear"]
        yd = _csv(out_dir, "oracle_yd.csv")
        self.assertNotEqual(checks.boundary_shape(yd["y"], -yd["d"], "oracle_yd"), [])


class McChecks(unittest.TestCase):
    def test_real_output_passes(self):
        for op, out in outputs("mc"):
            self.assertEqual(op.check(out), [], op.label)

    def test_estimate_far_from_lattice_rejected(self):
        for op, (est, se) in outputs("mc"):
            self.assertNotEqual(op.check((est + 10.0 * se, se)), [], op.label)
            self.assertNotEqual(op.check((est, 0.0)), [], op.label)


if __name__ == "__main__":
    unittest.main()
