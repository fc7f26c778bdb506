"""Command-line interface: exit codes, CSV artifacts and reproducibility."""

import csv
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from stopbound import cli, constants, oracle, solver


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_problem_file(self, tmp_path, capsys):
        rc = cli.main(
            ["solve", "--problem-file", "/no/such/file", "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_USAGE

    def test_problem_file_call_arity(self, tmp_path, capsys):
        # A call with the wrong argument count is an error line at load
        # time, not a traceback at the first quadrature.
        path = tmp_path / "prob.txt"
        path.write_text("r = 1\nb_inf = 0.7\nhtilde_expr = exp()\n", encoding="utf-8")
        rc = cli.main(
            ["solve", "--problem-file", str(path), "--nodes", "8", "--cvals", "4",
             "--out-dir", str(tmp_path)]
        )
        assert rc != cli.EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "exp() cannot take 0 argument(s)" in err

    def test_missing_problem(self, tmp_path, capsys):
        rc = cli.main(["solve", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    def test_version(self, capsys):
        assert cli.main(["--version"]) == cli.EXIT_OK


class TestConstants:
    def test_table_and_csv(self, tmp_path, capsys):
        rc = cli.main(["constants", "--beta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "2.4503" in out
        header, rows = _read_csv(tmp_path / "constants.csv")
        assert "B" in header
        assert len(rows) == 1
        assert float(rows[0][header.index("B")]) == pytest.approx(2.4503, abs=1e-3)
        assert (tmp_path / "manifest.txt").exists()

    def test_manifest_replays_the_run(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["constants", "--beta", "1.0", "--out-dir", str(first)]) == cli.EXIT_OK
        rc = cli.main(["constants", "--config", str(first / "manifest.txt"),
                       "--out-dir", str(second)])
        assert rc == cli.EXIT_OK
        assert (first / "constants.csv").read_bytes() == (second / "constants.csv").read_bytes()

    def test_missing_beta(self, tmp_path, capsys):
        rc = cli.main(["constants", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "error: --beta is required" in capsys.readouterr().err
        assert not (tmp_path / "constants.csv").exists()


class TestResiduals:
    def test_reference_curve(self, tmp_path, capsys):
        rc = cli.main(
            ["residuals", "--problem", "linear", "--nodes", "20", "--cvals", "8",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        header, rows = _read_csv(tmp_path / "residuals.csv")
        assert header == ["c", "residual", "penalty"]
        assert len(rows) == 8

    def test_boundary_csv_input(self, tmp_path, capsys):
        # feed its own reference output back through the boundary reader
        nodes = np.linspace(0.0, np.sqrt(0.5), 20)
        path = tmp_path / "b.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "d"])
            for y, d in zip(nodes, -2.45 * nodes**2):
                w.writerow([repr(float(y)), repr(float(d))])
        rc = cli.main(
            ["residuals", "--problem", "linear", "--cvals", "8",
             "--boundary", str(path), "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK


class TestBounds:
    def test_envelope_csv(self, tmp_path, capsys):
        rc = cli.main(
            ["bounds", "--problem", "linear", "--nodes", "16", "--cvals", "8",
             "--iterations", "2", "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        header, rows = _read_csv(tmp_path / "envelope.csv")
        assert header == ["y", "d_lower", "d_upper", "iteration"]
        iters = sorted({int(r[3]) for r in rows})
        assert iters == [0, 1, 2]
        for r in rows:
            assert float(r[1]) <= float(r[2]) + 1e-12

    def test_large_kernel_parameters_keep_an_open_envelope(self, tmp_path, capsys):
        # With 200 kernel parameters an upper step that floors each segment
        # by its left node's lower bound finds every probe infeasible and
        # collapses the envelope onto its lower bound: width 0.
        rc = cli.main(
            ["bounds", "--problem", "linear", "--nodes", "60", "--cvals", "200",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        assert "final envelope max width 48.999 after 3 iterations" in capsys.readouterr().out


class TestSolve:
    def test_small_run_artifacts(self, tmp_path, capsys):
        rc = cli.main(
            ["solve", "--problem", "linear", "--nodes", "12", "--cvals", "8",
             "--iterations", "1", "--out-dir", str(tmp_path)]
        )
        assert rc in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
        for name in ("boundary.csv", "trace.csv", "residuals.csv",
                     "plot.dat", "plot.gp", "manifest.txt"):
            assert (tmp_path / name).exists(), name
        header, rows = _read_csv(tmp_path / "boundary.csv")
        assert header == ["y", "d", "d_lower", "d_upper"]
        assert len(rows) == 12
        d = np.array([float(r[1]) for r in rows])
        assert d[0] == 0.0
        assert np.all(np.diff(d) <= 1e-12)

    def test_prints_convergence(self, tmp_path, capsys):
        rc = cli.main(
            ["solve", "--problem", "linear", "--nodes", "20", "--cvals", "10",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "max normalized residual" in out
        assert "convergence reason residual_bound, polishes run: 1" in out
        assert "polish status" in out

    def test_unconverged_trace_ends_at_the_printed_objective(self, tmp_path, capsys):
        # Both polishes of the put (1, 0.75) at 12 x 8 miss, and the boundary
        # they leave sits above its seed's objective.
        rc = cli.main(
            ["solve", "--problem", "american_put", "--theta", "0.75", "--nodes", "12",
             "--cvals", "8", "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_NO_CONVERGENCE
        out = capsys.readouterr().out
        _header, rows = _read_csv(tmp_path / "trace.csv")
        seed, final = (float(r[1]) for r in rows)
        assert f"objective {final:.10f} (converged: False)" in out
        assert final > seed

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_one_root_find_per_solve(self, command, tmp_path, capsys, monkeypatch):
        # The plot's small-y reference and verify's B check reuse the B of
        # the solver's prior.
        solve_B = constants.solve_B
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_B(*args, **kwargs)

        monkeypatch.setattr(constants, "solve_B", counted)
        monkeypatch.setattr(solver, "solve_B", counted)
        lattice = ["--t-steps", "400", "--x-steps", "400"] if command == "verify" else []
        rc = cli.main(
            [command, "--problem", "linear", "--nodes", "20", "--cvals", "10",
             "--out-dir", str(tmp_path)] + lattice
        )
        assert rc in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
        assert len(calls) == 1
        if command == "solve":
            _header, rows = _read_csv(tmp_path / "plot.dat")
            B = solve_B(1.0, 1.0).B
            y = np.array([float(r[0]) for r in rows])
            assert [r[4] for r in rows] == [repr(float(v)) for v in -B * y * y]

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_unconverged_exit_code(self, command, tmp_path, capsys, monkeypatch):
        # No polished point can meet a zero residual bound, so both seeds'
        # polishes miss and the solve ends unconverged.
        monkeypatch.setattr(solver, "RESIDUAL_TOLERANCE", 0.0)
        rc = cli.main(
            [command, "--problem", "linear", "--nodes", "12", "--cvals", "8",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_NO_CONVERGENCE
        assert "convergence reason polish_missed, polishes run: 2" in capsys.readouterr().out


class TestOracle:
    def test_small_run(self, tmp_path, capsys):
        rc = cli.main(
            ["oracle", "--problem", "linear", "--t-min", "-1.0",
             "--t-steps", "64", "--x-steps", "64", "--nodes", "10",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        header, rows = _read_csv(tmp_path / "oracle_tb.csv")
        assert header == ["t", "b"]
        assert (tmp_path / "oracle_yd.csv").exists()

    def test_coarse_lattice_runs_once(self, tmp_path, monkeypatch, capsys):
        # oracle_yd.csv is read off the coarse lattice of the refined
        # boundary: the command runs the coarse and the fine lattice only.
        runs = []
        lattice = oracle.backward_induction

        def counted(*args, **kwargs):
            runs.append(args)
            return lattice(*args, **kwargs)

        monkeypatch.setattr(oracle, "backward_induction", counted)
        rc = cli.main(
            ["oracle", "--problem", "linear", "--t-min", "-1.0",
             "--t-steps", "64", "--x-steps", "64", "--nodes", "10",
             "--out-dir", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        assert len(runs) == 2
        p, nodes = runs[0][0], np.linspace(0.0, runs[0][0].b_inf, 10)
        dg, _ = oracle.extract_d(lattice(p, -1.0, None, 64, 64), nodes)
        header, rows = _read_csv(tmp_path / "oracle_yd.csv")
        assert header == ["y", "d"]
        expected = [[repr(float(y)), repr(float(d))] for y, d in zip(dg.nodes, dg.values)]
        assert rows == expected


class TestLatticeCommands:
    """``oracle`` and ``verify`` take builtin problems only: the lattice needs a payoff."""

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_problem_file_is_a_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "prob.txt"
        path.write_text("r = 1\nb_inf = 0.7\nhtilde_expr = 2*y - 1\n", encoding="utf-8")
        rc = cli.main([command, "--problem", "linear", "--problem-file", str(path),
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "unrecognized arguments: --problem-file" in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    def test_old_oracle_manifest_with_problem_file_replays(self, tmp_path, capsys):
        # Oracle manifests once named problem_file; the key is skipped on
        # replay, whatever its value.
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["oracle", "--problem", "linear", "--t-min", "-1.0", "--t-steps", "64",
                "--x-steps", "64", "--nodes", "10"]
        assert cli.main(argv + ["--out-dir", str(first)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        manifest = (first / "manifest.txt").read_text()
        assert "\nproblem_file=" not in manifest
        cfg = tmp_path / "run.cfg"
        cfg.write_text(manifest + "problem_file=/no/such/file\n")
        assert cli.main(["oracle", "--config", str(cfg), "--out-dir", str(second)]) == cli.EXIT_OK
        assert capsys.readouterr().out == out
        for name in ("oracle_tb.csv", "oracle_yd.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_verify_manifest_records_the_put_lattice_and_replays(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        # 200 steps leave two slices in the expiry-root window, the fewest it fits.
        rc = cli.main(["verify", "--problem", "american_put", "--t-min", "-10",
                       "--t-steps", "200", "--out-dir", str(first)])
        out = capsys.readouterr().out
        assert rc in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
        manifest = (first / "manifest.txt").read_text()
        assert "\nt_min=-4.0\n" in manifest and "\nx_steps=3000\n" in manifest
        replay = cli.main(["verify", "--config", str(first / "manifest.txt"),
                           "--out-dir", str(second)])
        assert replay == rc
        assert capsys.readouterr().out == out
        assert (second / "manifest.txt").read_text() == manifest.replace(str(first), str(second))


class TestVerifyPut:
    def test_prints_the_measured_expiry_root(self, put_oracle, tmp_path, capsys):
        # verify's put lattice is the put_oracle fixture's (-4, 2000 x 3000).
        rc = cli.main(["verify", "--problem", "american_put", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        root, _alpha = oracle.expiry_root(put_oracle.ref)
        assert root == pytest.approx(0.0057, abs=1e-4)
        assert (f"PASS  lattice root at expiry vs log(theta), normalized: {abs(root):.6g}"
                " (tolerance 0.015)") in out
        assert rc == cli.EXIT_OK


class TestConfigAndManifest:
    def test_config_defaults_and_explicit_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = linear\nnodes = 20\ncvals = 8\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        rc1 = cli.main(
            ["residuals", "--config", str(cfg), "--out-dir", str(out1)]
        )
        # explicit flag beats the config file
        rc2 = cli.main(
            ["residuals", "--config", str(cfg), "--cvals", "4",
             "--out-dir", str(out2)]
        )
        assert rc1 == rc2 == cli.EXIT_OK
        assert len(_read_csv(out1 / "residuals.csv")[1]) == 8
        assert len(_read_csv(out2 / "residuals.csv")[1]) == 4

    def test_manifest_reproducibility(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = linear\nnodes = 16\ncvals = 6\n")
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert (
                cli.main(["residuals", "--config", str(cfg), "--out-dir", str(out)])
                == cli.EXIT_OK
            )
            outs.append(out)
        a = (outs[0] / "residuals.csv").read_bytes()
        b = (outs[1] / "residuals.csv").read_bytes()
        assert a == b
        ma = (outs[0] / "manifest.txt").read_text().replace(str(outs[0]), "OUT")
        mb = (outs[1] / "manifest.txt").read_text().replace(str(outs[1]), "OUT")
        assert ma == mb

    def test_tolerance_manifest_round_trip(self, tmp_path, capsys):
        # A manifest names every option, and one passed back reproduces the
        # run; an older manifest may name options since removed (tolerance,
        # seed), which replay skips.
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["solve", "--problem", "linear", "--nodes", "12", "--cvals", "8"]
        rc1 = cli.main(argv + ["--out-dir", str(first)])
        manifest = (first / "manifest.txt").read_text()
        assert "\ntolerance=" not in manifest
        cfg = tmp_path / "run.cfg"
        cfg.write_text(manifest + "tolerance=1e-08\nseed=0\n")
        rc2 = cli.main(["solve", "--config", str(cfg), "--out-dir", str(second)])
        assert rc1 == rc2 == cli.EXIT_OK
        for name in ("boundary.csv", "trace.csv", "residuals.csv", "plot.dat"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert (second / "manifest.txt").read_text() == manifest.replace(str(first), str(second))

    def test_old_constants_manifest_replays(self, tmp_path, capsys):
        # constants manifests once named the problem and grid options.
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["constants", "--beta", "0.5", "--m-ratio", "2",
                         "--out-dir", str(first)]) == cli.EXIT_OK
        manifest = (first / "manifest.txt").read_text()
        assert "\nnodes=" not in manifest and "\nproblem=" not in manifest
        cfg = tmp_path / "run.cfg"
        cfg.write_text(manifest + "cvals=40\nnodes=60\nproblem=\nproblem_file=\n"
                       "rho=1.0\ntheta=0.5\ntolerance=\n")
        assert cli.main(["constants", "--config", str(cfg),
                         "--out-dir", str(second)]) == cli.EXIT_OK
        assert (first / "constants.csv").read_bytes() == (second / "constants.csv").read_bytes()

    # The flags each command reads, with a valid value for each.
    FLAG_VALUES = {
        "--beta": "1", "--m-ratio": "1", "--problem": "linear", "--problem-file": "p.txt",
        "--rho": "1", "--theta": "0.5", "--nodes": "10", "--cvals": "4", "--iterations": "1",
        "--seed-mode": "asymptotic", "--t-min": "-1", "--t-steps": "64", "--x-steps": "64",
        "--boundary": "b.csv", "--out-dir": ".", "--config": "run.cfg",
    }
    BUILTIN_FLAGS = ("--problem", "--rho", "--theta", "--nodes")
    PROBLEM_FLAGS = BUILTIN_FLAGS + ("--problem-file",)
    OUTPUT_FLAGS = ("--out-dir", "--config")
    COMMAND_FLAGS = {
        "constants": ("--beta", "--m-ratio") + OUTPUT_FLAGS,
        "solve": PROBLEM_FLAGS + ("--cvals", "--iterations", "--seed-mode") + OUTPUT_FLAGS,
        "bounds": PROBLEM_FLAGS + ("--cvals", "--iterations") + OUTPUT_FLAGS,
        "verify": BUILTIN_FLAGS + ("--cvals", "--t-min", "--t-steps", "--x-steps")
        + OUTPUT_FLAGS,
        "oracle": BUILTIN_FLAGS + ("--t-min", "--t-steps", "--x-steps") + OUTPUT_FLAGS,
        "residuals": PROBLEM_FLAGS + ("--cvals", "--boundary") + OUTPUT_FLAGS,
    }

    def test_each_command_takes_the_flags_it_reads(self):
        parser = cli._build_parser()
        for command, flags in self.COMMAND_FLAGS.items():
            argv = [command]
            for flag in flags:
                argv += [flag, self.FLAG_VALUES[flag]]
            args = parser.parse_args(argv)
            assert len(vars(args)) == len(flags) + 1, command  # and the subcommand

    def test_t_min_only_where_a_lattice_runs(self, tmp_path, capsys):
        # Every command rejects, as a usage error, each flag it does not read:
        # --t-min outside verify and oracle, and --tolerance everywhere.
        for command, flags in self.COMMAND_FLAGS.items():
            others = [f for f in self.FLAG_VALUES if f not in flags] + ["--tolerance"]
            assert ("--t-min" in others) == (command not in ("verify", "oracle"))
            for flag in others:
                rc = cli.main([command, flag, "1", "--out-dir", str(tmp_path)])
                assert rc == cli.EXIT_USAGE, (command, flag)
                assert "unrecognized arguments" in capsys.readouterr().err, (command, flag)

    def test_old_manifest_with_t_min_replays(self, tmp_path, capsys):
        # Solve manifests once named t_min; the key is skipped on replay.
        first, second = tmp_path / "a", tmp_path / "b"
        argv = ["solve", "--problem", "linear", "--nodes", "12", "--cvals", "8"]
        assert cli.main(argv + ["--out-dir", str(first)]) == cli.EXIT_OK
        manifest = (first / "manifest.txt").read_text()
        assert "\nt_min=" not in manifest
        cfg = tmp_path / "run.cfg"
        cfg.write_text(manifest + "t_min=-10.0\n")
        assert cli.main(["solve", "--config", str(cfg), "--out-dir", str(second)]) == cli.EXIT_OK
        for name in ("boundary.csv", "trace.csv", "residuals.csv", "plot.dat"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = linear\nnodes = many\n")
        rc = cli.main(["residuals", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "--nodes" in capsys.readouterr().err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _scipy_modules_after(code):
    """SciPy modules in ``sys.modules`` after ``code`` runs in a fresh process."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def _fresh_cli(argv, out_dir):
    """``cli.main(argv)`` in a fresh process.

    Returns its exit code, the SciPy modules in ``sys.modules`` afterwards
    and the number of calls of ``numerics.integrate_finite``, the adaptive
    quadrature, that the run made.
    """
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        from stopbound import cli, numerics
        quad, calls = numerics.integrate_finite, []
        def counted(*args):
            calls.append(args[1:3])
            return quad(*args)
        numerics.integrate_finite = counted
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main({list(argv) + ["--out-dir", str(out_dir)]!r})
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps([rc, scipy, len(calls)]))
    """)
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    rc, scipy, quadratures = json.loads(done.stdout.splitlines()[-1])
    return rc, set(scipy), quadratures


class TestModuleLoads:
    """No command loads SciPy: the solver side, the envelope and the
    lattice all run on NumPy alone."""

    def test_import_loads_no_scipy(self):
        assert _scipy_modules_after("import stopbound") == set()

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "linear"],
        ["solve", "--problem", "american_put", "--rho", "1", "--theta", "0.5"],
        ["constants", "--beta", "1"],
        ["residuals", "--problem", "linear"],
    ], ids=["solve-linear", "solve-put", "constants", "residuals"])
    def test_solver_side_loads_no_scipy(self, argv, tmp_path):
        rc, loaded, _ = _fresh_cli(argv, tmp_path)
        assert (rc, loaded) == (cli.EXIT_OK, set())

    def test_closed_form_verify_loads_no_scipy(self, tmp_path):
        # The closed-form check is an iterated adaptive quadrature.
        rc, loaded, quadratures = _fresh_cli(["verify", "--problem", "stadje"], tmp_path)
        assert (rc, loaded) == (cli.EXIT_OK, set())
        assert quadratures > 3

    def test_problem_file_transform_loads_no_scipy(self, tmp_path):
        # No `laplace` key: each kernel parameter's transform is an adaptive
        # quadrature.
        path = tmp_path / "linear.txt"
        path.write_text("r = 1\nb_inf = 0.7071067811865476\nhtilde_expr = y\n")
        argv = ["solve", "--problem-file", str(path), "--nodes", "30", "--cvals", "15"]
        rc, loaded, quadratures = _fresh_cli(argv, tmp_path)
        assert (rc, loaded) == (cli.EXIT_OK, set())
        assert quadratures >= 15

    def test_bounds_loads_no_scipy(self, tmp_path):
        loaded = _scipy_modules_after(f"""
            import contextlib, io
            from stopbound import cli
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["bounds", "--problem", "american_put", "--nodes", "12",
                               "--cvals", "8", "--out-dir", {str(tmp_path)!r}])
            assert rc == 0, rc
        """)
        assert loaded == set()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--problem", "linear", "--t-min", "-1.0", "--t-steps", "64",
         "--x-steps", "64", "--nodes", "10"],
        ["verify", "--problem", "linear", "--t-steps", "500", "--x-steps", "500"],
    ], ids=["oracle", "verify-linear"])
    def test_lattice_commands_load_no_scipy(self, argv, tmp_path):
        rc, loaded, _ = _fresh_cli(argv, tmp_path)
        assert (rc, loaded) == (cli.EXIT_OK, set())
