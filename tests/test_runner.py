"""End-to-end pipeline runs and the command-line entry point."""

import numpy as np
import pytest

import degenpop as dp
from degenpop import cli
from degenpop import control as control_module
from degenpop import runner as runner_module

COARSE_CONFIG = """\
[model]
dispersion = power_law
degeneracy_point = 0.5
exponent = 0.5
degeneracy_bound = 0.5
mortality = constant:0.1
fertility = age_poly:0,4,-4

[geometry]
time_horizon = 0.4
max_age = 1.0
observation_min_age = 0.5
control_window = 0.3,0.7
bump_window = 0.44,0.64
gradient_window = 0.56,0.64
gene_cells = 50
age_cells = 50
time_cells = 20

[weights]

[control]
penalty = 1e-4
penalties = 1e-3,1e-4

[lab]
trials = 2
observability_trials = 5
strengths = 5,50

[output]
directory = runs/unused-default
"""


@pytest.fixture(scope="module")
def coarse_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "coarse.ini"
    path.write_text(COARSE_CONFIG)
    return path


@pytest.fixture(scope="module")
def coarse_config(coarse_config_path):
    return dp.parse_config(coarse_config_path)


def check_artifact_files(artifact, out_dir):
    """Common contract: manifest matches the directory and itself."""
    for name in artifact.files:
        assert (out_dir / name).is_file(), name
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert manifest == sorted(artifact.files)
    assert "config_snapshot.ini" in manifest
    assert "summary.txt" in manifest
    assert "timings.txt" in manifest
    # the snapshot reproduces the parsed experiment
    again = dp.parse_config(out_dir / "config_snapshot.ini")
    assert again.raw is not None
    # summary.txt is exactly the artifact's formatted summary
    assert (out_dir / "summary.txt").read_text() == artifact.summary_text()
    check_timings(artifact, out_dir)


def check_timings(artifact, out_dir):
    """timings.txt has snapshot and the command, plus export for field writers,
    cg and steer for the control solvers, and adjoint and trials for the
    inequality lab."""
    lines = (out_dir / "timings.txt").read_text().splitlines()
    seconds = {}
    for line in lines:
        key, value = line.split(": ")
        assert value.endswith(" s")
        seconds[key] = float(value[:-2])
    parts = set()
    if artifact.command in ("simulate", "adjoint", "control"):
        parts.add("export")
    if artifact.command in ("control", "sweep"):
        parts |= {"cg", "steer"}
    if artifact.command == "inequalities":
        parts |= {"adjoint", "trials"}
    assert set(seconds) == {"snapshot", artifact.command} | parts
    command = seconds[artifact.command]
    for part in parts:
        assert 0.0 < seconds[part] <= command, part
    # the parts are disjoint spans of the command; each line is rounded to
    # the millisecond
    assert sum(seconds[part] for part in parts) <= command + 0.001


class TestPipelines:
    def test_validate(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "validate", out_dir=tmp_path)
        assert art.summary["all_passed"] is True
        assert art.summary["validate_weak_interior_degeneracy"] == "PASS"
        assert art.summary["validate_monotone_envelope"] == "PASS"
        assert art.summary["validate_rate_bounds"] == "PASS"
        assert art.summary["weights_admissible"] == "PASS"
        assert "validate_gradient_window" not in art.summary  # listed when it fails
        assert "validation.txt" in art.files
        check_artifact_files(art, tmp_path)

    def test_simulate(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "simulate", out_dir=tmp_path)
        assert "state.csv" in art.files
        assert art.summary["terminal_norm"] > 0.0
        assert 0.0 < art.summary["energy_ratio"] < 10.0
        check_artifact_files(art, tmp_path)
        state = dp.read_field_csv(tmp_path / "state.csv", coarse_config.grid)
        assert state.kind == "trajectory"

    def test_adjoint(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "adjoint", out_dir=tmp_path)
        assert art.summary["trace_mismatch"] < 0.15
        assert art.summary["characteristic_mismatch"] < 0.10
        assert {"adjoint_state.csv", "newborn_trace.csv"} <= set(art.files)
        check_artifact_files(art, tmp_path)

    def test_control(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "control", out_dir=tmp_path)
        assert art.summary["cg_converged"] is True
        assert art.summary["terminal_ratio"] < 0.05
        assert art.summary["terminal_ratio_target_0.05"] == "MET"
        assert art.summary["optimality_mismatch"] < 1e-3
        assert {"control.csv", "terminal_probe.csv", "controlled_state.csv",
                "cg_residual_history.csv"} <= set(art.files)
        check_artifact_files(art, tmp_path)

    def test_control_writes_the_cg_residual_history(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "control", out_dir=tmp_path)
        lines = (tmp_path / "cg_residual_history.csv").read_text().splitlines()
        assert lines[0] == "epsilon,iteration,relative_residual"
        assert len(lines) - 1 == art.summary["cg_iterations"]
        problem = dp.ControlProblem(coarse_config.coeffs, coarse_config.grid,
                                    runner_module._initial_field(coarse_config))
        solution = dp.solve_control(problem, coarse_config.penalty,
                                    tol=coarse_config.cg_tol, maxit=coarse_config.cg_maxit)
        eps = repr(float(coarse_config.penalty))
        assert lines[1:] == [f"{eps},{it},{float(rel)!r}" for it, rel in
                             enumerate(solution.residual_history, start=1)]

    def test_inequalities(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "inequalities", out_dir=tmp_path)
        for name in ("carleman_main", "carleman_intermediate", "caccioppoli",
                     "observability", "hardy_poincare"):
            assert f"inequality_{name}.csv" in art.files
            assert art.summary[f"{name}_excluded"] == 0
            assert art.summary[f"{name}_all_defined"] is True
        for power in (1, 2, 3):
            assert np.isfinite(art.summary[f"weight_sup_d{power}_log"])
        check_artifact_files(art, tmp_path)

    def test_sweep(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "sweep", out_dir=tmp_path)
        assert art.summary["penalty_count"] == 2
        assert 0.0 < art.summary["terminal_norm_sq_slope"] < 2.0
        assert np.isfinite(art.summary["cost_quotient_spread"])
        assert {"sweep_control.csv", "sweep_weights.csv"} <= set(art.files)
        check_artifact_files(art, tmp_path)
        header = (tmp_path / "sweep_control.csv").read_text().splitlines()[0]
        assert header.startswith("epsilon,")

    def test_sweep_rows_match_direct_solves(self, coarse_config, tmp_path):
        dp.run_experiment(coarse_config, "sweep", out_dir=tmp_path)
        rows = (tmp_path / "sweep_control.csv").read_text().splitlines()[1:]
        history = (tmp_path / "cg_residual_history.csv").read_text().splitlines()
        assert history[0] == "epsilon,iteration,relative_residual"
        expected_history = []
        penalties = sorted(coarse_config.penalties)
        assert len(rows) == len(penalties)
        y0 = runner_module._initial_field(coarse_config)
        for row, eps in zip(rows, penalties):
            # a fresh problem per penalty: the sweep's shared one must match it
            problem = dp.ControlProblem(coarse_config.coeffs, coarse_config.grid, y0)
            solution = dp.solve_control(
                problem, eps, tol=coarse_config.cg_tol, maxit=coarse_config.cg_maxit,
            )
            reach = dp.verify_null_reach(solution)
            expected = [
                repr(float(eps)),
                repr(float(solution.y_final_norm_sq)),
                repr(float(solution.control_cost)),
                str(solution.cg_iterations),
                repr(float(solution.cg_residual)),
                repr(float(reach.box_decay_quotient)),
                repr(float(reach.cost_quotient)),
            ]
            assert row.split(",") == expected
            expected_history += [f"{eps!r},{it},{float(rel)!r}" for it, rel in
                                 enumerate(solution.residual_history, start=1)]
        # one row per CG iteration, penalties ascending
        assert history[1:] == expected_history
        assert len(expected_history) == sum(int(r.split(",")[3]) for r in rows)

    def test_sweep_solves_the_free_flow_and_builds_the_block_once(
        self, coarse_config, tmp_path, monkeypatch
    ):
        forward, adjoint, blocks = [], [], []
        build_block = control_module.box_gram_block

        def counting_forward(problem):
            forward.append(problem.control is None)
            return dp.solve_forward(problem)

        def counting_adjoint(problem):
            adjoint.append(problem)
            return dp.solve_adjoint(problem)

        def counting_block(coeffs, grid):
            blocks.append(grid)
            return build_block(coeffs, grid)

        monkeypatch.setattr(control_module, "solve_forward", counting_forward)
        monkeypatch.setattr(control_module, "solve_adjoint", counting_adjoint)
        monkeypatch.setattr(control_module, "box_gram_block", counting_block)
        dp.run_experiment(coarse_config, "sweep", out_dir=tmp_path)
        assert len(coarse_config.penalties) >= 2
        # the free flow and every penalty's steering march the box characteristics
        assert forward == []
        assert adjoint == []
        assert len(blocks) == 1

    def test_sweep_steers_every_penalty_in_one_march(self, coarse_config, tmp_path,
                                                     monkeypatch):
        stacks = []
        march = control_module._box_march

        def counting(probes, start, coeffs, grid):
            stacks.append(None if probes is None else len(probes))
            return march(probes, start, coeffs, grid)

        monkeypatch.setattr(control_module, "_box_march", counting)
        dp.run_experiment(coarse_config, "sweep", out_dir=tmp_path)
        rows = (tmp_path / "sweep_control.csv").read_text().splitlines()[1:]
        iterations = sum(int(row.split(",")[3]) for row in rows)
        # the free flow, one Gram apply per CG iteration, one steering march
        assert len(stacks) == 1 + iterations + 1
        assert stacks == [None] + [1] * iterations + [len(coarse_config.penalties)]

    def test_sweep_keeps_no_full_trajectory(self, coarse_config, tmp_path, monkeypatch):
        # no full solve is made, so no full trajectory ever exists
        def forbidden(problem):
            raise AssertionError("a full solve was made")

        monkeypatch.setattr(control_module, "solve_forward", forbidden)
        monkeypatch.setattr(control_module, "solve_adjoint", forbidden)
        art = dp.run_experiment(coarse_config, "sweep", out_dir=tmp_path)
        assert art.summary["penalty_count"] == len(coarse_config.penalties)

    def test_control_builds_its_fields_when_it_exports_them(
        self, coarse_config, tmp_path, monkeypatch
    ):
        events = []
        write = runner_module.write_field_csv

        def counting_forward(problem):
            events.append("free" if problem.control is None else "steered")
            return dp.solve_forward(problem)

        def counting_adjoint(problem):
            events.append("adjoint")
            return dp.solve_adjoint(problem)

        def recording_write(fld, path):
            events.append(path.name)
            return write(fld, path)

        monkeypatch.setattr(control_module, "solve_forward", counting_forward)
        monkeypatch.setattr(control_module, "solve_adjoint", counting_adjoint)
        monkeypatch.setattr(runner_module, "write_field_csv", recording_write)
        dp.run_experiment(coarse_config, "control", out_dir=tmp_path)
        assert events == ["adjoint", "control.csv", "terminal_probe.csv",
                          "steered", "controlled_state.csv"]

    def test_unknown_command_rejected(self, coarse_config, tmp_path):
        with pytest.raises(ValueError, match="unknown command"):
            dp.run_experiment(coarse_config, "optimize", out_dir=tmp_path)

    def test_repeat_runs_are_byte_identical(self, coarse_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        art_a = dp.run_experiment(coarse_config, "simulate", out_dir=a)
        art_b = dp.run_experiment(coarse_config, "simulate", out_dir=b)
        assert art_a.files == art_b.files
        for name in art_a.files:
            if name == "timings.txt":  # wall-clock, deliberately excluded
                continue
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_summary(self, coarse_config, tmp_path):
        art = dp.run_experiment(coarse_config, "validate",
                                out_dir=tmp_path, seed=7)
        assert art.summary["seed"] == 7

    def test_stage_failure_persists_partial_manifest(
        self, coarse_config, tmp_path, monkeypatch
    ):
        def boom(config, out, seed, artifact):
            raise ValueError("synthetic stage failure")

        monkeypatch.setitem(runner_module._RUNNERS, "simulate", boom)
        with pytest.raises(RuntimeError, match="stage 'simulate' failed"):
            dp.run_experiment(coarse_config, "simulate", out_dir=tmp_path)
        summary = (tmp_path / "summary.txt").read_text()
        assert "failed_stage: simulate" in summary
        assert "synthetic stage failure" in summary
        assert (tmp_path / "manifest.txt").is_file()


class TestCli:
    def test_validate_exits_zero_and_prints_summary(
        self, coarse_config_path, tmp_path, capsys
    ):
        code = cli.main(["validate", "--config", str(coarse_config_path),
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all_passed: true" in out
        assert "outputs in" in out

    def test_seed_flag_flows_through(self, coarse_config_path, tmp_path, capsys):
        code = cli.main(["validate", "--config", str(coarse_config_path),
                         "--out", str(tmp_path), "--seed", "7"])
        assert code == 0
        assert "seed: 7" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "inequalities"])
    def test_negative_seed_exits_two_before_running(self, command, coarse_config_path,
                                                    tmp_path, capsys):
        # the bound of lab.seed; before, simulate wrote "seed: -1" and
        # inequalities failed mid-run with partial outputs
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(coarse_config_path),
                      "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "absent.ini"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["key_before_section", "duplicate_section",
                                      "duplicate_key"])
    def test_malformed_ini_exits_two_naming_file_and_line(self, case, tmp_path, capsys):
        last = COARSE_CONFIG.count("\n")
        text, where = {
            "key_before_section": ("dispersion = power_law\n" + COARSE_CONFIG,
                                   "line: 1"),
            "duplicate_section": (COARSE_CONFIG + "\n[model]\n", f"[line {last + 2}]"),
            "duplicate_key": (COARSE_CONFIG.replace(
                "mortality = constant:0.1", "mortality = constant:0.1\nmortality = zero"),
                "[line 7]"),
        }[case]
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(dp.ConfigError):
            dp.parse_config(bad)
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config errors:\n  - ")
        assert str(bad) in err and where in err

    def test_non_utf8_config_exits_two_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "utf16.ini"
        bad.write_bytes(b"\xff\xfe" + COARSE_CONFIG.encode("utf-16-le"))
        code = cli.main(["validate", "--config", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config errors:\n  - ")
        assert f"{bad} is not UTF-8 text" in err

    def test_config_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and str(tmp_path) in err

    def test_invalid_config_exits_two_listing_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(COARSE_CONFIG.replace("exponent = 0.5", "exponent = 1.7"))
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config errors:" in err
        assert "model.exponent" in err

    def test_run_failure_exits_one(self, coarse_config_path, tmp_path,
                                   capsys, monkeypatch):
        def boom(config, command, out_dir=None, seed=None):
            raise RuntimeError("stage 'simulate' failed: synthetic")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(["simulate", "--config", str(coarse_config_path),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "run failed" in capsys.readouterr().err

    def test_gradient_window_on_x0_exits_one_before_any_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        import degenpop.inequalities as ineq

        solves = []
        monkeypatch.setattr(ineq, "solve_adjoint", solves.append)
        bad = tmp_path / "window.ini"
        bad.write_text(COARSE_CONFIG.replace("gradient_window = 0.56,0.64",
                                             "gradient_window = 0.44,0.56"))
        code = cli.main(["inequalities", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "inner gradient window must exclude the degeneracy point x0=0.5" \
            in capsys.readouterr().err
        assert solves == []

    def test_validate_fails_a_gradient_window_on_x0(self, tmp_path, capsys):
        # before, validate passed this file and only the lab rejected it
        bad = tmp_path / "window.ini"
        bad.write_text(COARSE_CONFIG.replace("gradient_window = 0.56,0.64",
                                             "gradient_window = 0.44,0.56"))
        code = cli.main(["validate", "--config", str(bad), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "validate_gradient_window: FAIL" in out
        assert "all_passed: false" in out
        assert "[FAIL] gradient window  (1 violations, first: inner gradient window must " \
            "exclude the degeneracy point x0=0.5)" in (tmp_path / "out" / "validation.txt").read_text()

    def test_validate_fails_a_missing_gradient_window(self, tmp_path, capsys):
        # before, validate passed this file and only the lab rejected it
        bad = tmp_path / "no_window.ini"
        bad.write_text(COARSE_CONFIG.replace("gradient_window = 0.56,0.64\n", ""))
        assert "gradient_window" not in bad.read_text()
        code = cli.main(["validate", "--config", str(bad), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "validate_gradient_window: FAIL" in out
        assert "all_passed: false" in out
        assert "[FAIL] gradient window  (1 violations, first: grid does not define an " \
            "inner gradient window)" in (tmp_path / "out" / "validation.txt").read_text()

    def test_out_naming_a_file_exits_one_without_traceback(self, coarse_config_path,
                                                           tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        code = cli.main(["validate", "--config", str(coarse_config_path),
                         "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"run failed: cannot create output directory {taken}: File exists\n"
        assert taken.read_text() == "kept"

    def test_failed_validation_exits_one(self, tmp_path, capsys):
        # constant fertility parses fine but gives newborns a positive birth
        # rate, which the rate validator rejects
        text = COARSE_CONFIG.replace("fertility = age_poly:0,4,-4",
                                     "fertility = constant:0.3")
        path = tmp_path / "fertile.ini"
        path.write_text(text)
        code = cli.main(["validate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "all_passed: false" in capsys.readouterr().out
