"""Configured experiment pipelines and their on-disk artifacts.

Every run writes, into one output directory:
  config_snapshot.ini  the exact configuration (re-running it reproduces
                       the summary byte for byte),
  summary.txt          scalar results, deterministically formatted,
  manifest.txt         the sorted list of produced files,
  timings.txt          wall-clock seconds per stage (the only
                       non-deterministic output, kept out of the CSVs
                       and the summary on purpose),
plus the command-specific CSV files.  A stage failure aborts the run with
the stage name but still persists the partial manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .adjoint import AdjointProblem, duhamel_first_case, solve_adjoint, trace_age_zero
from .config import ExperimentConfig, initial_datum_values
from .control import solve_control, verify_null_reach
from .fieldio import write_field_csv
from .forward import ForwardProblem, energy_report, solve_forward
from .inequalities import grid_signature, run_inequality_lab, weight_sup_check
from .model import Field, l2_norm

COMMANDS = ("validate", "simulate", "adjoint", "control", "inequalities", "sweep")


@dataclass
class RunArtifact:
    """What a run produced: files, scalar summary, stage timings."""

    command: str
    out_dir: str
    files: list = dataclass_field(default_factory=list)
    summary: dict = dataclass_field(default_factory=dict)
    timings: dict = dataclass_field(default_factory=dict)

    def summary_text(self) -> str:
        lines = [f"{key}: {_format_scalar(val)}" for key, val in self.summary.items()]
        return "\n".join(lines) + "\n"


def _format_scalar(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _write_text(out: Path, name: str, text: str, files: list) -> None:
    (out / name).write_text(text)
    files.append(name)


def _write_table(out: Path, name: str, header, rows, files: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                cells.append(str(int(value)))
            else:
                cells.append(repr(float(value)))
        lines.append(",".join(cells))
    (out / name).write_text("\n".join(lines) + "\n")
    files.append(name)


def _export_field(out: Path, name: str, fld: Field, files: list) -> None:
    write_field_csv(fld, out / name)
    files.append(name)


def _gene_rel_diff(row_a, row_b, grid) -> float:
    """Relative L2 gene-row difference, guarded for a zero reference."""
    wx = grid.wx
    diff = np.sqrt(np.sum(wx * (row_a - row_b) ** 2))
    ref = np.sqrt(np.sum(wx * np.asarray(row_b) ** 2))
    return diff / ref if ref > 0.0 else diff


def run_experiment(
    config: ExperimentConfig,
    command: str,
    out_dir=None,
    seed: int | None = None,
) -> RunArtifact:
    """Execute one pipeline command and persist its outputs."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} (choices: {', '.join(COMMANDS)})")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed if seed is None else int(seed)

    artifact = RunArtifact(command=command, out_dir=str(out))
    artifact.summary["command"] = command
    artifact.summary["grid"] = grid_signature(config.grid)
    artifact.summary["seed"] = seed

    stage_name = "snapshot"
    clock = time.perf_counter()

    def finish_stage(next_name: str | None) -> None:
        nonlocal stage_name, clock
        now = time.perf_counter()
        artifact.timings[stage_name] = now - clock
        clock = now
        if next_name is not None:
            stage_name = next_name

    def persist() -> None:
        _write_text(out, "summary.txt", artifact.summary_text(), artifact.files)
        timing_lines = [f"{k}: {v:.3f} s" for k, v in artifact.timings.items()]
        (out / "timings.txt").write_text("\n".join(timing_lines) + "\n")
        artifact.files.append("timings.txt")
        manifest = sorted(set(artifact.files) | {"manifest.txt"})
        (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
        artifact.files = manifest

    try:
        _write_text(out, "config_snapshot.ini", config.snapshot_text(), artifact.files)
        finish_stage(command)
        _RUNNERS[command](config, out, seed, artifact, finish_stage)
        finish_stage(None)
    except Exception as exc:
        artifact.summary["failed_stage"] = stage_name
        artifact.summary["error"] = str(exc)
        persist()
        raise RuntimeError(f"stage {stage_name!r} failed: {exc}") from exc
    persist()
    return artifact


# ---------------------------------------------------------------------------
# individual pipelines
# ---------------------------------------------------------------------------


def _initial_field(config: ExperimentConfig) -> Field:
    values = initial_datum_values(config.initial_age, config.initial_gene, config.grid)
    return Field(values, "age_gene", config.grid)


def _run_validate(config, out, seed, artifact, finish_stage):
    reports = config.coeffs.validate(config.grid)
    blocks, all_passed = [], True
    for report in reports:
        blocks.append(report.summary())
        key = "validate_" + report.hypothesis.replace(" ", "_")
        artifact.summary[key] = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
    # parse_config only returns a config whose weight family is admissible
    artifact.summary["weights_admissible"] = "PASS"
    artifact.summary["all_passed"] = all_passed
    _write_text(out, "validation.txt", "\n\n".join(blocks) + "\n", artifact.files)


def _run_simulate(config, out, seed, artifact, finish_stage):
    y0 = _initial_field(config)
    problem = ForwardProblem(config.coeffs, config.grid, y0)
    state = solve_forward(problem)
    report = energy_report(state, problem)
    _export_field(out, "state.csv", state, artifact.files)
    artifact.summary["sup_t_norm"] = report.sup_t_norm
    artifact.summary["sup_a_norm"] = report.sup_a_norm
    artifact.summary["hk_dissipation"] = report.hk_dissipation
    artifact.summary["energy_bound_rhs"] = report.bound_rhs
    artifact.summary["energy_ratio"] = report.ratio
    artifact.summary["terminal_norm"] = l2_norm(
        state.values[config.grid.nt], config.grid, kind="age_gene"
    )


def _run_adjoint(config, out, seed, artifact, finish_stage):
    grid = config.grid
    wT = _initial_field(config)  # same separable shape, read as terminal data
    problem = AdjointProblem(config.coeffs, grid, wT)
    state = solve_adjoint(problem)
    trace = trace_age_zero(problem)

    newborn = state.values[:, 0, :]
    num = l2_norm(newborn - trace.values, grid, kind="time_gene")
    den = l2_norm(trace.values, grid, kind="time_gene")
    artifact.summary["trace_mismatch"] = num / den if den > 0 else num

    n = grid.nt // 4
    j_min = n + grid.na - grid.nt + 1
    j = min(grid.na - 1, j_min + (grid.na - j_min) // 2)
    t_pt, a_pt = grid.t_levels[n], grid.a_levels[j]
    row = duhamel_first_case(problem, t_pt, a_pt, w_traj=state)
    artifact.summary["characteristic_point_t"] = t_pt
    artifact.summary["characteristic_point_a"] = a_pt
    artifact.summary["characteristic_mismatch"] = _gene_rel_diff(
        row, state.values[n, j, :], grid
    )
    _export_field(out, "adjoint_state.csv", state, artifact.files)
    _export_field(out, "newborn_trace.csv", trace, artifact.files)


def _control_summary(artifact, solution, reach):
    artifact.summary["epsilon"] = solution.epsilon
    artifact.summary["cg_iterations"] = solution.cg_iterations
    artifact.summary["cg_converged"] = solution.converged
    artifact.summary["cg_residual"] = solution.cg_residual
    artifact.summary["y_final_norm_sq"] = solution.y_final_norm_sq
    artifact.summary["control_cost"] = solution.control_cost
    artifact.summary["cost_value"] = solution.cost_value
    artifact.summary["optimality_mismatch"] = solution.optimality_mismatch
    if reach.initial_norm_sq > 0:
        ratio = float(np.sqrt(solution.y_final_norm_sq / reach.initial_norm_sq))
    else:
        ratio = 0.0
    artifact.summary["terminal_ratio"] = ratio
    artifact.summary["terminal_ratio_target_0.05"] = (
        "MET" if ratio <= 0.05 else "NOT MET"
    )
    artifact.summary["box_decay_quotient"] = reach.box_decay_quotient
    artifact.summary["cost_quotient"] = reach.cost_quotient


def _run_control(config, out, seed, artifact, finish_stage):
    y0 = _initial_field(config)
    solution = solve_control(
        y0,
        config.penalty,
        config.coeffs,
        config.grid,
        tol=config.cg_tol,
        maxit=config.cg_maxit,
    )
    reach = verify_null_reach(solution, y0, config.grid)
    _control_summary(artifact, solution, reach)
    _export_field(out, "control.csv", solution.control, artifact.files)
    _export_field(out, "terminal_probe.csv", solution.terminal_probe, artifact.files)
    _export_field(out, "controlled_state.csv", solution.state, artifact.files)


_REPORT_COLUMNS = ("trial", "s", "lhs", "rhs", "ratio", "log_lhs", "log_rhs", "log_ratio")


def _export_report(out, report, artifact):
    rows = [[row[c] for c in _REPORT_COLUMNS] for row in report.rows()]
    _write_table(
        out, f"inequality_{report.name}.csv", _REPORT_COLUMNS, rows, artifact.files
    )
    artifact.summary[f"{report.name}_fitted_constant"] = report.fitted_constant
    artifact.summary[f"{report.name}_fitted_log_constant"] = report.fitted_log_constant
    artifact.summary[f"{report.name}_excluded"] = report.excluded_count
    artifact.summary[f"{report.name}_all_defined"] = report.all_ratios_defined()


def _run_inequalities(config, out, seed, artifact, finish_stage):
    reports = run_inequality_lab(
        config.coeffs,
        config.grid,
        config.family,
        s_values=config.strengths,
        trials=config.trials,
        seed=seed,
        observability_trials=config.observability_trials,
    )
    for report in reports.values():
        _export_report(out, report, artifact)

    for power in (1, 2, 3):
        probe = weight_sup_check(config.family, power)
        artifact.summary[f"weight_sup_d{power}_log"] = probe.log_value
        artifact.summary[f"weight_sup_d{power}_argmax"] = "t{}:a{}:x{}".format(*probe.argmax)


def _run_sweep(config, out, seed, artifact, finish_stage):
    coeffs, grid = config.coeffs, config.grid
    y0 = _initial_field(config)

    def one_penalty(eps):
        solution = solve_control(
            y0, eps, coeffs, grid,
            tol=config.cg_tol, maxit=config.cg_maxit,
        )
        reach = verify_null_reach(solution, y0, grid)
        return (
            eps,
            solution.y_final_norm_sq,
            solution.control_cost,
            solution.cg_iterations,
            solution.cg_residual,
            reach.box_decay_quotient,
            reach.cost_quotient,
        )

    rows = [one_penalty(eps) for eps in sorted(config.penalties)]
    _write_table(
        out,
        "sweep_control.csv",
        (
            "epsilon", "y_final_norm_sq", "control_cost",
            "cg_iterations", "cg_residual", "box_decay_quotient", "cost_quotient",
        ),
        rows,
        artifact.files,
    )
    norms = np.array([row[1] for row in rows])
    eps = np.array([row[0] for row in rows])
    if len(rows) >= 2 and np.all(norms > 0.0):
        slope = float(np.polyfit(np.log(eps), np.log(norms), 1)[0])
    else:
        slope = float("nan")
    artifact.summary["penalty_count"] = len(rows)
    artifact.summary["terminal_norm_sq_slope"] = slope
    costs = np.array([row[6] for row in rows])
    artifact.summary["cost_quotient_spread"] = (
        float(np.max(costs) / np.min(costs)) if np.all(costs > 0) else float("nan")
    )

    weight_rows = []
    for s in config.strengths:
        for power in (1, 2, 3):
            probe = weight_sup_check(config.family, power, s=s)
            weight_rows.append((s, power, probe.log_value, probe.value))
    _write_table(
        out,
        "sweep_weights.csv",
        ("s", "power", "log_sup", "sup"),
        weight_rows,
        artifact.files,
    )


_RUNNERS = {
    "validate": _run_validate,
    "simulate": _run_simulate,
    "adjoint": _run_adjoint,
    "control": _run_control,
    "inequalities": _run_inequalities,
    "sweep": _run_sweep,
}
