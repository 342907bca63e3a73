"""Configured experiment pipelines and their on-disk artifacts.

Every run writes, into one output directory:
  config_snapshot.ini  the exact configuration (re-running it reproduces
                       the summary byte for byte),
  summary.txt          scalar results, deterministically formatted,
  manifest.txt         the sorted list of produced files,
  timings.txt          wall-clock seconds per stage, and as ``export`` those
                       of the command spent writing field CSVs, if it
                       writes any, for ``control`` and ``sweep`` as ``cg``
                       those spent solving for the probes and as ``steer``
                       those of the one call that steers with all of them,
                       and for ``inequalities`` as
                       ``adjoint`` and ``trials`` those spent in the lab's
                       backward solves and evaluating its trials (the only
                       non-deterministic output, kept out of the CSVs and
                       the summary on purpose),
plus the command-specific CSV files.  A stage failure aborts the run with
the stage name but still persists the manifest written so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .adjoint import AdjointProblem, duhamel_first_case, solve_adjoint, trace_age_zero
from .config import ExperimentConfig, initial_datum_values
from .control import ControlProblem, solve_control, steer, verify_null_reach
from .fieldio import write_field_csv
from .forward import ForwardProblem, energy_report, solve_forward
from .inequalities import _inner_window, grid_signature, run_inequality_lab, weight_sup_check
from .model import Field, ValidationReport, l2_norm

COMMANDS = ("validate", "simulate", "adjoint", "control", "inequalities", "sweep")


@dataclass
class RunArtifact:
    """What a run produced: files, scalar summary, stage timings."""

    command: str
    out_dir: str
    files: list = dataclass_field(default_factory=list, init=False)
    summary: dict = dataclass_field(default_factory=dict, init=False)
    timings: dict = dataclass_field(default_factory=dict, init=False)

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
    lines.extend(",".join(map(_format_scalar, row)) for row in rows)
    (out / name).write_text("\n".join(lines) + "\n")
    files.append(name)


def _export_field(out: Path, name: str, fld: Field, artifact: RunArtifact) -> None:
    start = time.perf_counter()
    write_field_csv(fld, out / name)
    elapsed = time.perf_counter() - start
    artifact.timings["export"] = artifact.timings.get("export", 0.0) + elapsed
    artifact.files.append(name)


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file already holds the path
        raise RuntimeError(
            f"cannot create output directory {out}: {exc.strerror}") from exc
    seed = config.seed if seed is None else int(seed)

    artifact = RunArtifact(command=command, out_dir=str(out))
    artifact.summary["command"] = command
    artifact.summary["grid"] = grid_signature(config.grid)
    artifact.summary["seed"] = seed

    stage_name = "snapshot"
    clock = time.perf_counter()

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
        start = time.perf_counter()
        artifact.timings[stage_name] = start - clock
        stage_name = command
        _RUNNERS[command](config, out, seed, artifact)
        artifact.timings[stage_name] = time.perf_counter() - start
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
    return Field(initial_datum_values(config.grid), "age_gene", config.grid)


def _run_validate(config, out, seed, artifact):
    reports = config.coeffs.validate(config.grid)
    try:  # the lab's gradient window: listed when the lab rejects it or it is missing
        _inner_window(config.family)
    except ValueError as err:
        reports.append(ValidationReport("gradient window", False, violations=[str(err)]))
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


def _run_simulate(config, out, seed, artifact):
    y0 = _initial_field(config)
    problem = ForwardProblem(config.coeffs, config.grid, y0)
    state = solve_forward(problem)
    report = energy_report(state, problem)
    _export_field(out, "state.csv", state, artifact)
    artifact.summary["sup_t_norm"] = report.sup_t_norm
    artifact.summary["sup_a_norm"] = report.sup_a_norm
    artifact.summary["hk_dissipation"] = report.hk_dissipation
    artifact.summary["energy_bound_rhs"] = report.bound_rhs
    artifact.summary["energy_ratio"] = report.ratio
    artifact.summary["terminal_norm"] = l2_norm(
        state.values[config.grid.nt], config.grid, kind="age_gene"
    )


def _run_adjoint(config, out, seed, artifact):
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
    _export_field(out, "adjoint_state.csv", state, artifact)
    _export_field(out, "newborn_trace.csv", trace, artifact)


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


def _solve_and_steer(config, penalties, artifact):
    """One CG solve per penalty on one problem, then one `steer` for them all.

    Every penalty shares the free flow and the preconditioner's block, and
    the steering is one stacked march of the box characteristics.  The
    ``cg`` timing covers the CG solves, the problem's first builds of the
    free flow and the block included; ``steer`` covers the one march.
    """
    problem = ControlProblem(config.coeffs, config.grid, _initial_field(config))
    start = time.perf_counter()
    solutions = [
        solve_control(problem, eps, tol=config.cg_tol, maxit=config.cg_maxit)
        for eps in penalties
    ]
    solved = time.perf_counter()
    steer(solutions)
    artifact.timings["cg"] = solved - start
    artifact.timings["steer"] = time.perf_counter() - solved
    return solutions


_HISTORY_COLUMNS = ("epsilon", "iteration", "relative_residual")


def _history_rows(solution):
    """One (epsilon, iteration, relative residual) row per CG iteration."""
    return [
        (solution.epsilon, iteration, residual)
        for iteration, residual in enumerate(solution.residual_history, start=1)
    ]


def _run_control(config, out, seed, artifact):
    solution, = _solve_and_steer(config, [config.penalty], artifact)
    _control_summary(artifact, solution, verify_null_reach(solution))
    _export_field(out, "control.csv", solution.control, artifact)
    _export_field(out, "terminal_probe.csv", solution.terminal_probe, artifact)
    _export_field(out, "controlled_state.csv", solution.state, artifact)
    _write_table(out, "cg_residual_history.csv", _HISTORY_COLUMNS,
                 _history_rows(solution), artifact.files)


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


def _run_inequalities(config, out, seed, artifact):
    reports = run_inequality_lab(
        config.family,
        s_values=config.strengths,
        trials=config.trials,
        seed=seed,
        observability_trials=config.observability_trials,
    )
    for report in reports.values():
        _export_report(out, report, artifact)
    artifact.timings["adjoint"] = sum(r.adjoint_s for r in reports.values())
    artifact.timings["trials"] = sum(r.trial_s for r in reports.values())

    for power in (1, 2, 3):
        probe = weight_sup_check(config.family, power)
        artifact.summary[f"weight_sup_d{power}_log"] = probe.log_value
        artifact.summary[f"weight_sup_d{power}_argmax"] = "t{}:a{}:x{}".format(*probe.argmax)


def _run_sweep(config, out, seed, artifact):
    history, rows = [], []
    for solution in _solve_and_steer(config, sorted(config.penalties), artifact):
        reach = verify_null_reach(solution)
        history.extend(_history_rows(solution))
        rows.append((
            solution.epsilon,
            solution.y_final_norm_sq,
            solution.control_cost,
            solution.cg_iterations,
            solution.cg_residual,
            reach.box_decay_quotient,
            reach.cost_quotient,
        ))
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
    _write_table(out, "cg_residual_history.csv", _HISTORY_COLUMNS, history, artifact.files)
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
