"""Sweep the penalty and read off the approximate-steering rate.

Shrinking the penalty eps tightens the terminal constraint: the terminal
box norm should decay like a power of eps (with exponent near one in the
penalized-dual formulation) while the control cost quotient stays bounded.
This sweep is the quickest end-to-end health check of the whole pipeline:
adjoint and forward solvers, the Gram operator, conjugate gradients, and
the duality bookkeeping all have to be consistent for the fitted slope to
come out near one.

This script sweeps four penalties on a coarse grid, prints the table of
terminal norms, costs, and quotients, and fits the decay slope in log-log.
"""

from pathlib import Path

import numpy as np

import degenpop as dp


def main():
    config = dp.parse_config(
        Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini")
    grid, coeffs = config.grid, config.coeffs

    y0 = dp.Field(dp.initial_datum_values(grid), "age_gene", grid)

    penalties = config.penalties
    print("penalty sweep on the benchmark steering problem:")
    print(f"{'eps':>8} | {'CG its':>6} | {'||y(T)||_box^2':>14} | "
          f"{'control cost':>12} | {'decay quotient':>14}")
    # the free flow and the preconditioner's block do not depend on eps:
    # one problem computes them once for all four penalties, and one march
    # of the box characteristics steers all four after their CG solves
    problem = dp.ControlProblem(coeffs, grid, y0)
    solutions = [dp.solve_control(problem, eps) for eps in penalties]
    dp.steer(solutions)
    terminal = []
    for eps, sol in zip(penalties, solutions):
        report = dp.verify_null_reach(sol)
        terminal.append(sol.y_final_norm_sq)
        print(f"{eps:8.0e} | {sol.cg_iterations:6d} | {sol.y_final_norm_sq:14.6e} | "
              f"{sol.control_cost:12.6e} | {report.box_decay_quotient:14.6f}")

    slope = np.polyfit(np.log(penalties), np.log(terminal), 1)[0]
    print()
    print(f"fitted log-log slope of ||y(T)||_box^2 against eps: {slope:.3f}")
    print("a slope near one, with bounded decay quotients, is the expected")
    print("signature of approximate steering in the penalized formulation.")


if __name__ == "__main__":
    main()
