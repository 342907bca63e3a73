"""Simulate the free population and watch its energy budget.

The forward scheme advances a density y(t, a, x) by an exact age shift (the
grid enforces dt == da), an implicit gene-dispersion/mortality step, and a
renewal boundary row where newborns are produced by the fertility-weighted
age integral.  With no control the total size is governed by the balance of
mortality against renewal.

This script runs the free dynamics from a smooth initial hump, prints the
norm history, and reports the a-priori energy quotient (sup-in-time and
sup-in-age L2 norms plus the dispersion seminorm, divided by the squared
data norm), which stays O(1) for a stable scheme.
"""

from pathlib import Path

import degenpop as dp


def main():
    config = dp.parse_config(
        Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini")
    grid, coeffs = config.grid, config.coeffs

    y0 = dp.Field(dp.initial_datum_values(grid), "age_gene", grid)

    problem = dp.ForwardProblem(coeffs, grid, y0)
    trajectory = dp.solve_forward(problem)

    print("free dynamics on the benchmark cylinder (T=0.4, 100x100 cells)")
    print(f"  initial L2 norm           : {dp.l2_norm(y0, grid):.6f}")
    for n in (grid.nt // 4, grid.nt // 2, 3 * grid.nt // 4, grid.nt):
        print(f"  ||y(t={grid.t_levels[n]:.2f})||            : "
              f"{dp.l2_norm(trajectory.values[n], grid):.6f}")

    report = dp.energy_report(trajectory, problem)
    print()
    print("a-priori energy estimate (empirical):")
    print(f"  sup-in-time squared norm  : {report.sup_t_norm:.6f}")
    print(f"  sup-in-age squared norm   : {report.sup_a_norm:.6f}")
    print(f"  dispersion gradient energy: {report.hk_dissipation:.6f}")
    print(f"  right-hand side           : {report.bound_rhs:.6f}")
    print(f"  energy quotient           : {report.ratio:.6f}")

    newborns = dp.renewal_integral(trajectory.values[grid.nt], coeffs.beta, grid.nt, grid)
    print()
    print(f"  newborn gene row at t=T, peak value: {newborns.max():.6f}")


if __name__ == "__main__":
    main()
