"""Backward solves, the newborn-row trace, and discrete duality.

The dual system runs backward in time with the age derivative reversed, a
terminal condition at t=T, and the fertility acting as a source on the
age-zero row rather than as a boundary integral.  Two structural facts make
it useful:

* along the characteristic through age zero the dual solution is (up to the
  renewal feedback, which vanishes whenever no age below the horizon is
  fertile) the pure dispersion/mortality evolution of the terminal slice --
  compare solve_adjoint's newborn row against trace_age_zero;
* the discrete forward and backward schemes share their implicit matrices,
  so the duality pairing <y(T), w(T)> - <y0, w(0)> = <control, w>_q holds to
  round-off for terminal data on the ages delta <= a < A.  The smooth draws
  below also reach the newborn row, so their residuals show the first-order
  renewal coupling.

This script measures both on a coarse grid.
"""

from pathlib import Path

import numpy as np

import degenpop as dp


def main():
    config = dp.parse_config(
        Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini")
    grid, coeffs = config.grid, config.coeffs
    rng = dp.make_rng(dp.DEFAULT_SEED)

    wT = dp.Field(dp.initial_datum_values(grid), "age_gene", grid)

    problem = dp.AdjointProblem(coeffs, grid, wT)
    w = dp.solve_adjoint(problem)
    trace = dp.trace_age_zero(problem)

    # Newborn row of the full backward solve vs the pure-evolution trace,
    # relative to the trace, as `degenpop adjoint` reports trace_mismatch.
    gap = (dp.l2_norm(w.values[:, 0, :] - trace.values, grid, kind="time_gene")
           / dp.l2_norm(trace, grid, kind="time_gene"))
    print("newborn-row trace (benchmark fertility, fertile below the horizon):")
    print(f"  relative L2 gap over the age-zero row: {gap:.4f}")
    print("  (the gap is the renewal feedback; it vanishes when fertility")
    print("   is supported strictly above the time horizon)")

    late = dp.SeparableRate(age_factor=lambda a_: np.where(
        a_ > 0.5, 4 * (a_ - 0.5) * (1 - a_) / 0.25, 0.0))
    coeffs_late = dp.CoefficientSet(dispersion=coeffs.dispersion, mu=coeffs.mu,
                                    beta=late, gamma=0.5, theta=0.5)
    problem_late = dp.AdjointProblem(coeffs_late, grid, wT)
    w_late = dp.solve_adjoint(problem_late)
    trace_late = dp.trace_age_zero(problem_late)
    gap = np.abs(w_late.values[:, 0, :] - trace_late.values).max()
    print(f"  same gap with fertility supported on a > 0.5: {gap:.3e}")

    # Discrete duality with random data and a random windowed control.
    print()
    print("duality pairing residuals (5 random draws):")
    for trial in range(5):
        y0 = dp.age_gene_draw(rng, grid)
        wT_draw = dp.age_gene_draw(rng, grid)
        control = dp.Field(
            dp.trajectory_draw(rng, grid).values * grid.omega_mask[None, None, :],
            "trajectory", grid)
        y = dp.solve_forward(dp.ForwardProblem(coeffs, grid, y0, control=control))
        w_draw = dp.solve_adjoint(dp.AdjointProblem(coeffs, grid, wT_draw))
        res = dp.duality_residual(y, w_draw, control, y0, wT_draw, grid)
        print(f"  draw {trial}: {res:.3e}")


if __name__ == "__main__":
    main()
