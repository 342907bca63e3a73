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

import numpy as np

import degenpop as dp


def benchmark(nx, na, nt):
    grid = dp.SpaceTimeGrid(
        T=0.4, A=1.0, nx=nx, nt=nt, na=na, delta=0.5,
        omega=(0.3, 0.7), omega_core=(0.44, 0.64), omega_inner=(0.56, 0.64),
    )
    beta = dp.SeparableRate(age_factor=lambda a: np.where(a > 0, 4 * a * (1 - a), 0.0))
    coeffs = dp.CoefficientSet(
        dispersion=dp.PowerLawDispersion(0.5, 0.5),
        mu=dp.ConstantRate(0.1), beta=beta, gamma=0.5, theta=0.5,
    )
    return grid, coeffs


def main():
    grid, coeffs = benchmark(nx=100, na=100, nt=40)

    a = grid.a_levels[:, None]
    x = grid.x_nodes[None, :]
    y0 = dp.Field(a * (1.0 - a) * np.sin(np.pi * x), "age_gene", grid)

    penalties = (1e-2, 1e-3, 1e-4, 1e-5)
    print("penalty sweep on the benchmark steering problem:")
    print(f"{'eps':>8} | {'CG its':>6} | {'||y(T)||_box^2':>14} | "
          f"{'control cost':>12} | {'decay quotient':>14}")
    terminal = []
    for eps in penalties:
        sol = dp.solve_control(y0, eps, coeffs, grid)
        report = dp.verify_null_reach(sol, y0, grid)
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
