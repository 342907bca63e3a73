"""Steer the mature population toward zero with a windowed control.

The control problem: find a source theta, supported in the gene window
omega, that drives the ages above the observation threshold (the "box")
close to zero at time T.  The solver minimizes

    J(theta) = 1/2 ||theta||^2 + 1/(2 eps) ||y(T)||^2_box

via its dual formulation: conjugate gradients on (Gram + eps I) p = r in the
box inner product, where the Gram operator chains adjoint solve -> windowed
restriction -> forward solve -> terminal box restriction.

This script solves the benchmark steering problem on a coarse grid, prints
the CG history, the terminal decay, and the two scale-free quotients whose
boundedness under eps -> 0 is the practical signature of approximate null
steering.
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
    norm0 = dp.l2_norm(y0, grid)

    problem = dp.ControlProblem(coeffs, grid, y0)
    solution = dp.solve_control(problem, epsilon=1e-4)
    print("penalized steering on the benchmark problem (eps = 1e-4):")
    print(solution.summary())

    print()
    ratio = np.sqrt(solution.y_final_norm_sq) / norm0
    print(f"  terminal box norm / initial norm : {ratio:.3e}")

    report = dp.verify_null_reach(solution)
    print()
    print("scale-free quotients:")
    print(report.summary())

    # How the free dynamics compare: without control the box population
    # barely decays over the short horizon.
    free = dp.solve_forward(dp.ForwardProblem(coeffs, grid, y0))
    free_box = dp.l2_norm(free.values[grid.nt], grid, a_mask=grid.age_upper_mask())
    print()
    print(f"  free dynamics, same quotient     : {free_box / norm0:.3e}")


if __name__ == "__main__":
    main()
