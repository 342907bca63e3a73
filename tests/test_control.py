"""Gram operator structure and the penalized steering solve."""

import numpy as np
import pytest

import degenpop as dp


def _bench_initial(grid):
    return dp.Field(np.outer(grid.a_levels * (grid.A - grid.a_levels),
                             np.sin(np.pi * grid.x_nodes)), "age_gene", grid)


class TestBoxGeometry:
    def test_box_inner_restricts_to_observation_ages(self, coarse_grid):
        g = coarse_grid
        f = np.ones((g.na + 1, g.nx + 1))
        # The box pairing masks the global trapezoid weights (so masked
        # terminal data pair exactly with full-grid integrals); the age
        # threshold node therefore keeps its full interior weight.
        assert np.isclose(dp.box_inner(f, f, g), g.A - g.delta + g.da / 2,
                          rtol=1e-14)

    def test_box_mask_shape_and_support(self, coarse_grid):
        g = coarse_grid
        mask = dp.box_mask(g)
        assert mask.shape == (g.na + 1, g.nx + 1)
        assert np.all(mask[g.delta_index:] == 1.0)
        assert np.all(mask[:g.delta_index] == 0.0)


class TestGramOperator:
    def test_symmetry_and_positivity(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        rng = dp.make_rng(101)
        for _ in range(3):
            p = dp.box_terminal_draw(rng, g).values
            q = dp.box_terminal_draw(rng, g).values
            gp = dp.gram_apply(p, bench_coeffs, g)
            gq = dp.gram_apply(q, bench_coeffs, g)
            a12 = dp.box_inner(gp, q, g)
            a21 = dp.box_inner(p, gq, g)
            assert abs(a12 - a21) <= 1e-10 * max(abs(a12), abs(a21))
            assert dp.box_inner(gp, p, g) >= 0.0

    def test_support_is_confined_to_the_box(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        p = dp.age_gene_draw(dp.make_rng(5), g).values  # deliberately unboxed
        gp = dp.gram_apply(p, bench_coeffs, g)
        assert np.all(gp[:g.delta_index] == 0.0)


@pytest.fixture(scope="module")
def solution(bench_coeffs, coarse_grid):
    return dp.solve_control(_bench_initial(coarse_grid), 1e-4, bench_coeffs,
                            coarse_grid)


class TestSolveControl:
    def test_converges_quickly(self, solution):
        assert solution.converged
        assert solution.cg_iterations < 100
        assert solution.cg_residual <= 1e-6
        assert solution.residual_history[-1] < solution.residual_history[0]

    def test_steers_the_box_population_down(self, solution, coarse_grid, bench_coeffs):
        g = coarse_grid
        y0 = _bench_initial(g)
        free = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0))
        free_norm = dp.box_inner(free.values[g.nt] * dp.box_mask(g),
                                 free.values[g.nt] * dp.box_mask(g), g)
        assert solution.y_final_norm_sq < 1e-3 * free_norm

    def test_optimality_identity(self, solution):
        # controlled terminal box values equal epsilon * probe up to CG residual
        assert solution.optimality_mismatch < 1e-3

    def test_control_supported_in_window(self, solution, coarse_grid):
        outside = solution.control.values * (1.0 - coarse_grid.omega_mask)
        assert np.all(outside == 0.0)

    def test_computed_control_beats_doing_nothing(self, solution, bench_coeffs,
                                                  coarse_grid):
        g = coarse_grid
        y0 = _bench_initial(g)
        j_zero = dp.cost_functional(dp.Field.zeros("trajectory", g), y0, 1e-4,
                                    bench_coeffs, g)
        assert solution.cost_value < 0.5 * j_zero

    def test_cost_functional_matches_solution_bookkeeping(self, solution,
                                                          bench_coeffs, coarse_grid):
        j = dp.cost_functional(solution.control, _bench_initial(coarse_grid),
                               solution.epsilon, bench_coeffs, coarse_grid)
        assert np.isclose(j, solution.cost_value, rtol=1e-12)

    def test_smaller_penalty_gives_smaller_terminal_norm(self, solution,
                                                         bench_coeffs, coarse_grid):
        loose = dp.solve_control(_bench_initial(coarse_grid), 1e-2, bench_coeffs,
                                 coarse_grid)
        assert solution.y_final_norm_sq < loose.y_final_norm_sq
        assert solution.state is not None

    def test_zero_initial_datum_needs_no_control(self, bench_coeffs, coarse_grid):
        sol = dp.solve_control(dp.Field.zeros("age_gene", coarse_grid), 1e-4,
                               bench_coeffs, coarse_grid)
        assert sol.cg_iterations == 0
        assert sol.y_final_norm_sq == 0.0
        assert np.all(sol.control.values == 0.0)

    def test_parameter_validation(self, bench_coeffs, coarse_grid):
        y0 = _bench_initial(coarse_grid)
        with pytest.raises(ValueError, match="epsilon"):
            dp.solve_control(y0, 0.0, bench_coeffs, coarse_grid)
        with pytest.raises(ValueError, match="tolerance"):
            dp.solve_control(y0, 1e-4, bench_coeffs, coarse_grid, tol=0.0)


class TestNullReachReport:
    def test_quotients_normalize_by_initial_size(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        y0 = _bench_initial(g)
        sol = dp.solve_control(y0, 1e-4, bench_coeffs, g)
        report = dp.verify_null_reach(sol, y0, g)
        n0 = dp.l2_norm_sq(y0, g, kind="age_gene")
        assert np.isclose(report.box_decay_quotient,
                          sol.y_final_norm_sq / (1e-4 * n0), rtol=1e-12)
        assert np.isclose(report.cost_quotient, sol.control_cost / n0, rtol=1e-12)

    def test_zero_datum_yields_zero_quotients(self, bench_coeffs, coarse_grid):
        sol = dp.solve_control(dp.Field.zeros("age_gene", coarse_grid), 1e-4,
                               bench_coeffs, coarse_grid)
        report = dp.verify_null_reach(sol, dp.Field.zeros("age_gene", coarse_grid),
                                      coarse_grid)
        assert report.box_decay_quotient == 0.0 and report.cost_quotient == 0.0
