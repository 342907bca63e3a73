"""Forward solver: transport exactness, renewal quadrature, analytic oracle."""

import warnings

import numpy as np
import pytest

import degenpop as dp
from tests.conftest import make_benchmark_grid


def _transport_coeffs():
    """Pure transport: no dispersion, no mortality, no fertility."""
    return dp.CoefficientSet(dispersion=dp.ConstantDispersion(0.0),
                             mu=dp.ConstantRate(0.0),
                             beta=dp.ConstantRate(0.0), gamma=0.0)


def _oracle_coeffs():
    """Nondegenerate separable benchmark: k=1, mu=0.1, no renewal."""
    return dp.CoefficientSet(dispersion=dp.ConstantDispersion(1.0),
                             mu=dp.ConstantRate(0.1),
                             beta=dp.ConstantRate(0.0), gamma=0.0)


def _separable_initial(grid):
    return dp.Field(np.outer(np.sin(np.pi * grid.a_levels) ** 2,
                             np.sin(np.pi * grid.x_nodes)), "age_gene", grid)


def _oracle_error(nx, na, nt):
    """Relative trajectory error against the exact separable solution.

    For k=1, mu=0.1, beta=0 and y0 = sin^2(pi a) sin(pi x), the solution is
    the initial datum carried along characteristics and damped by the x-mode
    decay: y = 1_{a>=t} e^{-(pi^2+0.1) t} sin^2(pi (a-t)) sin(pi x).
    """
    grid = make_benchmark_grid(nx, na, nt)
    y = dp.solve_forward(dp.ForwardProblem(_oracle_coeffs(), grid,
                                           _separable_initial(grid)))
    t = grid.t_levels[:, None, None]
    a = grid.a_levels[None, :, None]
    x = grid.x_nodes[None, None, :]
    exact = np.where(a >= t,
                     np.exp(-(np.pi ** 2 + 0.1) * t)
                     * np.sin(np.pi * (a - t)) ** 2 * np.sin(np.pi * x),
                     0.0)
    diff = dp.Field(y.values - exact, "trajectory", grid)
    return (dp.l2_norm(diff, grid, kind="trajectory")
            / dp.l2_norm(exact, grid, kind="trajectory"))


class TestTransportSkeleton:
    def test_pure_transport_is_an_exact_shift(self, coarse_grid):
        g = coarse_grid
        rng = np.random.default_rng(1)
        y0 = rng.standard_normal((g.na + 1, g.nx + 1))
        y0[:, 0] = y0[:, -1] = 0.0
        y = dp.solve_forward(dp.ForwardProblem(_transport_coeffs(), g,
                                               dp.Field(y0, "age_gene", g))).values
        for n in (1, g.nt // 2, g.nt):
            shifted = np.zeros_like(y0)
            shifted[n:] = y0[:g.na + 1 - n]
            assert np.array_equal(y[n], shifted)

    def test_dirichlet_columns_stay_zero(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        y0 = _separable_initial(g)
        y = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0)).values
        assert np.all(y[:, :, 0] == 0.0) and np.all(y[:, :, -1] == 0.0)


class TestRenewal:
    def test_quadrature_exact_for_linear_fertility(self, coarse_grid):
        g = coarse_grid
        ones = np.ones((g.na + 1, g.nx + 1))
        beta = dp.SeparableRate(age_factor=lambda a: a)
        # integral_0^1 a * 1 da = 1/2, trapezoid-exact for linear integrands
        row = dp.renewal_integral(ones, beta, 0, g)
        assert np.allclose(row, 0.5, rtol=1e-14)

    def test_newborn_row_respects_fertility_free_dynamics(self, coarse_grid):
        g = coarse_grid
        y = dp.solve_forward(dp.ForwardProblem(_oracle_coeffs(), g,
                                               _separable_initial(g))).values
        assert np.all(y[1:, 0, :] == 0.0)

    def test_newborn_row_matches_direct_quadrature(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        y = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g,
                                               _separable_initial(g))).values
        n = g.nt // 2
        expected = dp.renewal_integral(y[n], bench_coeffs.beta, n, g)
        expected[0] = expected[-1] = 0.0
        assert np.allclose(y[n, 0, :], expected, rtol=1e-13, atol=1e-15)


class TestSeparableOracle:
    def test_error_small_and_shrinking(self):
        err_coarse = _oracle_error(50, 50, 20)
        err_fine = _oracle_error(100, 100, 40)
        assert err_fine < 0.04
        assert err_fine < err_coarse < 0.15


class TestLinearityAndSources:
    def test_control_superposition(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        y0 = _separable_initial(g)
        ctl = dp.Field(dp.trajectory_draw(dp.make_rng(7), g).values
                       * g.omega_mask[None, None, :], "trajectory", g)
        both = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0, control=ctl))
        free = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0))
        driven = dp.solve_forward(dp.ForwardProblem(
            bench_coeffs, g, dp.Field.zeros("age_gene", g), control=ctl))
        assert np.allclose(both.values, free.values + driven.values,
                           rtol=1e-10, atol=1e-12)

    def test_control_outside_window_warns_and_is_ignored(self, bench_coeffs,
                                                         coarse_grid):
        g = coarse_grid
        full = dp.Field(np.ones((g.nt + 1, g.na + 1, g.nx + 1)), "trajectory", g)
        masked = dp.Field(full.values * g.omega_mask[None, None, :], "trajectory", g)
        y0 = _separable_initial(g)
        with pytest.warns(UserWarning, match="outside the control window"):
            leaky = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0,
                                                       control=full))
        clean = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0,
                                                   control=masked))
        assert np.array_equal(leaky.values, clean.values)

    def test_masked_control_is_the_masked_product_bit_for_bit(self, bench_coeffs,
                                                              coarse_grid):
        g = coarse_grid
        y0 = _separable_initial(g)
        mask = g.omega_mask[None, None, :]
        draw = dp.trajectory_draw(dp.make_rng(11), g).values
        tiny = draw * mask + 1e-300 * (1.0 - mask)  # below the warning level
        for values, leaks in ((draw, True), (draw * mask, False),
                              (-np.abs(draw) * mask, False), (tiny, False)):
            problem = dp.ForwardProblem(bench_coeffs, g, y0,
                                        control=dp.Field(values, "trajectory", g))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = problem.masked_control()
            assert len(caught) == int(leaks)
            # bytes, so that the sign of every zero outside the window counts
            assert got.tobytes() == (values * mask).tobytes()
            # never a writable alias of the caller's control
            assert not got.flags.writeable or not np.shares_memory(got, values)

    def test_problem_validation(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        with pytest.raises(ValueError, match="age_gene"):
            dp.ForwardProblem(bench_coeffs, g, dp.Field.zeros("trajectory", g))
        bad = np.zeros((g.na + 1, g.nx + 1))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            dp.ForwardProblem(bench_coeffs, g, dp.Field(bad, "age_gene", g))
        values = dp.trajectory_draw(dp.make_rng(7), g).values * g.omega_mask
        values[3, g.delta_index, g.nx // 2] = np.nan
        with pytest.raises(ValueError, match="^control contains non-finite values$"):
            dp.ForwardProblem(bench_coeffs, g, dp.Field.zeros("age_gene", g),
                              control=dp.Field(values, "trajectory", g))

    def test_inputs_of_another_grid_are_rejected(self, bench_coeffs):
        # before, a control of a 16-level grid ran on its first 8 levels, and a
        # y0 of another gene count failed inside the solve with numpy's
        # broadcast error
        g, other = make_benchmark_grid(50, 20, 8), make_benchmark_grid(50, 40, 16)
        y0 = dp.Field(np.ones(g.shape("age_gene")), "age_gene", g)
        control = dp.trajectory_draw(dp.make_rng(7), other)
        with pytest.raises(ValueError, match=r"^control must have the trajectory shape "
                                             r"\(9, 21, 51\), got \(17, 41, 51\)$"):
            dp.ForwardProblem(bench_coeffs, g, y0, control=control)
        wide = dp.Field(np.ones((g.na + 1, 101)), "age_gene", make_benchmark_grid(100, 20, 8))
        with pytest.raises(ValueError, match=r"^y0 must have the age-gene shape "
                                             r"\(21, 51\), got \(21, 101\)$"):
            dp.ForwardProblem(bench_coeffs, g, wide)


class TestEnergyReport:
    def test_empirical_a_priori_bound(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        prob = dp.ForwardProblem(bench_coeffs, g, _separable_initial(g))
        report = dp.energy_report(dp.solve_forward(prob), prob)
        assert report.sup_t_norm > 0 and report.sup_a_norm > 0
        assert report.hk_dissipation >= 0
        assert 0 < report.ratio < 10.0

    def test_control_norm_uses_foot_rectangle_rule(self, coarse_grid):
        g = coarse_grid
        vals = np.ones((g.nt + 1, g.na + 1, g.nx + 1))
        # rectangle rule in (t, a) over foot samples, trapezoid in x: T*A*1
        assert np.isclose(dp.control_norm_sq(vals, g), g.T * g.A, rtol=1e-14)

    def test_fields_of_another_grid_are_rejected(self, bench_coeffs):
        # control_norm_sq once cut a (17, 41, 51) block down to the (9, 21, 51)
        # grid's foot rectangle, and energy_report failed inside numpy
        g, other = make_benchmark_grid(50, 20, 8), make_benchmark_grid(50, 40, 16)
        with pytest.raises(ValueError, match=r"^control must have the trajectory shape "
                                             r"\(9, 21, 51\), got \(17, 41, 51\)$"):
            dp.control_norm_sq(np.ones(other.shape("trajectory")), g)
        prob = dp.ForwardProblem(bench_coeffs, g, _separable_initial(g))
        state = dp.solve_forward(dp.ForwardProblem(bench_coeffs, other,
                                                   _separable_initial(other)))
        with pytest.raises(ValueError, match=r"^trajectory must have the trajectory shape "
                                             r"\(9, 21, 51\), got \(17, 41, 51\)$"):
            dp.energy_report(state, prob)
