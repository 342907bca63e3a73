"""Backward solver, newborn-trace representation, characteristic integral,
and the discrete duality identity."""

import numpy as np
import pytest

import degenpop as dp
from tests.conftest import make_benchmark_grid


def _dead_window_coeffs(start=0.5):
    """Benchmark dispersion/mortality with fertility vanishing below `start`.

    The newborn-trace representation is an identity exactly when no fertile
    age is reachable within the time horizon (start >= T), so these
    coefficient sets are its natural test bed.
    """
    beta = dp.SeparableRate(
        age_factor=lambda a, s=start: np.where(a > s, (a - s) * (1.0 - a), 0.0),
        scale=4.0,
    )
    return dp.CoefficientSet(dispersion=dp.PowerLawDispersion(0.5, 0.5),
                             mu=dp.ConstantRate(0.1), beta=beta,
                             gamma=0.5, theta=0.5)


def _terminal_draw(grid, seed=11):
    return dp.age_gene_draw(dp.make_rng(seed), grid)


class TestBackwardTransportSkeleton:
    def test_pure_transport_is_an_exact_backward_shift(self, coarse_grid):
        g = coarse_grid
        coeffs = dp.CoefficientSet(dispersion=dp.ConstantDispersion(0.0),
                                   mu=dp.ConstantRate(0.0),
                                   beta=dp.ConstantRate(0.0), gamma=0.0)
        wT = _terminal_draw(g).values
        w = dp.solve_adjoint(dp.AdjointProblem(coeffs, g,
                                               dp.Field(wT, "age_gene", g))).values
        for n in (0, g.nt // 2, g.nt - 1):
            back = g.nt - n
            shifted = np.zeros_like(wT)
            shifted[:g.na + 1 - back] = wT[back:]
            shifted[:, 0] = shifted[:, -1] = 0.0
            # ages within `back` of the maximal age never see terminal data
            assert np.array_equal(w[n], shifted)

    def test_terminal_level_is_the_datum(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        wT = _terminal_draw(g)
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, g, wT)).values
        assert np.array_equal(w[g.nt], wT.values)

    def test_box_support_enforcement(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        full = _terminal_draw(g)
        with pytest.raises(ValueError, match="observation"):
            dp.AdjointProblem(bench_coeffs, g, full, require_box_support=True)
        boxed = dp.box_terminal_draw(dp.make_rng(3), g)
        dp.AdjointProblem(bench_coeffs, g, boxed, require_box_support=True)


class TestNewbornTrace:
    def test_trace_identity_is_exact_with_a_juvenile_dead_window(self, coarse_grid):
        g = coarse_grid
        coeffs = _dead_window_coeffs(0.5)
        prob = dp.AdjointProblem(coeffs, g, _terminal_draw(g))
        solver_row = dp.solve_adjoint(prob).values[:, 0, :]
        trace = dp.trace_age_zero(prob).values
        assert np.array_equal(solver_row, trace)

    def test_trace_is_insensitive_to_the_fertility_law(self, coarse_grid):
        g = coarse_grid
        wT = _terminal_draw(g)
        rows = []
        for start in (0.5, 0.45):
            prob = dp.AdjointProblem(_dead_window_coeffs(start), g, wT)
            rows.append((dp.solve_adjoint(prob).values[:, 0, :],
                         dp.trace_age_zero(prob).values))
        assert np.array_equal(rows[0][0], rows[1][0])
        assert np.array_equal(rows[0][1], rows[1][1])

    def test_trace_formula_needs_the_dead_window(self, bench_coeffs, coarse_grid):
        # with fertile ages inside the horizon the representation drops the
        # accumulated fertility source and must differ by an O(1) amount
        g = coarse_grid
        prob = dp.AdjointProblem(bench_coeffs, g, _terminal_draw(g))
        solver_row = dp.solve_adjoint(prob).values[:, 0, :]
        trace = dp.trace_age_zero(prob).values
        gap = dp.l2_norm(dp.Field(solver_row - trace, "time_gene", g), g,
                         kind="time_gene")
        ref = dp.l2_norm(dp.Field(trace, "time_gene", g), g, kind="time_gene")
        assert gap / ref > 1e-2


class TestCharacteristicIntegral:
    def test_region_of_validity_is_enforced(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        prob = dp.AdjointProblem(bench_coeffs, g, _terminal_draw(g))
        with pytest.raises(ValueError, match="exit region"):
            dp.duhamel_first_case(prob, 0.2, 0.2)

    def test_reconstruction_matches_solver_in_the_exit_region(self, bench_coeffs,
                                                              coarse_grid):
        g = coarse_grid
        prob = dp.AdjointProblem(bench_coeffs, g, _terminal_draw(g))
        w = dp.solve_adjoint(prob)
        n, j = g.nt // 4, 0
        # pick an age strictly inside the exit region a > t + (A - T)
        j_min = n + g.na - g.nt + 1
        j = min(g.na - 1, j_min + (g.na - j_min) // 2)
        row = dp.duhamel_first_case(prob, g.t_levels[n], g.a_levels[j], w_traj=w)
        ref = w.values[n, j, :]
        rel = np.linalg.norm(row - ref) / np.linalg.norm(ref)
        assert rel < 0.10

    def test_reconstruction_vanishes_without_fertility(self, coarse_grid):
        g = coarse_grid
        coeffs = dp.CoefficientSet(dispersion=dp.PowerLawDispersion(0.5, 0.5),
                                   mu=dp.ConstantRate(0.1),
                                   beta=dp.ConstantRate(0.0), gamma=0.5, theta=0.5)
        prob = dp.AdjointProblem(coeffs, g, _terminal_draw(g))
        row = dp.duhamel_first_case(prob, g.t_levels[2], g.a_levels[g.na - 2])
        assert np.all(row == 0.0)


class TestDuality:
    def test_identity_holds_to_quadrature_accuracy(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        rng = dp.make_rng(23)
        y0 = dp.age_gene_draw(rng, g)
        ctl = dp.Field(dp.trajectory_draw(rng, g).values
                       * g.omega_mask[None, None, :], "trajectory", g)
        wT = dp.age_gene_draw(rng, g)
        y = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0, control=ctl))
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, g, wT))
        assert dp.duality_residual(y, w, ctl, y0, wT, g) < 1e-3

    def test_identity_without_control(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        rng = dp.make_rng(29)
        y0 = dp.age_gene_draw(rng, g)
        wT = dp.age_gene_draw(rng, g)
        y = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0))
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, g, wT))
        assert dp.duality_residual(y, w, None, y0, wT, g) < 1e-3


    @pytest.mark.parametrize("cells", [(50, 20, 8), (100, 100, 40)])
    def test_identity_is_exact_for_terminal_data_below_the_maximal_age(
            self, bench_coeffs, cells):
        # Rough data on every node; the terminal datum lives on the box rows
        # delta <= a < A.  The a = A row stays zero: the terminal pairing
        # weighs it da/2 while its characteristic carries da, which leaves a
        # defect far above round-off (an open defect of the scheme).
        g = make_benchmark_grid(*cells)
        rng = dp.make_rng(31)
        y0 = rng.standard_normal((g.na + 1, g.nx + 1))
        ctl = rng.standard_normal((g.nt + 1, g.na + 1, g.nx + 1)) * g.omega_mask
        wT = rng.standard_normal((g.na + 1, g.nx + 1))
        for v in (y0, ctl, wT):
            v[..., [0, -1]] = 0.0
        wT[: g.delta_index] = 0.0
        wT[g.na] = 0.0
        y0, wT = dp.Field(y0, "age_gene", g), dp.Field(wT, "age_gene", g)
        ctl = dp.Field(ctl, "trajectory", g)
        y = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0, control=ctl))
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, g, wT))
        nt, na = g.nt, g.na
        pairings = (
            dp.inner_product(y.values[nt], wT, g, kind="age_gene"),
            dp.inner_product(y0, w.values[0], g, kind="age_gene"),
            g.dt * g.da * np.einsum("tax,x->", ctl.values[:nt, :na]
                                    * w.values[:nt, :na], g.wx),
        )
        largest = max(abs(p) for p in pairings)
        # duality_residual divides by max(1, largest); undo that to bound the
        # defect relative to the largest pairing itself
        residual = dp.duality_residual(y, w, ctl, y0, wT, g)
        assert residual * max(1.0, largest) <= 1e-13 * largest


class TestProblemValidation:
    def test_terminal_kind_and_finiteness(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        with pytest.raises(ValueError, match="age_gene"):
            dp.AdjointProblem(bench_coeffs, g, dp.Field.zeros("time_gene", g))
        bad = np.zeros((g.na + 1, g.nx + 1))
        bad[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dp.AdjointProblem(bench_coeffs, g, dp.Field(bad, "age_gene", g))
