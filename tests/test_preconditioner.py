"""The closed-form box Gram block and the control CG it preconditions."""

import numpy as np
import pytest

import degenpop as dp
from degenpop.config import _parse_rate
from degenpop.control import box_gram_block, box_precondition
from tests.conftest import (box_mask, make_benchmark_coeffs, make_benchmark_grid,
                            make_mortality_coeffs)


def _coeffs(mortality):
    """Benchmark coefficients with mortality given in the config vocabulary."""
    bench = make_benchmark_coeffs()
    mu = _parse_rate(mortality)(1.0)
    return dp.CoefficientSet(dispersion=bench.dispersion, mu=mu, beta=bench.beta,
                             gamma=bench.gamma, theta=bench.theta)


def _probe_block(coeffs, grid):
    """The Gram block of one box row, column by column through `gram_apply`.

    Each probe puts a unit on one gene of every box row, a different gene on
    each row, so ceil(m / box rows) applies give all m columns.  Valid when
    every box row carries the same block (mortality constant in t and a).
    """
    d, m = grid.delta_index, grid.nx - 1
    box_rows = grid.na - d + 1
    block = np.empty((m, m))
    for first in range(0, m, box_rows):
        genes = range(first, min(first + box_rows, m))
        probe = np.zeros(grid.shape("age_gene"))
        for row, gene in enumerate(genes):
            probe[d + row, 1 + gene] = 1.0
        out = dp.gram_apply(probe, coeffs, grid)
        for row, gene in enumerate(genes):
            block[:, gene] = out[d + row, 1:-1]
    return block


def _cells_id(cells):
    return "x".join(map(str, cells))


class TestClosedFormBlock:
    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 150, 60)], ids=_cells_id)
    @pytest.mark.parametrize("mortality", ["constant:0.1", "zero"])
    def test_matches_gram_apply_on_unit_probes(self, cells, mortality):
        g = make_benchmark_grid(*cells)
        coeffs = _coeffs(mortality)
        q, sigma = box_gram_block(coeffs, g)
        closed = (q * sigma) @ q.T
        probed = _probe_block(coeffs, g)
        assert np.max(np.abs(closed - probed)) <= 1e-12 * np.max(np.abs(probed))

    def test_is_orthogonally_diagonalized(self, bench_coeffs, coarse_grid):
        q, sigma = box_gram_block(bench_coeffs, coarse_grid)
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) <= 1e-13
        assert sigma.max() > 0.0
        assert sigma.min() >= -1e-15 * sigma.max()  # psd to round-off


def _random_box(rng, grid):
    r = np.zeros(grid.shape("age_gene"))
    r[grid.delta_index:, 1:-1] = rng.standard_normal((grid.na - grid.delta_index + 1,
                                                      grid.nx - 1))
    return r


class TestPreconditioner:
    @pytest.mark.parametrize("mortality", ["constant:0.1", "zero",
                                           "age_poly:0.1,0.5,1.0"])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5])
    def test_symmetric_and_positive_in_the_box_inner_product(self, coarse_grid,
                                                             mortality, epsilon):
        g = coarse_grid
        block = box_gram_block(_coeffs(mortality), g)
        rng = dp.make_rng(43)
        for _ in range(3):
            r1, r2 = _random_box(rng, g), _random_box(rng, g)
            z1 = box_precondition(r1, block, epsilon, g)
            z2 = box_precondition(r2, block, epsilon, g)
            a12, a21 = dp.box_inner(z1, r2, g), dp.box_inner(r1, z2, g)
            assert abs(a12 - a21) <= 1e-14 * max(abs(a12), abs(a21))
            assert dp.box_inner(z1, r1, g) > 0.0
            assert dp.box_inner(z2, r2, g) > 0.0

    def test_inverts_the_penalized_gram_operator(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        block = box_gram_block(bench_coeffs, g)
        x = _random_box(dp.make_rng(47), g)
        for epsilon in (1e-2, 1e-5):
            back = box_precondition(dp.gram_apply(x, bench_coeffs, g) + epsilon * x,
                                    block, epsilon, g)
            assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    def test_is_zero_off_the_box(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        r = dp.make_rng(53).standard_normal(g.shape("age_gene"))
        z = box_precondition(r, box_gram_block(bench_coeffs, g), 1e-3, g)
        assert np.all(z[:g.delta_index] == 0.0)
        assert np.all(z[:, [0, -1]] == 0.0)

    def test_varying_mortality_takes_the_mean_over_the_box_characteristics(
            self, coarse_grid):
        g = coarse_grid
        nt, na, d = g.nt, g.na, g.delta_index
        coeffs = make_mortality_coeffs("tabulated", g)
        mean = np.mean([coeffs.mu.level(n, g)[d - nt + n:na - nt + n + 1, 1:-1]
                        for n in range(nt)], axis=(0, 1))
        table = np.zeros(g.shape("trajectory"))
        table[..., 1:-1] = mean
        flat = dp.CoefficientSet(dispersion=coeffs.dispersion, mu=dp.TabulatedRate(table),
                                 beta=coeffs.beta, gamma=coeffs.gamma, theta=coeffs.theta)
        q, sigma = box_gram_block(coeffs, g)
        q0, sigma0 = box_gram_block(flat, g)
        block, block0 = (q * sigma) @ q.T, (q0 * sigma0) @ q0.T
        assert np.max(np.abs(block - block0)) <= 1e-13 * np.max(np.abs(block0))
        assert not np.allclose(sigma, box_gram_block(make_benchmark_coeffs(), g)[1],
                               rtol=1e-6, atol=0.0)


def _initial(grid):
    return dp.Field(np.outer(grid.a_levels * (grid.A - grid.a_levels),
                             np.sin(np.pi * grid.x_nodes)), "age_gene", grid)


def _reference_cg(target, epsilon, coeffs, grid, tol, maxit=2000):
    """Unpreconditioned CG on (Gram + epsilon I) p = target, in the box
    inner product: the control solve before it was preconditioned.

    Returns the probe p and the relative residual of every iteration.
    """
    rhs_norm = np.sqrt(dp.box_inner(target, target, grid))
    p = np.zeros_like(target)
    r = target.copy()
    d = r.copy()
    rs = dp.box_inner(r, r, grid)
    history = []
    for _ in range(maxit):
        ad = dp.gram_apply(d, coeffs, grid) + epsilon * d
        alpha = rs / dp.box_inner(d, ad, grid)
        p += alpha * d
        r -= alpha * ad
        rs_new = dp.box_inner(r, r, grid)
        history.append(np.sqrt(rs_new) / rhs_norm)
        if history[-1] <= tol:
            return p, history
        d = r + (rs_new / rs) * d
        rs = rs_new
    raise AssertionError("reference CG hit its iteration cap")


def _target(coeffs, grid):
    free = dp.solve_forward(dp.ForwardProblem(coeffs, grid, _initial(grid)))
    return free.values[grid.nt] * box_mask(grid)


MORTALITIES = ["constant:0.1", "age_poly:0.1,0.5,1.0", "mature_hump:2.0,0.5"]


class TestAgainstPlainCG:
    @pytest.mark.parametrize("mortality", MORTALITIES)
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5])
    def test_probe_matches_the_reference_solve(self, mortality, epsilon):
        # both solves stop at a residual of at most tol * ||r|| and
        # (Gram + eps I)^-1 has norm at most 1 / eps, so the probes differ by
        # at most 2 tol ||r|| / eps in the box norm
        g = make_benchmark_grid(50, 20, 8)
        coeffs = _coeffs(mortality)
        tol = 1e-12
        target = _target(coeffs, g)
        ref, _ = _reference_cg(target, epsilon, coeffs, g, tol)
        sol = dp.solve_control(dp.ControlProblem(coeffs, g, _initial(g)), epsilon, tol=tol)
        assert sol.converged
        gap = sol.terminal_probe.values - ref
        bound = 2.0 * tol * np.sqrt(dp.box_inner(target, target, g)) / epsilon
        assert np.sqrt(dp.box_inner(gap, gap, g)) <= bound

    @pytest.mark.parametrize("mortality", MORTALITIES)
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_takes_no_more_iterations(self, mortality, epsilon):
        g = make_benchmark_grid(50, 20, 8)
        coeffs = _coeffs(mortality)
        _, history = _reference_cg(_target(coeffs, g), epsilon, coeffs, g, 1e-6)
        sol = dp.solve_control(dp.ControlProblem(coeffs, g, _initial(g)), epsilon)
        assert sol.converged
        assert sol.cg_iterations <= len(history)
        if mortality == "constant:0.1":
            assert sol.cg_iterations == 1  # the block is exact
