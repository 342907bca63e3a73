"""The closed-form box Gram blocks and the control CG they precondition."""

import numpy as np
import pytest

import degenpop as dp
from degenpop.config import _parse_rate
from degenpop.control import box_gram_block, box_precondition
from tests.conftest import (box_mask, make_benchmark_coeffs, make_benchmark_grid,
                            make_mortality_coeffs)


def _coeffs(mortality, grid):
    """Benchmark coefficients with mortality in the config vocabulary, or one
    of conftest's "separable" and "tabulated" mortalities."""
    if mortality in ("separable", "tabulated"):
        return make_mortality_coeffs(mortality, grid)
    bench = make_benchmark_coeffs()
    mu = _parse_rate(mortality)(1.0)
    return dp.CoefficientSet(dispersion=bench.dispersion, mu=mu, beta=bench.beta,
                             gamma=bench.gamma, theta=bench.theta)


def _probe_blocks(coeffs, grid):
    """The Gram block of every box row, column by column through `gram_apply`.

    The probe of gene g puts a unit on gene g of every box row; box rows do
    not couple, so its apply gives column g of every row's block, and m
    applies give every block.  Returns an (R, m, m) array, row by row.
    """
    d, m = grid.delta_index, grid.nx - 1
    blocks = np.empty((grid.na - d + 1, m, m))
    for gene in range(m):
        probe = np.zeros(grid.shape("age_gene"))
        probe[d:, 1 + gene] = 1.0
        blocks[:, :, gene] = dp.gram_apply(probe, coeffs, grid)[d:, 1:-1]
    return blocks


def _closed_blocks(coeffs, grid):
    """Every box row's block q diag(sigma) q^T of `box_gram_block`, (R, m, m)."""
    q, sigma, rows = box_gram_block(coeffs, grid)
    return ((q * sigma[:, None, :]) @ q.transpose(0, 2, 1))[rows]


def _cells_id(cells):
    return "x".join(map(str, cells))


VOCABULARY = ["constant:0.1", "zero", "age_poly:0.1,0.5,1.0", "mature_hump:2.0,0.5"]


class TestClosedFormBlock:
    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 150, 60)], ids=_cells_id)
    @pytest.mark.parametrize("mortality", VOCABULARY + ["separable"])
    def test_matches_gram_apply_on_unit_probes(self, cells, mortality):
        g = make_benchmark_grid(*cells)
        coeffs = _coeffs(mortality, g)
        closed, probed = _closed_blocks(coeffs, g), _probe_blocks(coeffs, g)
        gap = np.max(np.abs(closed - probed), axis=(1, 2))
        assert np.all(gap <= 1e-12 * np.max(np.abs(probed), axis=(1, 2)))

    @pytest.mark.parametrize("mortality", ["constant:0.1", "zero"])
    def test_constant_mortality_builds_one_block(self, coarse_grid, mortality):
        q, sigma, rows = box_gram_block(_coeffs(mortality, coarse_grid), coarse_grid)
        assert q.shape[0] == sigma.shape[0] == 1
        assert rows.shape == (coarse_grid.na - coarse_grid.delta_index + 1,)
        assert np.all(rows == 0)

    def test_rows_with_distinct_mortality_histories_get_their_own_blocks(self,
                                                                        coarse_grid):
        q, _, rows = box_gram_block(_coeffs("age_poly:0.1,0.5,1.0", coarse_grid),
                                    coarse_grid)
        assert sorted(rows) == list(range(len(q)))
        assert len(q) == coarse_grid.na - coarse_grid.delta_index + 1

    def test_is_orthogonally_diagonalized(self, coarse_grid):
        q, sigma, _ = box_gram_block(_coeffs("age_poly:0.1,0.5,1.0", coarse_grid),
                                     coarse_grid)
        eye = np.eye(q.shape[1])
        assert np.max(np.abs(q.transpose(0, 2, 1) @ q - eye)) <= 1e-13
        assert np.all(sigma.max(axis=1) > 0.0)
        assert np.all(sigma.min(axis=1) >= -1e-15 * sigma.max(axis=1))  # psd to round-off

    def test_gene_dependent_mortality_takes_the_gene_mean_of_each_row(self,
                                                                      coarse_grid):
        g = coarse_grid
        coeffs = make_mortality_coeffs("tabulated", g)
        table = np.zeros(g.shape("trajectory"))
        table[..., 1:-1] = np.stack([coeffs.mu.level(n, g)[:, 1:-1].mean(axis=1)
                                     for n in range(g.nt + 1)])[..., None]
        flat = dp.CoefficientSet(dispersion=coeffs.dispersion, mu=dp.TabulatedRate(table),
                                 beta=coeffs.beta, gamma=coeffs.gamma, theta=coeffs.theta)
        blocks, flat_blocks = _closed_blocks(coeffs, g), _closed_blocks(flat, g)
        assert np.max(np.abs(blocks - flat_blocks)) <= 1e-13 * np.max(np.abs(flat_blocks))
        # that is an approximation of the rows' own blocks, not the blocks
        probed = _probe_blocks(coeffs, g)
        assert np.max(np.abs(blocks - probed)) > 1e-6 * np.max(np.abs(probed))


def _random_box(rng, grid):
    r = np.zeros(grid.shape("age_gene"))
    r[grid.delta_index:, 1:-1] = rng.standard_normal((grid.na - grid.delta_index + 1,
                                                      grid.nx - 1))
    return r


class TestPreconditioner:
    @pytest.mark.parametrize("mortality", ["constant:0.1", "zero", "age_poly:0.1,0.5,1.0",
                                           "separable", "tabulated"])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5])
    def test_symmetric_and_positive_in_the_box_inner_product(self, coarse_grid,
                                                             mortality, epsilon):
        g = coarse_grid
        block = box_gram_block(_coeffs(mortality, g), g)
        rng = dp.make_rng(43)
        for _ in range(3):
            r1, r2 = _random_box(rng, g), _random_box(rng, g)
            z1 = box_precondition(r1, block, epsilon, g)
            z2 = box_precondition(r2, block, epsilon, g)
            a12, a21 = dp.box_inner(z1, r2, g), dp.box_inner(r1, z2, g)
            assert abs(a12 - a21) <= 1e-14 * max(abs(a12), abs(a21))
            assert dp.box_inner(z1, r1, g) > 0.0
            assert dp.box_inner(z2, r2, g) > 0.0

    @pytest.mark.parametrize("mortality", ["constant:0.1", "age_poly:0.1,0.5,1.0",
                                           "separable"])
    def test_inverts_the_penalized_gram_operator(self, coarse_grid, mortality):
        g = coarse_grid
        coeffs = _coeffs(mortality, g)
        block = box_gram_block(coeffs, g)
        x = _random_box(dp.make_rng(47), g)
        for epsilon in (1e-2, 1e-5):
            back = box_precondition(dp.gram_apply(x, coeffs, g) + epsilon * x,
                                    block, epsilon, g)
            assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    def test_is_zero_off_the_box(self, coarse_grid):
        g = coarse_grid
        r = dp.make_rng(53).standard_normal(g.shape("age_gene"))
        block = box_gram_block(_coeffs("age_poly:0.1,0.5,1.0", g), g)
        z = box_precondition(r, block, 1e-3, g)
        assert np.all(z[:g.delta_index] == 0.0)
        assert np.all(z[:, [0, -1]] == 0.0)


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

# CG iterations on tabulated mortality with the preconditioner that took the
# mean mortality of all box characteristics, per penalty 1e-2 .. 1e-5
MEAN_BLOCK_ITERATIONS = {1e-2: 4, 1e-3: 4, 1e-4: 4, 1e-5: 4}


class TestAgainstPlainCG:
    @pytest.mark.parametrize("mortality", MORTALITIES)
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5])
    def test_probe_matches_the_reference_solve(self, mortality, epsilon):
        # both solves stop at a residual of at most tol * ||r|| and
        # (Gram + eps I)^-1 has norm at most 1 / eps, so the probes differ by
        # at most 2 tol ||r|| / eps in the box norm
        g = make_benchmark_grid(50, 20, 8)
        coeffs = _coeffs(mortality, g)
        tol = 1e-12
        target = _target(coeffs, g)
        ref, _ = _reference_cg(target, epsilon, coeffs, g, tol)
        sol = dp.solve_control(dp.ControlProblem(coeffs, g, _initial(g)), epsilon, tol=tol)
        assert sol.converged
        gap = sol.terminal_probe.values - ref
        bound = 2.0 * tol * np.sqrt(dp.box_inner(target, target, g)) / epsilon
        assert np.sqrt(dp.box_inner(gap, gap, g)) <= bound

    @pytest.mark.parametrize("mortality", MORTALITIES + ["zero", "separable", "tabulated"])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_takes_no_more_iterations(self, mortality, epsilon):
        g = make_benchmark_grid(50, 20, 8)
        coeffs = _coeffs(mortality, g)
        _, history = _reference_cg(_target(coeffs, g), epsilon, coeffs, g, 1e-6)
        sol = dp.solve_control(dp.ControlProblem(coeffs, g, _initial(g)), epsilon)
        assert sol.converged
        assert sol.cg_iterations <= len(history)
        if mortality == "tabulated":
            # the gene mean leaves the blocks approximate
            assert sol.cg_iterations <= MEAN_BLOCK_ITERATIONS[epsilon]
        else:
            assert sol.cg_iterations == 1  # the blocks are exact
