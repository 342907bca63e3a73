"""Tridiagonal kernel: both loops of `TridiagonalOperator.solve` against the
row-major twisted sweep, compared bit for bit, and against the textbook sweep
and a dense solve, compared to round-off."""

from dataclasses import replace

import numpy as np
import pytest

import degenpop as dp
from degenpop.model import midpoint_dispersion
from degenpop.stepping import TridiagonalOperator, level_operators
from tests.conftest import make_benchmark_grid, make_mortality_coeffs

# odd and even gene counts, down to the degenerate ones with no or one step
GENE_COUNTS = [1, 2, 3, 4, 48, 49, 99]


def _twisted_reference(lower, diag, upper, rhs, rows=None):
    """Row-major twisted factorization and sweep, one gene index at a time.

    Eliminates down from gene 0 to gene k-1 and up from gene m-1 to gene
    k+1, where k = m // 2, solves the twist gene k from what both ends left,
    and substitutes back outward.  The rhs is scaled by the reciprocal
    pivots first, s = rhs * inv, and each chain step subtracts the coupling
    times the reciprocal pivot, h = near * inv, times the gene before:
    z = s - h * z_prev.  The twist gene takes (s_k - h_l * z_{k-1}) - h_u *
    z_{k+1}, with h_l = lower[k] * inv_k and h_u = upper[k] * inv_k.  The
    off-diagonals are shared, shape (m,); any rhs that broadcasts against
    the selected rows is solved.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    batch, m = diag.shape
    k = m // 2
    inv = np.empty((batch, m))
    far = np.empty((batch, m))
    for i in range(k):
        pivot = diag[:, i] if i == 0 else diag[:, i] - lower[i] * far[:, i - 1]
        inv[:, i] = 1.0 / pivot
        far[:, i] = upper[i] * inv[:, i]
    for j in range(m - 1, k, -1):
        pivot = diag[:, j] if j == m - 1 else diag[:, j] - upper[j] * far[:, j + 1]
        inv[:, j] = 1.0 / pivot
        far[:, j] = lower[j] * inv[:, j]
    pivot = diag[:, k]
    if k > 0:
        pivot = pivot - lower[k] * far[:, k - 1]
    if k < m - 1:
        pivot = pivot - upper[k] * far[:, k + 1]
    inv[:, k] = 1.0 / pivot
    if rows is not None and batch > 1:
        inv, far = inv[rows], far[rows]
    rhs = np.asarray(rhs, dtype=float)
    y = np.empty(np.broadcast_shapes(rhs.shape, inv.shape))
    s = rhs * inv
    for i in range(k):
        y[..., i] = (s[..., i] if i == 0
                     else s[..., i] - lower[i] * inv[..., i] * y[..., i - 1])
    for j in range(m - 1, k, -1):
        y[..., j] = (s[..., j] if j == m - 1
                     else s[..., j] - upper[j] * inv[..., j] * y[..., j + 1])
    z = s[..., k]
    if k > 0:
        z = z - lower[k] * inv[..., k] * y[..., k - 1]
    if k < m - 1:
        z = z - upper[k] * inv[..., k] * y[..., k + 1]
    y[..., k] = z
    for i in range(k - 1, -1, -1):
        y[..., i] -= far[..., i] * y[..., i + 1]
    for j in range(k + 1, m):
        y[..., j] -= far[..., j] * y[..., j - 1]
    return y


def _textbook_solve(lower, diag, upper, rhs, rows=None):
    """Row-major textbook Thomas sweep: down from gene 0, back from gene m-1."""
    diag = np.asarray(diag, dtype=float)
    batch, m = diag.shape
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (batch, m))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (batch, m))
    cp = np.empty((batch, m))
    inv = np.empty((batch, m))
    inv[:, 0] = 1.0 / diag[:, 0]
    cp[:, 0] = upper[:, 0] * inv[:, 0]
    for i in range(1, m):
        inv[:, i] = 1.0 / (diag[:, i] - lower[:, i] * cp[:, i - 1])
        cp[:, i] = upper[:, i] * inv[:, i]
    if rows is not None and batch > 1:
        lower, cp, inv = lower[rows], cp[rows], inv[rows]
    rhs = np.asarray(rhs, dtype=float)
    y = np.empty(np.broadcast_shapes(rhs.shape, inv.shape))
    y[..., 0] = rhs[..., 0] * inv[..., 0]
    for i in range(1, m):
        y[..., i] = (rhs[..., i] - lower[..., i] * y[..., i - 1]) * inv[..., i]
    for i in range(m - 2, -1, -1):
        y[..., i] -= cp[..., i] * y[..., i + 1]
    return y


def _dense_solve(lower, diag, upper, rhs, rows=None):
    """np.linalg.solve on each selected matrix, assembled dense."""
    diag = np.asarray(diag, dtype=float)
    if rows is not None and diag.shape[0] > 1:
        diag = diag[rows]
    diag = np.broadcast_to(diag, rhs.shape)
    mats = np.zeros(rhs.shape + rhs.shape[-1:])
    idx = np.arange(rhs.shape[-1])
    mats[:, idx, idx] = diag
    mats[:, idx[1:], idx[:-1]] = lower[1:]
    mats[:, idx[:-1], idx[1:]] = upper[:-1]
    return np.linalg.solve(mats, rhs[..., None])[..., 0]


def _check_solve(op, lower, diag, upper, rhs, rows=None):
    """Bit for bit the twisted reference; within 1e-14 max|y| of the others."""
    got = op.solve(rhs, rows=rows)
    want = _twisted_reference(lower, diag, upper, rhs, rows=rows)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    scale = 1e-14 * np.abs(got).max()
    assert np.abs(got - _textbook_solve(lower, diag, upper, rhs, rows=rows)).max() <= scale
    assert np.abs(got - _dense_solve(lower, diag, upper, rhs, rows=rows)).max() <= scale


def _diffusion_batch(m, batch, rng):
    """Degenerate flux-form diffusion plus an age-dependent mortality.

    The off-diagonals are 1-D, shared by the batch; the diagonal is (batch, m).
    """
    x_mid = (np.arange(m + 1) + 0.5) / (m + 1)
    k_mid = np.abs(x_mid - 0.5) ** 0.5
    scale = 0.01 * (m + 1) ** 2
    lower = -scale * k_mid[:-1]
    upper = -scale * k_mid[1:]
    diag = 1.0 + scale * (k_mid[:-1] + k_mid[1:]) + 0.01 * rng.uniform(0, 3, (batch, m))
    return lower, diag, upper


@pytest.fixture
def rng():
    return np.random.default_rng(20170404)


class TestSharedBatch:
    @pytest.mark.parametrize("shape", [(1, 49), (150, 49)])
    def test_bit_identical_to_row_major_sweep(self, rng, shape):
        lower, diag, upper = _diffusion_batch(49, 1, rng)
        _check_solve(TridiagonalOperator(lower, diag, upper), lower, diag, upper,
                     rng.standard_normal(shape))

    def test_single_row_equals_row_of_batched_call(self, rng):
        op = TridiagonalOperator(*_diffusion_batch(99, 1, rng))
        rhs = rng.standard_normal((7, 99))
        batched = op.solve(rhs)
        for r in range(rhs.shape[0]):
            assert np.array_equal(op.solve(rhs[r:r + 1])[0], batched[r])

    @pytest.mark.parametrize("m", [2, 4, 48])
    def test_single_row_equals_row_of_batched_call_at_an_even_gene_count(self, rng, m):
        op = TridiagonalOperator(*_diffusion_batch(m, 1, rng))
        rhs = rng.standard_normal((7, m))
        rhs[2, -1] = -0.0  # the decoupled row must not flip the sign of a zero
        rhs[3] = -0.0
        batched = op.solve(rhs)
        for r in range(rhs.shape[0]):
            assert op.solve(rhs[r:r + 1])[0].tobytes() == batched[r].tobytes()
        assert np.signbit(batched[3]).all()


class TestAgeDependentBatch:
    NA = 40

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(1, NA), None])
    def test_bit_identical_to_row_major_sweep(self, rng, rows):
        lower, diag, upper = _diffusion_batch(49, self.NA, rng)
        n_rows = len(range(self.NA)[rows]) if rows is not None else self.NA
        rhs = rng.standard_normal((n_rows, 49))
        _check_solve(TridiagonalOperator(lower, diag, upper), lower, diag, upper, rhs,
                     rows=rows)

    def test_single_row_equals_row_of_batched_call(self, rng):
        op = TridiagonalOperator(*_diffusion_batch(49, self.NA, rng))
        rhs = rng.standard_normal((self.NA, 49))
        batched = op.solve(rhs)
        for j in range(self.NA):
            alone = op.solve(rhs[j:j + 1], rows=slice(j, j + 1))
            assert np.array_equal(alone[0], batched[j])

    def test_single_row_equals_row_of_batched_call_at_an_even_gene_count(self, rng):
        op = TridiagonalOperator(*_diffusion_batch(48, self.NA, rng))
        rhs = rng.standard_normal((self.NA, 48))
        batched = op.solve(rhs)
        for j in range(self.NA):
            alone = op.solve(rhs[j:j + 1], rows=slice(j, j + 1))
            assert np.array_equal(alone[0], batched[j])

    @pytest.mark.parametrize("rhs_rows, rows, selected", [
        (1, slice(2, 9), 7),   # one row is not broadcast over several matrices
        (5, slice(2, 9), 7),
        (1, None, NA),
    ])
    def test_rhs_rows_must_match_the_selected_matrices(self, rng, rhs_rows, rows, selected):
        op = TridiagonalOperator(*_diffusion_batch(49, self.NA, rng))
        with pytest.raises(ValueError, match=f"{rhs_rows} rows but {selected} matrices"):
            op.solve(np.zeros((rhs_rows, 49)), rows=rows)


class TestReusedBuffer:
    """A solve works in a buffer kept for its row count; no solution is a view of it."""

    @pytest.mark.parametrize("batch", [1, 40])
    def test_a_solution_is_unchanged_by_the_next_solve_of_as_many_rows(self, rng, batch):
        op = TridiagonalOperator(*_diffusion_batch(49, batch, rng))
        first = op.solve(rng.standard_normal((batch if batch > 1 else 6, 49)))
        kept = first.copy()
        second = op.solve(rng.standard_normal(first.shape))
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("batch, calls", [
        (1, [(None, 6), (None, 9), (None, 6)]),
        (40, [(np.array([5, 0, 39, 5, 12]), 5), (slice(1, 40), 39),
              (np.array([7, 7, 3, 30, 2]), 5)]),
    ], ids=["shared", "age-index"])
    def test_alternating_row_counts(self, rng, batch, calls):
        lower, diag, upper = _diffusion_batch(48, batch, rng)
        op = TridiagonalOperator(lower, diag, upper)
        solved = []
        for rows, n_rows in calls:
            rhs = rng.standard_normal((n_rows, 48))
            got = op.solve(rhs, rows=rows)
            solved.append((got, got.copy(), rhs, rows))
        for got, kept, rhs, rows in solved:
            assert got.tobytes() == kept.tobytes()
            want = _twisted_reference(lower, diag, upper, rhs, rows=rows)
            assert got.tobytes() == want.tobytes()
        # after the reuse, a row solved alone still equals its row of the batch
        got, _, rhs, rows = solved[-1]
        for r in range(rhs.shape[0]):
            one = None if rows is None else rows[r:r + 1]
            assert op.solve(rhs[r:r + 1], rows=one)[0].tobytes() == got[r].tobytes()


@pytest.mark.parametrize("m", GENE_COUNTS)
@pytest.mark.parametrize("batch, rows, n_rows", [
    (1, None, 1), (1, None, 150),
    (1, slice(3, 5), 6),  # a shared batch ignores rows
    (40, None, 40), (40, slice(1, 40), 39), (40, slice(3, 4), 1),
    (40, np.array([5, 0, 39, 5, 12]), 5),
], ids=["shared-1", "shared-150", "shared-rows", "age-all", "age-slice", "age-one",
        "age-index"])
def test_every_gene_count_matches_the_references(rng, m, batch, rows, n_rows):
    lower, diag, upper = _diffusion_batch(m, batch, rng)
    op = TridiagonalOperator(lower, diag, upper)
    _check_solve(op, lower, diag, upper, rng.standard_normal((n_rows, m)), rows=rows)
    # a new row count replaces the coefficient blocks repeated for the last one
    n_next = n_rows + 2 if batch == 1 else batch
    _check_solve(op, lower, diag, upper, rng.standard_normal((n_next, m)))


@pytest.mark.parametrize("batch", [1, 40])
def test_rejects_rhs_that_is_not_rows_of_gene_length(rng, batch):
    op = TridiagonalOperator(*_diffusion_batch(49, batch, rng))
    for shape in [(3, 48), (2, 3, 49), (49,)]:
        with pytest.raises(ValueError, match=r"\(r, m\) with m=49"):
            op.solve(np.zeros(shape), rows=slice(0, 1))


def _implicit_step_coefficients(coeffs, grid):
    """Off-diagonals and mortality-free diagonal of M = I + dt (-L_k + mu)."""
    dt, inv_dx2 = grid.dt, 1.0 / (grid.dx * grid.dx)
    k_mid = midpoint_dispersion(coeffs.dispersion, grid)
    return (-dt * k_mid[:-1] * inv_dx2,
            1.0 + dt * (k_mid[:-1] + k_mid[1:]) * inv_dx2,
            -dt * k_mid[1:] * inv_dx2)


def test_level_operators_match_reference_on_an_age_dependent_mortality():
    grid = make_benchmark_grid(50, 30, 12)
    mu = dp.SeparableRate(age_factor=lambda a: 0.1 + a ** 2)
    coeffs = dp.CoefficientSet(dispersion=dp.PowerLawDispersion(0.5, 0.5), mu=mu,
                               beta=dp.ConstantRate(0.0), gamma=0.0)
    op = level_operators(coeffs, grid)[3]
    assert op.batch == grid.na and op.m == grid.nx - 1
    rhs = np.random.default_rng(7).standard_normal((grid.na, grid.nx - 1))
    lower, diag0, upper = _implicit_step_coefficients(coeffs, grid)
    diag = diag0[None, :] + grid.dt * mu.level(3, grid)[:grid.na, 1:-1]
    _check_solve(op, lower, diag, upper, rhs)


def test_level_operators_collapse_uniform_rows_to_one_shared_matrix():
    grid = make_benchmark_grid(50, 30, 12)
    coeffs = dp.CoefficientSet(dispersion=dp.PowerLawDispersion(0.5, 0.5),
                               mu=dp.SeparableRate(gene_factor=lambda x: 0.1 + x),
                               beta=dp.ConstantRate(0.0), gamma=0.0)
    op = level_operators(coeffs, grid)[3]
    assert op.batch == 1
    rhs = np.random.default_rng(7).standard_normal((grid.na, grid.nx - 1))
    lower, diag0, upper = _implicit_step_coefficients(coeffs, grid)
    diag = diag0 + grid.dt * (0.1 + grid.x_nodes[1:-1])
    _check_solve(op, lower, diag[None, :], upper, rhs, rows=slice(0, 1))


@pytest.mark.parametrize("kind", ["constant", "age_only", "tabulated"])
def test_level_operators_factorize_once_unless_mortality_varies_in_time(kind,
                                                                        monkeypatch):
    grid = make_benchmark_grid(50, 30, 12)
    coeffs = make_mortality_coeffs("tabulated" if kind == "tabulated" else "benchmark",
                                   grid)
    if kind == "age_only":
        coeffs = replace(coeffs, mu=dp.SeparableRate(age_factor=lambda a: 0.1 + a ** 2))
    built = []
    factorize = TridiagonalOperator.__init__

    def counting_factorize(self, *args):
        built.append(self)
        factorize(self, *args)

    monkeypatch.setattr(TridiagonalOperator, "__init__", counting_factorize)
    ops = level_operators(coeffs, grid)
    assert len(ops) == grid.nt
    if kind == "tabulated":
        assert len(built) == grid.nt
        assert all(op is made for op, made in zip(ops, built))
    else:
        assert len(built) == 1
        assert ops[0] is ops[-1]
        assert all(op is built[0] for op in ops)
        assert ops[0].batch == (grid.na if kind == "age_only" else 1)
