"""Shared implicit-stepping kernel: flux-form diffusion and tridiagonal solves.

Both solvers advance along the characteristics a - t = const and treat
dispersion plus mortality implicitly (backward Euler).  Every step therefore
inverts the same family of matrices

    M[n, j] = I + dt * (-L_k + mu(t_n, a_j, .))        on interior gene nodes,

where L_k is the conservative flux-form second-difference

    (L_k y)_i = (k_{i+1/2}(y_{i+1} - y_i) - k_{i-1/2}(y_i - y_{i-1})) / dx**2

with half-cell sampling of k (well defined when k vanishes at a node).
M[n, j] is symmetric tridiagonal and strictly diagonally dominant with unit
diagonal shift, so the Thomas algorithm needs no pivoting.

The kernel exposes one class, `LevelOperators`, which owns the factorized
batch {M[n, j] : j = 0..na-1} per time level and serves row-sliced solves.
Both solvers, the age-zero trace oracle, and the characteristic-integral
oracle all draw their solves from this class, in the same sweep arithmetic,
so that quantities the theory says are equal come out bit-identical.

The sweep is bound by the cost of each numpy call, not by arithmetic, so
`TridiagonalOperator.solve` keeps the number of calls low.  A solve of many
rows runs gene-major: the factorization is stored as (m, batch) arrays and
the rhs is copied once into an (m, rows) buffer, so each elimination step is
one contiguous vector operation written in place.  A solve of one row (the
adjoint's age-zero row, every step of the trace and characteristic-integral
oracles) runs the same recurrence on Python floats, which costs a few
microseconds where the vector loop would spend hundreds on 1-element
slices.  Both loops round every element through the same three IEEE double
operations in the same order, with no fused multiply-add, so a row solved
alone equals the same row of a batched solve bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import midpoint_dispersion


class TridiagonalOperator:
    """A batch of symmetric tridiagonal matrices with a cached factorization.

    lower/diag/upper have shape (batch, m); the first lower and last upper
    entries are ignored.  A batch of size 1 broadcasts over any number of
    right-hand-side rows.  Factorization is the standard Thomas forward
    elimination, stored gene-major: `_cp` and `_inv` have shape (m, batch),
    so the coefficients of one gene index over the whole batch are contiguous.

    `solve` has two loops.  A call with several rows runs the sweep
    gene-major: the rhs is copied once into an (m, rows) buffer, and each
    elimination step is one contiguous vector operation written in place.  A
    call with a single row runs the same recurrence on Python floats.  Both
    loops perform, for every element, exactly the three IEEE double
    operations of the textbook sweep, y_0 = r_0 * inv_0, then
    y_i = (r_i - lower_i * y_{i-1}) * inv_i, then y_i = y_i - cp_i * y_{i+1},
    each rounded on its own with no fused multiply-add.  Layout and loop
    therefore do not change a single bit: a row solved alone equals the same
    row taken from a batched call.
    """

    def __init__(self, lower, diag, upper):
        self.lower = np.asarray(lower, dtype=float)
        lower_t = self.lower.T
        diag_t = np.asarray(diag, dtype=float).T
        upper_t = np.asarray(upper, dtype=float).T
        m, batch = diag_t.shape
        cp = np.empty((m, batch))
        inv = np.empty((m, batch))
        inv[0] = 1.0 / diag_t[0]
        cp[0] = upper_t[0] * inv[0]
        for i in range(1, m):
            inv[i] = 1.0 / (diag_t[i] - lower_t[i] * cp[i - 1])
            cp[i] = upper_t[i] * inv[i]
        self._cp = cp
        self._inv = inv
        self.m = m
        self.batch = batch

    def solve(self, rhs, rows=None):
        """Solve M y = rhs; rhs has shape (m,) or (r, m).

        `rows` (a slice or an index array) selects which matrices of the
        batch line up with the rhs rows (ignored when the batch is shared).
        The result has shape (r, m), with r = 1 for a 1-D rhs solved against
        a shared batch and r = the number of selected matrices when a single
        rhs row is solved against several.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            rhs = rhs[None, :]
        if rhs.ndim != 2 or rhs.shape[1] != self.m:
            raise ValueError(f"rhs must have shape (m,) or (r, m) with m={self.m}, "
                             f"got {rhs.shape}")
        if self.batch == 1 or rows is None:
            rows = slice(None)
        lower, cp, inv = self.lower.T[:, rows], self._cp[:, rows], self._inv[:, rows]
        n_coef = cp.shape[1]
        n_rows = rhs.shape[0] if rhs.shape[0] != 1 else n_coef
        if n_coef == 1:
            # one coefficient row: its entries as Python floats serve both loops
            lower, cp, inv = lower[:, 0].tolist(), cp[:, 0].tolist(), inv[:, 0].tolist()
            if n_rows == 1:
                r = rhs[0].tolist()
                y = [0.0] * self.m
                prev = y[0] = r[0] * inv[0]
                for i in range(1, self.m):
                    prev = y[i] = (r[i] - lower[i] * prev) * inv[i]
                for i in range(self.m - 2, -1, -1):
                    prev = y[i] = y[i] - cp[i] * prev
                return np.array(y)[None, :]
        y = np.empty((self.m, n_rows))
        np.copyto(y, rhs.T)
        ys = list(y)
        tmp = np.empty(n_rows)
        mul, sub = np.multiply, np.subtract
        prev = mul(ys[0], inv[0], out=ys[0])
        for yi, li, ii in zip(ys[1:], lower[1:], inv[1:]):
            mul(li, prev, out=tmp)
            sub(yi, tmp, out=yi)
            prev = mul(yi, ii, out=yi)
        for yi, ci in zip(ys[-2::-1], cp[-2::-1]):
            mul(ci, prev, out=tmp)
            prev = sub(yi, tmp, out=yi)
        return y.T


class LevelOperators:
    """Per-time-level factorized batches of the implicit-step matrices.

    Level n carries the matrices {M[n, j] : j = 0..na-1}: exactly the set a
    forward step n -> n+1 consumes (mortality sampled at the characteristic
    foot (t_n, a_j)) and the set a backward step n+1 -> n consumes (mortality
    sampled at the target (t_n, a_j)).  Each solve builds its own instance,
    but from the same (coeffs, grid) and by the same arithmetic, so the two
    solvers step with bit-identical matrices; that is what makes the discrete
    transport duality exact.

    When mortality does not depend on age the batch collapses to a single
    shared matrix; when it does not depend on time either, one factorization
    serves every level.
    """

    def __init__(self, coeffs, grid):
        self.coeffs = coeffs
        self.grid = grid
        self.dt = grid.dt
        self.k_mid = midpoint_dispersion(coeffs.dispersion, grid)
        inv_dx2 = 1.0 / (grid.dx * grid.dx)
        self._lower = -self.dt * self.k_mid[:-1] * inv_dx2
        self._upper = -self.dt * self.k_mid[1:] * inv_dx2
        self._diag0 = 1.0 + self.dt * (self.k_mid[:-1] + self.k_mid[1:]) * inv_dx2
        self._cache = {}
        self._time_invariant = not getattr(coeffs.mu, "time_varying", True)

    def _build(self, n):
        mu_block = self.coeffs.mu.level(n, self.grid)
        if np.isscalar(mu_block) or np.ndim(mu_block) == 0:
            diag = self._diag0 + self.dt * float(mu_block)
            batch = diag[None, :]
        else:
            rows = np.asarray(mu_block, dtype=float)[: self.grid.na, 1:-1]
            if np.all(rows == rows[0]):
                batch = (self._diag0 + self.dt * rows[0])[None, :]
            else:
                batch = self._diag0[None, :] + self.dt * rows
        return TridiagonalOperator(
            np.broadcast_to(self._lower, batch.shape),
            batch,
            np.broadcast_to(self._upper, batch.shape),
        )

    def level(self, n) -> TridiagonalOperator:
        key = 0 if self._time_invariant else int(n)
        op = self._cache.get(key)
        if op is None:
            op = self._build(key)
            self._cache[key] = op
        return op
