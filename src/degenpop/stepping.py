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
"""

from __future__ import annotations

import numpy as np


def midpoint_dispersion(k, grid):
    """Dispersion sampled at the nx cell midpoints."""
    x_mid = 0.5 * (grid.x_nodes[1:] + grid.x_nodes[:-1])
    return np.asarray(k.value(x_mid), dtype=float)


class TridiagonalOperator:
    """A batch of symmetric tridiagonal matrices with a cached factorization.

    lower/diag/upper have shape (batch, m); the first lower and last upper
    entries are ignored.  A batch of size 1 broadcasts over any number of
    right-hand-side rows.  Factorization is the standard Thomas forward
    elimination; `solve` runs the same elementwise sweep whether it is given
    one row or many, so identical rows produce bit-identical results.
    """

    def __init__(self, lower, diag, upper):
        self.lower = np.asarray(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        batch, m = diag.shape
        cp = np.empty((batch, m))
        inv = np.empty((batch, m))
        inv[:, 0] = 1.0 / diag[:, 0]
        cp[:, 0] = upper[:, 0] * inv[:, 0]
        for i in range(1, m):
            inv[:, i] = 1.0 / (diag[:, i] - self.lower[:, i] * cp[:, i - 1])
            cp[:, i] = upper[:, i] * inv[:, i]
        self._cp = cp
        self._inv = inv
        self.m = m
        self.batch = batch

    def _rows(self, rows):
        if rows is None or self.batch == 1:
            return self.lower, self._cp, self._inv
        return self.lower[rows], self._cp[rows], self._inv[rows]

    def solve(self, rhs, rows=None):
        """Solve M y = rhs; rhs has shape (..., m).

        `rows` selects which matrices of the batch line up with the rhs rows
        (ignored when the batch is shared).
        """
        lower, cp, inv = self._rows(rows)
        rhs = np.asarray(rhs, dtype=float)
        out_shape = np.broadcast_shapes(rhs.shape, inv.shape)
        y = np.empty(out_shape)
        y[..., 0] = rhs[..., 0] * inv[..., 0]
        for i in range(1, self.m):
            y[..., i] = (rhs[..., i] - lower[..., i] * y[..., i - 1]) * inv[..., i]
        for i in range(self.m - 2, -1, -1):
            y[..., i] -= cp[..., i] * y[..., i + 1]
        return y


class LevelOperators:
    """Per-time-level factorized batches of the implicit-step matrices.

    Level n carries the matrices {M[n, j] : j = 0..na-1}: exactly the set a
    forward step n -> n+1 consumes (mortality sampled at the characteristic
    foot (t_n, a_j)) and the set a backward step n+1 -> n consumes (mortality
    sampled at the target (t_n, a_j)).  Sharing one object between the two
    solvers is what makes the discrete transport duality exact.

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
