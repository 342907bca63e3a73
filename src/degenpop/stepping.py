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

`level_operators` returns the factorized batch {M[n, j] : j = 0..na-1} of
every time level as a list indexed by n.  Both solvers, the Gram operator's
box march (`control.gram_apply`), the age-zero trace march, and the
characteristic-integral oracle all draw their row-sliced solves from such a
list, in the same sweep arithmetic, so that quantities the theory says are
equal come out bit-identical.  Each batch shares one 1-D off-diagonal, and
each solve takes an (r, m) rhs.

The sweep is bound by the cost of each numpy call, not by arithmetic, so
`TridiagonalOperator.solve` keeps the number of calls low.  A solve of many
rows runs gene-major: the factorization is stored as (m, batch) arrays and
the rhs is copied once into an (m, rows) buffer, so each elimination step is
one contiguous vector operation written in place.  A solve of one row (the
adjoint's age-zero row, every step of the characteristic-integral oracle,
the last step of the trace march) runs the same recurrence on Python
floats, which costs a few microseconds where the vector loop would spend
hundreds on 1-element slices.  Both loops round every element through the
same three IEEE double operations in the same order, with no fused
multiply-add, so a row solved alone equals the same row of a batched solve
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import midpoint_dispersion


class TridiagonalOperator:
    """A batch of symmetric tridiagonal matrices with a cached factorization.

    `lower` and `upper` are 1-D of length m, shared by the whole batch
    because dispersion depends on x only, and kept as Python floats; their
    first and last entries are ignored.  `diag` has shape (batch, m).  A
    batch of size 1 is shared by every rhs row.  Factorization is the
    standard Thomas forward elimination, stored gene-major: `_cp` and `_inv`
    have shape (m, batch), so the coefficients of one gene index over the
    whole batch are contiguous.

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
        self.lower = np.asarray(lower, dtype=float).tolist()
        upper = np.asarray(upper, dtype=float).tolist()
        diag_t = np.asarray(diag, dtype=float).T
        m, batch = diag_t.shape
        cp = np.empty((m, batch))
        inv = np.empty((m, batch))
        inv[0] = 1.0 / diag_t[0]
        cp[0] = upper[0] * inv[0]
        for i in range(1, m):
            inv[i] = 1.0 / (diag_t[i] - self.lower[i] * cp[i - 1])
            cp[i] = upper[i] * inv[i]
        self._cp = cp
        self._inv = inv
        self.m = m
        self.batch = batch

    def solve(self, rhs, rows=None):
        """Solve M y = rhs for an (r, m) rhs; returns the (r, m) solution.

        `rows` (a slice or an index array) selects which matrices of an
        age-dependent batch line up with the rhs rows, all of them when
        None; r must equal their number.  A shared batch ignores `rows`.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != self.m:
            raise ValueError(f"rhs must have shape (r, m) with m={self.m}, got {rhs.shape}")
        cp, inv = self._cp, self._inv
        n_rows = rhs.shape[0]
        if self.batch > 1:
            if rows is not None:
                cp, inv = cp[:, rows], inv[:, rows]
            if cp.shape[1] != n_rows:
                raise ValueError(f"rhs has {n_rows} rows but {cp.shape[1]} matrices "
                                 f"are selected")
        lower = self.lower
        if cp.shape[1] == 1:
            # one coefficient row: its entries as Python floats serve both loops
            cp, inv = cp[:, 0].tolist(), inv[:, 0].tolist()
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


def level_operators(coeffs, grid) -> list:
    """The nt factorized batches of the implicit-step matrices, one per level.

    Level n carries the matrices {M[n, j] : j = 0..na-1}: exactly the set a
    forward step n -> n+1 consumes (mortality sampled at the characteristic
    foot (t_n, a_j)) and the set a backward step n+1 -> n consumes (mortality
    sampled at the target (t_n, a_j)).  Each solve builds its own list, by
    the same arithmetic from the same (coeffs, grid), so the two solvers step
    with bit-identical matrices (see `adjoint` for the duality this buys).

    When mortality does not depend on age a batch collapses to a single
    shared matrix; when it does not depend on time either, the list repeats
    one factorization at every level.
    """
    dt = grid.dt
    k_mid = midpoint_dispersion(coeffs.dispersion, grid)
    inv_dx2 = 1.0 / (grid.dx * grid.dx)
    lower = -dt * k_mid[:-1] * inv_dx2
    upper = -dt * k_mid[1:] * inv_dx2
    diag0 = 1.0 + dt * (k_mid[:-1] + k_mid[1:]) * inv_dx2

    def build(n):
        rows = coeffs.mu.level(n, grid)[: grid.na, 1:-1]
        if np.all(rows == rows[0]):
            rows = rows[:1]
        return TridiagonalOperator(lower, diag0 + dt * rows, upper)

    if not coeffs.mu.time_varying:
        return [build(0)] * grid.nt
    return [build(n) for n in range(grid.nt)]
