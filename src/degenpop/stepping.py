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

`step_matrix` gives the coefficients of M for given mortality rows, and
`level_operators` returns the factorized batch {M[n, j] : j = 0..na-1} of
every time level as a list indexed by n.  Both solvers, the control's box
march (`control._box_march`, which gives the free flow of the control
target, the Gram operator and the steering), the age-zero trace march, and
the characteristic-integral oracle all draw their row-sliced solves from
such a list, in the same sweep arithmetic, so that quantities the theory
says are equal come out bit-identical.  Each batch shares one 1-D
off-diagonal, and each solve takes an (r, m) rhs.

The sweep is bound by the cost of each numpy call, not by arithmetic, so
`TridiagonalOperator.solve` keeps the chain of dependent calls short.  It
factorizes twisted, "burning at both ends" (van der Vorst, Parallel
Computing 5, 1987): gene 0 is eliminated downward and gene m-1 upward at
the same time, the two chains meet at the twist gene m // 2, and back
substitution runs outward from it.  The top and bottom rows of each step sit
next to each other in a pair-major buffer, so one vector call advances both
ends.  The rhs is scaled by the reciprocal pivots in one call up front, and
the factorization stores each coupling times its reciprocal pivot, so an
elimination step is two calls (a product and a difference), as is a back
substitution step: a solve of many rows makes about 2m calls where the
textbook sweep makes 5m.  Each operator keeps the work buffer of the last
row count it solved, so a call allocates only the solution it returns (and
the coefficients that index-array rows select).  A solve of one row (the
adjoint's age-zero row, every step of the characteristic-integral oracle,
the last step of the trace march) runs the same recurrence on Python
floats, which costs a few microseconds where the vector loop would spend
more on 1-element slices.  Both loops round every element through the same
IEEE double operations in the same order, with no fused multiply-add, so a
row solved alone equals the same row of a batched solve bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import midpoint_dispersion


class TridiagonalOperator:
    """A batch of symmetric tridiagonal matrices with a cached factorization.

    `lower` and `upper` are 1-D of length m, shared by the whole batch
    because dispersion depends on x only; lower[0] and upper[m-1] are
    ignored.  `diag` has shape (batch, m).  A batch of size 1 is shared by
    every rhs row.

    The factorization is twisted at gene k = m // 2: step b eliminates gene
    b downward and gene 2k - b upward (b = 0..k-1), and the twist gene k is
    solved from what both chains leave.  An even m gets one decoupled unit
    row as gene m, so that the bottom chain is as long as the top one: its
    rhs and couplings are +0.0, so no operation it enters changes a bit of
    a real gene.  The coefficients are stored pair-major, in one (3, k+1,
    2, batch) array `_coef` of the reciprocal pivots inv, h and cp, whose
    pair b holds top gene b and bottom gene 2k - b; pair k holds the twist
    gene, its second half used by h only.  h is each gene's coupling to the
    gene eliminated before it times its reciprocal pivot (for the twist,
    its couplings to genes k-1 and k+1 times inv_k), and cp the coupling
    inward times the reciprocal pivot, which back substitution subtracts.

    `solve` has two loops.  A call with several rows gathers the rhs into a
    pair-major (2k+2, rows) work buffer, kept with a (2, rows) product
    buffer for the next call of as many rows, and each step is one
    contiguous vector operation over a (2, rows) pair, written in place; a
    batch of one takes its coefficients from blocks repeated over the rows
    and kept with the buffer, since a same-shape operand costs less per
    call than a scalar or a broadcast one.  The solution is a fresh copy
    out of the buffer.  A call with a single row runs the same recurrence on
    Python floats.  Both loops perform, for every element, the same IEEE
    double operations in the same order, each rounded on its own with no
    fused multiply-add: s = r * inv for every gene, z = s - h * z_prev down
    each chain (z = s at its end), z_k = (s_k - h_l * z_{k-1}) - h_u *
    z_{k+1} at the twist, then y = z - cp * y_next outward.  A row solved
    alone therefore equals the same row taken from a batched call.
    """

    def __init__(self, lower, diag, upper):
        diag = np.asarray(diag, dtype=float)
        batch, m = diag.shape
        k = m // 2
        size = 2 * k + 1  # m, or m + 1 with the decoupled row
        lo = np.zeros(size)
        up = np.zeros(size)
        lo[1:m] = np.asarray(lower, dtype=float)[1:]
        up[:m - 1] = np.asarray(upper, dtype=float)[:-1]
        d = np.ones((size, batch))
        d[:m] = diag.T
        top = np.arange(k)
        genes = np.full(2 * k + 2, k)
        genes[0:2 * k:2] = top
        genes[1:2 * k:2] = 2 * k - top
        # coupling to the gene eliminated before, and to the next one inward
        near = np.where(genes < k, lo[genes], up[genes])
        ahead = np.where(genes < k, up[genes], lo[genes])
        near[2 * k:] = lo[k], up[k]  # the twist gene meets both chains
        ahead[2 * k:] = 0.0
        d = d[genes].reshape(k + 1, 2, batch)
        near_p, ahead_p = near.reshape(k + 1, 2, 1), ahead.reshape(k + 1, 2, 1)
        # inv, h = near * inv and cp, each (k+1, 2, batch)
        coef = np.empty((3, k + 1, 2, batch))
        inv, h, cp = coef
        for b in range(k):
            inv[b] = 1.0 / (d[b] if b == 0 else d[b] - near_p[b] * cp[b - 1])
            cp[b] = ahead_p[b] * inv[b]
        pivot = d[k, 0]
        if k:
            t = near_p[k] * cp[k - 1]
            pivot = pivot - t[0] - t[1]
        inv[k] = 1.0 / pivot
        cp[k] = 0.0
        np.multiply(near_p, inv, out=h)
        self.m = m
        self.batch = batch
        self._k = k
        self._where = np.argsort(genes[:size])[:m]
        self._genes = np.minimum(genes, m - 1)  # the decoupled row takes any rhs entry
        self._coef = coef
        self._row = coef[..., 0].reshape(3, -1).tolist() if batch == 1 else None
        self._slot = None

    def _workspace(self, n):
        """The work arrays of a solve of n rows, kept from the last call.

        Returns (coef, buf, flat, z, tmp): for a batch of one the
        coefficients repeated over n rows, h and cp as pair views (None
        otherwise), the (k+1, 2, n) work buffer, the same as a (2k+2, n)
        array and as its k+1 pair views, and a (2, n) product buffer.  One
        slot: a new row count replaces the arrays of the last one, so an
        operator holds at most one set however many row counts it solves.
        """
        slot = self._slot
        if slot is None or slot[0] != n:
            coef = None
            if self.batch == 1:
                inv, h, cp = np.repeat(self._coef, n, axis=3)
                coef = (inv, list(h), list(cp))
            buf = np.empty((self._k + 1, 2, n))
            slot = self._slot = (n, coef, buf, buf.reshape(-1, n), list(buf),
                                 np.empty((2, n)))
        return slot[1:]

    def solve(self, rhs, rows=None):
        """Solve M y = rhs for an (r, m) rhs; returns the (r, m) solution.

        `rows` (a slice or an index array) selects which matrices of an
        age-dependent batch line up with the rhs rows, all of them when
        None; r must equal their number.  A shared batch ignores `rows`.
        The solution is a new array, never a view of the kept buffer.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != self.m:
            raise ValueError(f"rhs must have shape (r, m) with m={self.m}, got {rhs.shape}")
        coef = self._coef
        n_rows = rhs.shape[0]
        if self.batch > 1:
            if rows is not None:
                coef = coef[..., rows]
            if coef.shape[3] != n_rows:
                raise ValueError(f"rhs has {n_rows} rows but {coef.shape[3]} matrices "
                                 f"are selected")
        if n_rows == 1:
            row = self._row if self.batch == 1 else coef[..., 0].reshape(3, -1).tolist()
            return self._solve_row(rhs[0], *row)[None, :]
        repeated, buf, flat, z, tmp = self._workspace(n_rows)
        if repeated is None:
            inv, h, cp = coef[0], list(coef[1]), list(coef[2])
        else:
            inv, h, cp = repeated
        k = self._k
        mul, sub = np.multiply, np.subtract
        # mode "clip": the indices are in range, and "raise" copies via a temporary
        np.take(rhs.T, self._genes, 0, flat, "clip")
        if self.m % 2 == 0:
            flat[1] = 0.0
        mul(buf, inv, buf)
        z_k = z[k][0]
        if k:
            prev = z[0]
            for zb, hb in zip(z[1:k], h[1:k]):
                mul(hb, prev, tmp)
                prev = sub(zb, tmp, zb)
            mul(h[k], prev, tmp)
            sub(z_k, tmp[0], z_k)
            sub(z_k, tmp[1], z_k)
        nxt = z[k][:1]
        for zb, cb in zip(reversed(z[:k]), reversed(cp[:k])):
            mul(cb, nxt, tmp)
            nxt = sub(zb, tmp, zb)
        return flat[self._where].T

    def _solve_row(self, r, inv, h, cp):
        """The sweep of `solve` for one rhs row, on Python floats."""
        k = self._k
        z = r[self._genes].tolist()
        if self.m % 2 == 0:
            z[1] = 0.0
        if k:
            for s in (0, 1):  # down from gene 0, then up from gene 2k
                prev = z[s] = z[s] * inv[s]
                for q in range(s + 2, 2 * k, 2):
                    prev = z[q] = z[q] * inv[q] - h[q] * prev
            z[2 * k] = ((z[2 * k] * inv[2 * k] - h[2 * k] * z[2 * k - 2])
                        - h[2 * k + 1] * z[2 * k - 1])
            for s in (0, 1):  # outward from the twist
                prev = z[2 * k]
                for q in range(2 * k - 2 + s, -1, -2):
                    prev = z[q] = z[q] - cp[q] * prev
        else:
            z[0] = z[0] * inv[0]
        return np.array(z)[self._where]


def step_matrix(coeffs, grid, mu):
    """The tridiagonal coefficients of M = I + dt * (-L_k + mu) on interior genes.

    ``mu`` holds mortality on the m interior genes, one row per matrix, in
    any (..., m) shape.  Returns (lower, diag, upper): the off-diagonals are
    1-D of length m (lower[0] and upper[m-1] unused, lower[1:] equal to
    upper[:-1]) and ``diag`` has the shape of ``mu``.  Every matrix the
    solvers factorize comes from here, as does the control preconditioner's.
    """
    dt = grid.dt
    k_mid = midpoint_dispersion(coeffs.dispersion, grid)
    inv_dx2 = 1.0 / (grid.dx * grid.dx)
    lower = -dt * k_mid[:-1] * inv_dx2
    upper = -dt * k_mid[1:] * inv_dx2
    diag = 1.0 + dt * (k_mid[:-1] + k_mid[1:]) * inv_dx2 + dt * mu
    return lower, diag, upper


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
    def build(n):
        rows = coeffs.mu.level(n, grid)[: grid.na, 1:-1]
        if np.all(rows == rows[0]):
            rows = rows[:1]
        return TridiagonalOperator(*step_matrix(coeffs, grid, rows))

    if not coeffs.mu.time_varying:
        return [build(0)] * grid.nt
    return [build(n) for n in range(grid.nt)]
