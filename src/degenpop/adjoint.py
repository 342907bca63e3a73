"""Backward adjoint solver and its characteristic-representation oracles.

The adjoint problem runs backward in time and age from terminal data at
t = T, with zero inflow at the maximal age and a nonlocal source that feeds
the newborn trace back into every age:

    dw/dt + dw/da + (k w_x)_x - mu w = -beta(t, a, x) w(t, 0, x) + h,
    w(T, a, x) = wT(a, x),      w(t, A, x) = 0,      w(t, a, 0) = w(t, a, 1) = 0.

Integrating along a characteristic from (t_n, a_j) to (t_{n+1}, a_{j+1}) and
treating dispersion/mortality implicitly at the earlier (unknown) point gives
the backward step

    (I + dt*(-L_k + mu(t_n, a_j, .))) w(t_n, a_j, .)
        = w(t_{n+1}, a_{j+1}, .) + dt * (beta(t_n, a_j, .) * w(t_n, 0, .) - h(t_n, a_j, .)).

Within each level the age-zero row is solved FIRST: its own source vanishes
(newborns are not fertile), after which every other age has w(t_n, 0, .)
available; without fertility no age waits for the trace, and a level is one
batched solve of all ages.  The matrices are exactly the ones the forward
sweep factors at the same level, for any mortality, so the discrete duality
identity (`duality_residual`) is exact to round-off for terminal data on the
rows delta <= a < A, with any initial datum and window control: such data
never reach the newborn row, since T < delta.  Other data meet two defects.  The
renewal coupling is first-order (the forward trapezoid in age at t_{n+1} is
not the transpose of the adjoint's fertility source at t_n), and the
terminal pairing weighs the a = A row da/2 where its characteristic carries da.

Two independent representations of the same solution are provided as
oracles: the age-zero trace as a pure dispersion/mortality evolution of
terminal data read along the characteristic (exact whenever fertility
vanishes on ages up to T), and the characteristic integral reconstructing
w(t, a) from the newborn trace in the region whose characteristics exit
through the maximal age before time T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import _cylinder_quadrature
from .model import Field, checked_values, inner_product
from .stepping import level_operators


@dataclass
class AdjointProblem:
    """Terminal data and an optional distributed source for one backward run."""

    coeffs: object
    grid: object
    wT: Field
    source_h: Field | None = None

    def __post_init__(self):
        checked_values("wT", self.wT, "age_gene", self.grid)
        if self.source_h is not None:
            checked_values("source_h", self.source_h, "trajectory", self.grid)


def solve_adjoint(problem: AdjointProblem) -> Field:
    """Run the backward scheme; returns the full trajectory field."""
    grid, coeffs = problem.grid, problem.coeffs
    nt, na = grid.nt, grid.na
    dt = grid.dt
    ops = level_operators(coeffs, grid)
    h = None if problem.source_h is None else problem.source_h.values
    renewal_free = coeffs.beta.is_zero

    w = np.zeros((nt + 1, na + 1, grid.nx + 1))
    w[nt] = problem.wT.values
    w[nt, :, 0] = 0.0
    w[nt, :, -1] = 0.0

    for n in range(nt - 1, -1, -1):
        w[n, na, :] = 0.0
        if renewal_free:
            # no renewal: every age solves at once, as a Thomas row gives the
            # same bits alone or in any batch
            rhs = w[n + 1, 1:na + 1, 1:-1]
            if h is not None:
                rhs = rhs - dt * h[n, :na, 1:-1]
            w[n, :na, 1:-1] = ops[n].solve(rhs, rows=slice(0, na))
            continue
        # age-zero row first: its fertility factor is zero by hypothesis
        rhs0 = w[n + 1, 1, 1:-1]
        if h is not None:
            rhs0 = rhs0 - dt * h[n, 0, 1:-1]
        w[n, 0, 1:-1] = ops[n].solve(rhs0[None, :], rows=slice(0, 1))[0]
        # remaining interior ages, all fed by the fresh newborn trace
        beta_rows = coeffs.beta.level(n, grid)[1:na, 1:-1]
        rhs = w[n + 1, 2:na + 1, 1:-1] + dt * (beta_rows * w[n, 0, 1:-1])
        if h is not None:
            rhs = rhs - dt * h[n, 1:na, 1:-1]
        w[n, 1:na, 1:-1] = ops[n].solve(rhs, rows=slice(1, na))
    return Field(w, "trajectory", grid)


def trace_age_zero(problem: AdjointProblem) -> Field:
    """Newborn trace by the terminal-data representation, per time level.

    At time t the trace equals the terminal slice at age T - t evolved
    backward over the horizon T - t by pure dispersion/mortality (no
    fertility coupling), stepping with the same implicit kernel and the
    mortality samples of the characteristic through (t, 0).  This is an
    identity for the true solution whenever fertility vanishes on ages up to
    T; discretely it then reproduces the solver's age-zero row bit for bit.
    """
    grid, coeffs = problem.grid, problem.coeffs
    nt = grid.nt
    ops = level_operators(coeffs, grid)
    out = np.zeros((nt + 1, grid.nx + 1))
    # the characteristics of every trace node march back together: after
    # level m, row i holds the one through (t_m, a_i), and row 0 is the trace
    # at t_m; a Thomas row gives the same bits alone or in any batch
    z = problem.wT.values[:, 1:-1]
    out[nt, 1:-1] = z[0]
    for m in range(nt - 1, -1, -1):
        z = ops[m].solve(z[1:m + 2], rows=slice(0, m + 1))
        out[m, 1:-1] = z[0]
    return Field(out, "time_gene", grid)


def duhamel_first_case(problem: AdjointProblem, t, a, w_traj: Field):
    """Reconstruct w(t, a, .) from the newborn trace along its characteristic.

    Valid where the characteristic through (t, a) exits through the maximal
    age before reaching t = T, i.e. a > t + (A - T): there the terminal data
    are never seen, and the solution is the accumulated fertility source

        w(t, a, .) = integral_0^{A-a} S(A - a - l)
                       [beta(t', A - l, .) * w(t', 0, .)] dl,
        t' = t + (A - a) - l,

    with S realized by the same implicit stepper (trapezoid in l).  The
    trace rows are taken from `w_traj`, the solver's own trajectory for
    `problem`, read through `checked_values`, so the comparison isolates the
    quadrature of the source accumulation.  Returns one gene row.
    """
    grid, coeffs = problem.grid, problem.coeffs
    nt, na = grid.nt, grid.na
    n = grid.t_index(t)
    j = grid.a_index(a)
    if j <= n + na - nt:
        raise ValueError(
            f"(t,a)=({t},{a}) lies outside the exit region a > t + (A - T)"
        )
    trace = checked_values("w_traj", w_traj, "trajectory", grid)[:, 0, 1:-1]
    steps = na - j  # characteristic length in cells up to the age boundary
    row = np.zeros(grid.nx + 1)
    if steps == 0:
        return row
    ops = level_operators(coeffs, grid)
    da = grid.da
    exit_level = n + steps

    def source(level, age_idx):
        beta_row = coeffs.beta.level(level, grid)[age_idx, 1:-1]
        return beta_row * trace[level]

    acc = 0.5 * da * source(exit_level, na)[None, :]
    for r in range(exit_level - 1, n - 1, -1):
        age_idx = j + r - n
        acc = ops[r].solve(acc, rows=slice(age_idx, age_idx + 1))
        weight = 0.5 * da if r == n else da
        acc = acc + weight * source(r, age_idx)[None, :]
    row[1:-1] = acc[0]
    return row


def duality_residual(y_traj: Field, w_traj: Field, control, y0, wT, grid) -> float:
    """Defect of the discrete integration-by-parts identity.

    For a forward trajectory with control theta and an adjoint trajectory
    with terminal data wT (matching coefficients, no adjoint source):

        <y(T), wT> - <y0, w(0)> = <theta, w>_q.

    Terminal/initial pairings use the age-gene trapezoid product; the control
    pairing uses the rule the scheme itself conserves — the rectangle rule
    over the foot samples {(t_n, a_j): n < nt, j < na} times the gene
    trapezoid.  Returns |lhs - rhs| / max(1, largest term magnitude).

    The identity is exact to round-off only for terminal data on the rows
    delta <= a < A (module docstring).  The max(1, .) makes the result
    relative only when some pairing reaches 1: criterion 05's smooth draws,
    with pairings of 1e-3 to 1e-2, report the absolute defect, although it
    reaches 0.15 of the largest pairing at (100, 100, 40).
    """
    yv = checked_values("y_traj", y_traj, "trajectory", grid)
    wv = checked_values("w_traj", w_traj, "trajectory", grid)
    y0v = checked_values("y0", y0, "age_gene", grid)
    wTv = checked_values("wT", wT, "age_gene", grid)
    pair_T = inner_product(yv[grid.nt], wTv, grid, kind="age_gene")
    pair_0 = inner_product(y0v, wv[0], grid, kind="age_gene")
    if control is None:
        pair_q = 0.0
    else:
        cv = checked_values("control", control, "trajectory", grid)
        block = cv[: grid.nt, : grid.na] * wv[: grid.nt, : grid.na]
        pair_q = _cylinder_quadrature(block, grid)
    scale = max(abs(pair_T), abs(pair_0), abs(pair_q))
    return abs(pair_T - pair_0 - pair_q) / max(1.0, scale)
