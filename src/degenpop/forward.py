"""Forward solver for the controlled population model.

One step of the scheme advances every age cohort along its characteristic
a - t = const (an exact index shift because the grid enforces dt == da) and
applies backward-Euler dispersion/mortality implicitly:

    (I + dt*(-L_k + mu(t_n, a_j, .))) y(t_{n+1}, a_{j+1}, .)
        = y(t_n, a_j, .) + dt * control(t_n, a_j, .),

i.e. mortality and the control source are sampled at the characteristic foot
(t_n, a_j).  After all interior ages are advanced, the newborn row is closed
by trapezoidal quadrature of the renewal law

    y(t_{n+1}, 0, x) = integral_0^A beta(t_{n+1}, a, x) y(t_{n+1}, a, x) da,

which needs no iteration because newborns are not fertile
(beta(., 0, .) = 0 makes the a = 0 quadrature node drop out).

Foot sampling is chosen so the forward and adjoint sweeps factor the same
matrices at every level; the discrete transport duality then holds exactly,
up to the first-order quadrature defect of the renewal coupling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (Field, _as_values, checked_values, inner_product, l2_norm_sq,
                    hk_seminorm, TOL_ABS)
from .stepping import level_operators


@dataclass
class ForwardProblem:
    """Initial data plus a control source for one forward run.

    y0 is an age-gene Field (values at t=0); control, when given, is a full
    trajectory Field whose entries act as the source; entries outside the
    control window are ignored (with a warning), matching the model where
    the control enters as theta * indicator(omega).
    """

    coeffs: object
    grid: object
    y0: Field
    control: Field | None = None

    def __post_init__(self):
        checked_values("y0", self.y0, "age_gene", self.grid)
        if self.control is not None:
            checked_values("control", self.control, "trajectory", self.grid)

    def masked_control(self):
        """Control values restricted to the window; warns about outside mass.

        The values equal control * omega_mask bit for bit.  Only the gene
        columns outside the window are scanned; when all of them are zeros
        that product is the control itself, returned as a read-only view.
        """
        if self.control is None:
            return None
        vals = self.control.values
        window = self.grid.x_window_slice(self.grid.omega)
        # omega is a proper subinterval of (0, 1): neither side is empty
        left, right = vals[..., :window.start], vals[..., window.stop:]
        outside = np.max([left.max(), -left.min(), right.max(), -right.min()])
        if outside > TOL_ABS:
            warnings.warn(
                f"control has entries outside the control window "
                f"(max abs {outside:.3g}); they are ignored",
                stacklevel=3,
            )
        if outside == 0.0:
            view = vals.view()
            view.flags.writeable = False
            return view
        return vals * self.grid.omega_mask


def solve_forward(problem: ForwardProblem) -> Field:
    """Run the forward scheme; returns the full trajectory field."""
    grid, coeffs = problem.grid, problem.coeffs
    nt, na, nx = grid.nt, grid.na, grid.nx
    dt = grid.dt
    ops = level_operators(coeffs, grid)
    control = problem.masked_control()

    y = np.zeros((nt + 1, na + 1, nx + 1))
    y[0] = problem.y0.values
    y[0, :, 0] = 0.0
    y[0, :, -1] = 0.0

    for n in range(nt):
        rhs = y[n, :na, 1:-1]
        if control is not None:
            rhs = rhs + dt * control[n, :na, 1:-1]
        y[n + 1, 1:, 1:-1] = ops[n].solve(rhs)
        # renewal on the freshly advanced level
        y[n + 1, 0, :] = 0.0
        y[n + 1, 0, :] = renewal_integral(y[n + 1], coeffs.beta, n + 1, grid)
        y[n + 1, 0, 0] = 0.0
        y[n + 1, 0, -1] = 0.0
    return Field(y, "trajectory", grid)


def renewal_integral(level_slice, beta, n, grid):
    """Newborn gene row: trapezoid in age of beta * y over one time level."""
    vals = _as_values(level_slice)
    if vals.shape != grid.shape("age_gene"):
        raise ValueError("level_slice must be an age-gene block")
    return np.einsum("a,ax->x", grid.wa, beta.level(n, grid) * vals)


@dataclass
class EnergyReport:
    """Empirical version of the well-posedness a-priori estimate.

    The three left-hand quantities (sup-in-time norm, sup-in-age norm,
    dispersion-weighted gradient energy) are each bounded by a constant times
    bound_rhs = ||control||^2_q + ||y0||^2; ratio records the empirical
    constant for their sum.
    """

    sup_t_norm: float
    sup_a_norm: float
    hk_dissipation: float
    bound_rhs: float
    ratio: float


def control_norm_sq(control_values, grid):
    """||control||^2 over the control cylinder with the scheme's own rule.

    The forward step consumes control samples on the foot rectangle
    {(t_n, a_j) : n < nt, j < na}; the matching discrete L2 norm is the
    rectangle rule in (t, a) times the trapezoid rule in the gene variable.
    `control_values`, a trajectory Field or array, is read through `checked_values`.
    """
    values = checked_values("control", control_values, "trajectory", grid)
    block = values[: grid.nt, : grid.na]
    return _cylinder_quadrature(block * block, grid)


def _cylinder_quadrature(values, grid):
    """The rule of `control_norm_sq` applied to (t, a, x) samples of an integrand."""
    return float(grid.dt * grid.da * np.einsum("tax,x->", values, grid.wx))


def energy_report(trajectory: Field, problem: ForwardProblem) -> EnergyReport:
    """The a-priori estimate for `trajectory`, read through `checked_values`."""
    grid = problem.grid
    y = checked_values("trajectory", trajectory, "trajectory", grid)
    sup_t = max(
        inner_product(y[n], y[n], grid, kind="age_gene") for n in range(grid.nt + 1)
    )
    sup_a = max(
        inner_product(y[:, j], y[:, j], grid, kind="time_gene")
        for j in range(grid.na + 1)
    )
    hk = hk_seminorm(trajectory, problem.coeffs.dispersion, grid)
    rhs = l2_norm_sq(problem.y0, grid, kind="age_gene")
    control = problem.masked_control()
    if control is not None:
        rhs += control_norm_sq(control, grid)
    total = sup_t + sup_a + hk
    return EnergyReport(
        sup_t_norm=sup_t,
        sup_a_norm=sup_a,
        hk_dissipation=hk,
        bound_rhs=rhs,
        ratio=(total / rhs) if rhs > 0.0 else 0.0,
    )
