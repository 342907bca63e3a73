"""Approximate steering of the observed population block to zero.

The target is the terminal population restricted to the observation box
(ages above the observation threshold ``delta``).  Steering is done by the
classical dual strategy: for a terminal probe ``p`` supported in the box,
solve the backward problem with terminal datum ``p``, restrict the backward
solution to the control window to obtain a candidate control, push it
through the forward dynamics from zero initial data, and read the terminal
box values.  That map is the Gram operator of the problem: it is symmetric
and positive semidefinite in the box inner product.  The penalized control
solves

    (Gram + epsilon * I) p = r,      r = terminal box values of the free flow,

by conjugate gradients, and the control actually applied is minus the
control-window restriction of the backward solution generated by ``p``.
With that sign the controlled terminal box values equal ``epsilon * p`` up
to the CG residual, which yields a direct optimality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointProblem, solve_adjoint
from .forward import ForwardProblem, control_norm_sq, solve_forward
from .model import CoefficientSet, Field, SpaceTimeGrid, _as_values, inner_product


def box_mask(grid: SpaceTimeGrid) -> np.ndarray:
    """(na+1, nx+1) indicator of the observation box (ages >= delta)."""
    return grid.age_upper_mask().astype(float)[:, None] * np.ones(grid.nx + 1)


def box_inner(u, v, grid: SpaceTimeGrid) -> float:
    """L2 inner product over (delta, A) x (0, 1)."""
    return inner_product(u, v, grid, kind="age_gene", a_mask=grid.age_upper_mask())


def gram_apply(probe, coeffs: CoefficientSet, grid: SpaceTimeGrid) -> np.ndarray:
    """Apply the (symmetric, psd) terminal-box Gram operator to a probe.

    ``probe`` is an (na+1, nx+1) array supported in the observation box.
    Returns the terminal box values of the forward flow started from zero
    and driven by the window restriction of the backward solution.
    """
    mask = box_mask(grid)
    probe = np.asarray(probe, dtype=float) * mask
    back = solve_adjoint(AdjointProblem(coeffs, grid, Field(probe, "age_gene", grid)))
    control = Field(back.values * grid.omega_mask[None, None, :], "trajectory", grid)
    flow = solve_forward(
        ForwardProblem(coeffs, grid, Field.zeros("age_gene", grid), control=control)
    )
    return flow.values[grid.nt] * mask


@dataclass
class ControlSolution:
    """Output of :func:`solve_control`."""

    control: Field
    terminal_probe: Field
    y_final_norm_sq: float
    control_cost: float
    epsilon: float
    cg_iterations: int
    cg_residual: float
    cost_value: float
    converged: bool
    state: Field  # the controlled forward trajectory
    residual_history: list = field(default_factory=list)
    optimality_mismatch: float = 0.0

    def summary(self) -> str:
        lines = [
            f"epsilon            : {self.epsilon:.3e}",
            f"cg iterations      : {self.cg_iterations}"
            + ("" if self.converged else "  (cap hit)"),
            f"cg residual        : {self.cg_residual:.6e}",
            f"terminal box norm^2: {self.y_final_norm_sq:.6e}",
            f"control cost       : {self.control_cost:.6e}",
            f"total cost         : {self.cost_value:.6e}",
            f"optimality mismatch: {self.optimality_mismatch:.6e}",
        ]
        return "\n".join(lines)


def solve_control(
    y0: Field,
    epsilon: float,
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    tol: float = 1e-6,
    maxit: int = 500,
) -> ControlSolution:
    """Compute the penalized control steering the box population toward zero.

    Runs conjugate gradients on (Gram + epsilon I) p = r in the box inner
    product, with r the free terminal box values; ``tol`` is relative to the
    norm of r.  Raises ValueError for nonpositive epsilon or tol.
    """
    if epsilon <= 0:
        raise ValueError("penalty epsilon must be positive")
    if tol <= 0:
        raise ValueError("CG tolerance must be positive")
    if y0.kind != "age_gene":
        raise ValueError("initial datum must be an age_gene Field")

    free = solve_forward(ForwardProblem(coeffs, grid, y0))
    target = free.values[grid.nt] * box_mask(grid)
    rhs_norm = np.sqrt(box_inner(target, target, grid))

    p = np.zeros_like(target)
    history: list[float] = []
    iterations = 0
    converged = True
    if rhs_norm > 0.0:
        r = target.copy()
        d = r.copy()
        rs = box_inner(r, r, grid)
        converged = False
        for iterations in range(1, maxit + 1):
            ad = gram_apply(d, coeffs, grid) + epsilon * d
            dad = box_inner(d, ad, grid)
            if dad <= 0.0:
                raise RuntimeError("Gram operator lost positivity during CG")
            alpha = rs / dad
            p += alpha * d
            r -= alpha * ad
            rs_new = box_inner(r, r, grid)
            rel = np.sqrt(rs_new) / rhs_norm
            history.append(rel)
            if rel <= tol:
                converged = True
                break
            d = r + (rs_new / rs) * d
            rs = rs_new
    cg_residual = history[-1] if history else 0.0

    back = solve_adjoint(AdjointProblem(coeffs, grid, Field(p, "age_gene", grid)))
    control_values = -(back.values * grid.omega_mask[None, None, :])
    control = Field(control_values, "trajectory", grid)
    steered = solve_forward(ForwardProblem(coeffs, grid, y0, control=control))
    terminal = steered.values[grid.nt] * box_mask(grid)

    y_final_norm_sq = box_inner(terminal, terminal, grid)
    cost = control_norm_sq(control_values, grid)
    cost_value = y_final_norm_sq / (2.0 * epsilon) + 0.5 * cost

    p_norm = np.sqrt(box_inner(p, p, grid))
    if p_norm > 0.0:
        gap = terminal / epsilon - p
        mismatch = np.sqrt(box_inner(gap, gap, grid)) / p_norm
    else:
        mismatch = 0.0

    return ControlSolution(
        control=control,
        terminal_probe=Field(p, "age_gene", grid),
        y_final_norm_sq=y_final_norm_sq,
        control_cost=cost,
        epsilon=epsilon,
        cg_iterations=iterations,
        cg_residual=cg_residual,
        cost_value=cost_value,
        converged=converged,
        residual_history=history,
        optimality_mismatch=mismatch,
        state=steered,
    )


def cost_functional(
    control,
    y0: Field,
    epsilon: float,
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
) -> float:
    """Penalized cost of an arbitrary control candidate.

    J = (1/(2 epsilon)) * ||terminal box values||^2 + (1/2) * ||control||^2_q.
    The candidate is restricted to the control window before use.
    """
    if epsilon <= 0:
        raise ValueError("penalty epsilon must be positive")
    values = _as_values(control)
    masked = values * grid.omega_mask[None, None, :]
    flow = solve_forward(
        ForwardProblem(coeffs, grid, y0, control=Field(masked, "trajectory", grid))
    )
    terminal = flow.values[grid.nt] * box_mask(grid)
    return box_inner(terminal, terminal, grid) / (2.0 * epsilon) + 0.5 * control_norm_sq(
        masked, grid
    )


@dataclass
class NullReachReport:
    """Scale-free decay and cost quotients of a control solve."""

    box_decay_quotient: float  # ||y(T)||^2_box / (epsilon ||y0||^2)
    cost_quotient: float  # ||control||^2_q / ||y0||^2
    initial_norm_sq: float

    def summary(self) -> str:
        return (
            f"box decay quotient : {self.box_decay_quotient:.6e}\n"
            f"cost quotient      : {self.cost_quotient:.6e}\n"
            f"initial norm^2     : {self.initial_norm_sq:.6e}"
        )


def verify_null_reach(solution: ControlSolution, y0: Field, grid: SpaceTimeGrid) -> NullReachReport:
    """Normalize the terminal box norm and control cost by the initial size.

    Both quotients are zero for a zero initial datum.  Bounded quotients
    under epsilon refinement are the practical signature of approximate
    steering of the box population to zero.
    """
    y0_norm_sq = inner_product(y0, y0, grid, kind="age_gene")
    if y0_norm_sq == 0.0:
        return NullReachReport(0.0, 0.0, 0.0)
    return NullReachReport(
        box_decay_quotient=solution.y_final_norm_sq / (solution.epsilon * y0_norm_sq),
        cost_quotient=solution.control_cost / y0_norm_sq,
        initial_norm_sq=y0_norm_sq,
    )
