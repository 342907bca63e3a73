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

Neither r nor the Gram operator depends on epsilon.  A `ControlProblem`
holds the coefficients, the grid and the initial datum, and computes r and
the preconditioner's blocks on first use; every `solve_control` on that
problem, one per penalty, reuses both.

The CG is preconditioned.  The Gram operator is block-diagonal by box age
row, and each row's block has a closed form in the row's gene-mean
mortality (`box_gram_block`), eigendecomposed once per problem, so that
(block + epsilon I)^-1 costs two small matrix products per application.
The blocks are only the preconditioner: every iteration still applies the
true `gram_apply` once, and convergence is judged on the unpreconditioned
residual.  With mortality independent of x the blocks are the operator's
own, up to round-off, and one iteration reaches round-off; gene-dependent
mortality leaves a few.

None of r, CG and the steering after it runs the full solvers.  The grid
enforces T < delta and dt == da, so a characteristic that ends in the box
(age at least delta at t = T) starts at an age of at least delta - T > 0:
it never passes through the newborn row, and the renewal coupling, in
either direction, never touches it.  Each step along such a characteristic
is one row of the implicit level solve, independent of every other row, so
one march of just the box characteristics (`_box_march`), backward from a
stack of probes then forward from a start, gives the box values of the full
composition bit for bit, for each probe of the stack.  It is the only
engine of this module's solves.  `ControlProblem.target` runs it from y0
with no probe, which is the free flow.  `gram_apply` runs it from a zero
start with a stack of one probe.  `solve_control` stops after CG, and
`steer` runs one march for all the solutions it is given, with the probes
-p of every penalty stacked and start y0: that march yields each penalty's
steered terminal box values and control on the window, hence every scalar
of its solution.  A sweep solves its penalties one by one, then steers them
together; a solution whose scalars are read before any `steer` steers
itself alone, with the same bits.  Only the control and steered trajectory
that a `ControlSolution` builds when they are first read use the general
solvers, which carry the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adjoint import AdjointProblem, solve_adjoint
from .forward import ForwardProblem, _cylinder_quadrature, solve_forward
from .model import CoefficientSet, Field, SpaceTimeGrid, checked_values, inner_product
from .stepping import level_operators, step_matrix


def box_inner(u, v, grid: SpaceTimeGrid) -> float:
    """L2 inner product over (delta, A) x (0, 1)."""
    return inner_product(u, v, grid, kind="age_gene", a_mask=grid.age_upper_mask())


def _box_rows(grid: SpaceTimeGrid, n: int) -> slice:
    """The age rows d - nt + n .. na - nt + n of the box characteristics at level n."""
    return slice(grid.delta_index - grid.nt + n, grid.na - grid.nt + n + 1)


def _box_march(probes, start, coeffs: CoefficientSet, grid: SpaceTimeGrid):
    """March the box characteristics backward from a stack of probes, then forward.

    ``probes`` is a (P, na+1, nx+1) stack of age-gene arrays, or None for a
    single march with no probe (P = 1); ``start`` is one (na+1, nx+1) array,
    shared by the whole stack.  At level n the box characteristics occupy
    the R age rows `_box_rows`, all at least 1 because T < delta (d =
    delta_index below), and the stack solves them P times over, probe p in
    rows p*R .. p*R + R - 1 of every level solve.  The backward march solves
    those rows from each probe's box rows d..na and interior genes.  The
    forward march starts every probe from the start's values at the feet of
    the box characteristics (the rows d - nt .. na - nt and the interior
    genes at t = 0), adds dt * w[n] on the window columns before step n when
    there are probes, and solves the same rows.  Returns (y, w): y the (P,
    na+1, nx+1) terminal values, on the box rows and interior genes and +0.0
    elsewhere, and w the (nt, P*R, window genes) backward values on the
    window, w[n] at level n in the stack's row order, or None without
    probes.

    For each probe this is, row for row, the arithmetic of `solve_adjoint`
    of the probe followed by `solve_forward` from the start, driven by ``w
    * window mask`` (the forward rhs gains ``dt`` times it), or by nothing
    without a probe:

    - Thomas rows are independent and give the same bits in any batch, so
      a probe's R rows come out of a stacked solve as they would alone; an
      age-dependent batch pairs each stacked row with its own age row's
      matrix, by the level's box rows tiled P times;
    - the fertility term the full adjoint adds on these rows is
      dt * (beta * 0.0), because the newborn trace of a box probe is zero;
    - on the window columns w * 1.0 is w, and dt * w is what the march adds;
    - off them the full composition adds a zero, which changes no value
      except the sign of a zero.

    Without a probe nothing is added on either side, so the box rows of y
    equal those of the full forward solve byte for byte.  From a zero start
    the forward rows hold no -0.0: a Thomas sweep whose rhs holds none
    stores none, since it multiplies the rhs by positive reciprocal pivots
    (a nonzero product stays nonzero unless it underflows below the
    smallest subnormal) and then only subtracts from those values (z - h *
    z_prev down each chain and twice at the twist, y - cp * y_next
    outward), and a difference is -0.0 only when its first operand is.  So
    the added zeros change nothing and the box rows again equal the full
    composition's byte for byte.  From another start and with the probe -p,
    against the full adjoint of p and the forward solve driven by -(w *
    window mask): negation commutes with every operation of a sweep, so w
    is that control on the window.  The start and w may hold -0.0, where an
    added zero can flip the sign of a zero; but a sweep only adds,
    subtracts and multiplies data, so no zero's sign reaches a nonzero
    value: every nonzero value is the same, and only zeros may differ in
    sign.  Each scalar `steer` forms squares these values, so the scalars
    are identical.
    """
    nt, d, dt = grid.nt, grid.delta_index, grid.dt
    stack = 1 if probes is None else len(probes)
    ops = level_operators(coeffs, grid)

    def rows(n):
        if ops[n].batch == 1:
            return None  # a shared batch ignores rows
        box = _box_rows(grid, n)
        return box if stack == 1 else np.tile(np.arange(box.start, box.stop), stack)

    window = grid.x_window_slice(grid.omega)
    window = slice(window.start - 1, window.stop - 1)  # in interior gene columns
    windows = None
    if probes is not None:
        w = probes[:, d:, 1:-1].reshape(-1, grid.nx - 1)
        # one block for every level: an array per level fragmented the heap
        # and raised the peak RSS of a control run by 3 MB
        windows = np.empty((nt, w.shape[0], window.stop - window.start))
        for n in range(nt - 1, -1, -1):
            w = ops[n].solve(w, rows=rows(n))
            windows[n] = w[:, window]
    y = np.tile(np.asarray(start, dtype=float)[_box_rows(grid, 0), 1:-1], (stack, 1))
    for n in range(nt):
        if windows is not None:
            y[:, window] += dt * windows[n]
        y = ops[n].solve(y, rows=rows(n))
    out = np.zeros((stack, *grid.shape("age_gene")))
    out[:, d:, 1:-1] = y.reshape(stack, -1, grid.nx - 1)
    return out, windows


def gram_apply(probe, coeffs: CoefficientSet, grid: SpaceTimeGrid) -> np.ndarray:
    """Apply the (symmetric, psd) terminal-box Gram operator to a probe.

    ``probe`` is an (na+1, nx+1) array; its values below the observation
    threshold are ignored.  Returns the terminal box values of the forward
    flow started from zero and driven by the window restriction of the
    backward solution with terminal datum ``probe``, as an (na+1, nx+1) array
    that is zero below the threshold.  The probe is checked as ``wT``, like the
    full composition's masked probe, which is non-finite exactly when it is.

    Only the box characteristics are computed: `_box_march` of a stack of
    one probe from a zero start, whose box rows equal those of the full
    composition byte for byte.  Below the threshold the result is +0.0; the
    full composition gives y(T) * 0.0 there, zeros that may carry a sign,
    and `solve_control` reads only the box values.
    """
    probe = checked_values("wT", probe, "age_gene", grid)
    return _box_march(probe[None], np.zeros(probe.shape), coeffs, grid)[0][0]


def box_gram_block(coeffs: CoefficientSet, grid: SpaceTimeGrid):
    """The closed-form Gram blocks of the box rows, eigendecomposed.

    Returns (q, sigma, rows): block b is q[b] diag(sigma[b]) q[b]^T on the m
    interior genes, q (B, m, m) orthogonal and sigma (B, m), and rows[i] is
    the block of box row i (rows of `_box_rows` order).  Row i steps at level
    n with M0 + dt mu_ni I, M0 = V diag(lam) V^T the step matrix without
    mortality and mu_ni the gene mean of the row's mortality, so its block is

        V [(V^T P V) o dt S^T S] V^T,   S[n, p] = prod_{l=n..nt-1} 1 / (lam_p + dt mu_li),

    with P the window projector.  Rows with one mortality history share one
    block, so constant mortality builds one.  For mortality independent of x
    each block is that of `gram_apply` on its rows, up to round-off.
    """
    nt, dt = grid.nt, grid.dt
    mu = [coeffs.mu.level(n, grid)[_box_rows(grid, n), 1:-1].mean(axis=1) for n in range(nt)]
    histories, rows = np.unique(np.transpose(mu), axis=0, return_inverse=True)
    lower, diag, upper = step_matrix(coeffs, grid, 0.0)
    lam, v = np.linalg.eigh(np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1))
    # S by suffix products: a cumulative product over the levels reversed
    s = np.cumprod(1.0 / (lam + dt * histories[:, ::-1, None]), axis=1)[:, ::-1]
    window = grid.x_window_slice(grid.omega)
    v_w = v[window.start - 1:window.stop - 1]
    # one (B, m, m) buffer holds the Hadamard product, then the eigenvectors,
    # so that no more than two such arrays are alive at once
    q = np.matmul(s.transpose(0, 2, 1), s)
    q *= dt * (v_w.T @ v_w)
    sigma, u = np.linalg.eigh(q)
    return np.matmul(v, u, out=q), sigma, rows


def box_precondition(r, block, epsilon: float, grid: SpaceTimeGrid) -> np.ndarray:
    """Apply (block + epsilon I)^-1 to every box row of an (na+1, nx+1) array.

    ``block`` is the (q, sigma, rows) of `box_gram_block`, and each box row
    takes its own block; sigma is clipped at 0, so the map is symmetric and
    positive in the box inner product for any epsilon > 0.  Values outside
    the box rows and interior genes become 0.
    """
    q, sigma, rows = block
    z = np.zeros_like(r)
    box, out = r[grid.delta_index:, 1:-1], z[grid.delta_index:, 1:-1]
    for b, scale in enumerate(np.maximum(sigma, 0.0) + epsilon):
        out[rows == b] = ((box[rows == b] @ q[b]) / scale) @ q[b].T
    return z


@dataclass
class ControlProblem:
    """An initial datum to steer, with what every penalty on it shares.

    y0 is an age_gene Field of finite values on the problem's grid.
    `target` and `block` are built on first use and kept, so a penalty sweep
    on one problem makes one free march of the box characteristics and at
    most one build of the blocks.
    """

    coeffs: CoefficientSet
    grid: SpaceTimeGrid
    y0: Field

    def __post_init__(self):
        checked_values("y0", self.y0, "age_gene", self.grid)

    @cached_property
    def target(self) -> np.ndarray:
        """r: the free flow's terminal box values, a read-only (na+1, nx+1) array.

        One `_box_march` of y0 with no probe: its box rows equal those of a
        full free `solve_forward` byte for byte, and the other entries are
        +0.0.  No full trajectory is built.
        """
        target = _box_march(None, self.y0.values, self.coeffs, self.grid)[0][0]
        target.flags.writeable = False
        return target

    @cached_property
    def block(self):
        """The (q, sigma, rows) of `box_gram_block` for this problem's coefficients.

        `solve_control` reads it only when the target is nonzero, so a
        problem that needs no control never builds it.
        """
        return box_gram_block(self.coeffs, self.grid)


def _steered(name: str, doc: str) -> property:
    """A scalar of the steering, which a solution not yet steered runs alone."""
    def read(solution):
        if solution._scalars is None:
            steer([solution])
        return solution._scalars[name]

    return property(read, doc=doc)


@dataclass
class ControlSolution:
    """Output of :func:`solve_control`.

    The CG part (probe, iterations, residuals) is set by `solve_control`.
    The four scalars of the steering come from one march of the box
    characteristics, made by `steer` for every solution it is given at once;
    reading one of them before any `steer` steers this solution alone, with
    the same bits.  `control` (minus the window restriction of the backward
    solution from the probe) and `state` (the controlled forward trajectory)
    are full trajectories: each is built by one general solve on first
    access and kept, so a sweep, which reads only the scalars, never builds
    them.
    """

    problem: ControlProblem = field(repr=False)
    terminal_probe: Field
    epsilon: float
    cg_iterations: int
    cg_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)
    _scalars: dict | None = field(default=None, init=False, repr=False)

    y_final_norm_sq = _steered("y_final_norm_sq", "Box norm^2 of the steered y(T).")
    control_cost = _steered("control_cost", "Squared norm of the control on (0, T) x omega.")
    cost_value = _steered("cost_value", "y_final_norm_sq / (2 eps) + control_cost / 2.")
    optimality_mismatch = _steered(
        "optimality_mismatch", "Box norm of y(T) / eps - p, relative to that of p."
    )

    @cached_property
    def control(self) -> Field:
        grid = self.problem.grid
        back = solve_adjoint(AdjointProblem(self.problem.coeffs, grid, self.terminal_probe))
        return Field(-(back.values * grid.omega_mask[None, None, :]), "trajectory", grid)

    @cached_property
    def state(self) -> Field:
        problem = self.problem
        return solve_forward(
            ForwardProblem(problem.coeffs, problem.grid, problem.y0, control=self.control)
        )

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
    problem: ControlProblem,
    epsilon: float,
    tol: float = 1e-6,
    maxit: int = 500,
) -> ControlSolution:
    """Compute the penalized control steering the box population toward zero.

    Runs conjugate gradients on (Gram + epsilon I) p = r in the box inner
    product, with r the problem's free terminal box values
    (`ControlProblem.target`), preconditioned by (block + epsilon I)^-1
    (`box_precondition` on `ControlProblem.block`).  Each of the
    ``cg_iterations`` applies `gram_apply` once.  ``residual_history`` holds,
    per iteration, the unpreconditioned residual's box norm relative to the
    norm of r, and CG stops once it is at most ``tol``.  The solve stops
    there: the steering with -p, which gives the solution's four scalars, is
    made by `steer`, for several solutions of the problem in one march, or
    by the first read of a scalar for this solution alone.
    Raises ValueError for an epsilon or tol that is not positive and
    finite (NaN included), or maxit below 1.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError("penalty epsilon must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise ValueError("CG tolerance must be positive and finite")
    if maxit < 1:
        raise ValueError("CG iteration cap maxit must be at least 1")
    coeffs, grid = problem.coeffs, problem.grid

    target = problem.target
    rhs_norm = np.sqrt(box_inner(target, target, grid))

    p = np.zeros_like(target)
    history: list[float] = []  # one residual per iteration
    if rhs_norm > 0.0:
        r = target.copy()
        d = box_precondition(r, problem.block, epsilon, grid)
        rz = box_inner(r, d, grid)
        for _ in range(maxit):
            ad = gram_apply(d, coeffs, grid) + epsilon * d
            dad = box_inner(d, ad, grid)
            if dad <= 0.0:
                raise RuntimeError("Gram operator lost positivity during CG")
            alpha = rz / dad
            p += alpha * d
            r -= alpha * ad
            rel = np.sqrt(box_inner(r, r, grid)) / rhs_norm
            history.append(rel)
            if rel <= tol:
                break
            z = box_precondition(r, problem.block, epsilon, grid)
            rz_new = box_inner(r, z, grid)
            d = z + (rz_new / rz) * d
            rz = rz_new
    # CG breaks exactly when the residual reaches tol: it converged when its
    # last residual is at most tol, and a zero target needs no iteration
    cg_residual = history[-1] if history else 0.0
    return ControlSolution(
        problem=problem,
        terminal_probe=Field(p, "age_gene", grid),
        epsilon=epsilon,
        cg_iterations=len(history),
        cg_residual=cg_residual,
        converged=bool(cg_residual <= tol),
        residual_history=history,
    )


def steer(solutions) -> None:
    """Steer every solution not yet steered with one stacked box march.

    The solutions must share one `ControlProblem`; otherwise raises
    ValueError.  One `_box_march`, the probes -p of the pending solutions
    stacked and started from y0, gives each its steered terminal box values
    and its control on the window, with the bits of the full adjoint and
    steered forward solves; those solves run only when a solution's
    `control` or `state` is read.  From them each solution gets its four
    scalars.  Solutions already steered are skipped, so a second call makes
    no march.
    """
    solutions = list(solutions)
    if not solutions:
        return
    problem = solutions[0].problem
    if any(solution.problem is not problem for solution in solutions):
        raise ValueError("steer needs solutions of one ControlProblem")
    pending = [solution for solution in solutions if solution._scalars is None]
    if not pending:
        return
    grid = problem.grid
    probes = np.stack([-solution.terminal_probe.values for solution in pending])
    terminals, w = _box_march(probes, problem.y0.values, problem.coeffs, grid)
    # w is each penalty's control on the window, R rows of the stack apiece.
    # Its block over each level's box characteristic rows, zero off the
    # window, gives `control_norm_sq`'s einsum the nonzero rows of the full
    # control in the same order; the full control's other rows hold only
    # zeros, which leave the sum unchanged.  One block serves every penalty,
    # squared in place: its window columns are rewritten for each, and its
    # other columns stay zero.  A fresh block per penalty would keep two
    # alive at once, the last one freed only after the next is made
    rows = w.shape[1] // len(pending)
    squares = np.zeros((grid.nt, rows, grid.nx + 1))
    window = grid.x_window_slice(grid.omega)
    for i, (solution, terminal) in enumerate(zip(pending, terminals)):
        squares[:, :, window] = w[:, i * rows:(i + 1) * rows]
        np.multiply(squares, squares, out=squares)

        epsilon, p = solution.epsilon, solution.terminal_probe.values
        y_final_norm_sq = box_inner(terminal, terminal, grid)
        cost = _cylinder_quadrature(squares, grid)
        p_norm = np.sqrt(box_inner(p, p, grid))
        gap = terminal / epsilon - p
        solution._scalars = {
            "y_final_norm_sq": y_final_norm_sq,
            "control_cost": cost,
            "cost_value": y_final_norm_sq / (2.0 * epsilon) + 0.5 * cost,
            "optimality_mismatch": (
                np.sqrt(box_inner(gap, gap, grid)) / p_norm if p_norm > 0.0 else 0.0
            ),
        }


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


def verify_null_reach(solution: ControlSolution) -> NullReachReport:
    """Normalize the terminal box norm and control cost by the initial size.

    The initial size is that of the datum the solution steered,
    ``solution.problem.y0``.  Both quotients are zero for a zero initial
    datum.  Bounded quotients under epsilon refinement are the practical
    signature of approximate steering of the box population to zero.
    """
    y0 = solution.problem.y0
    y0_norm_sq = inner_product(y0, y0, solution.problem.grid, kind="age_gene")
    if y0_norm_sq == 0.0:
        return NullReachReport(0.0, 0.0, 0.0)
    return NullReachReport(
        box_decay_quotient=solution.y_final_norm_sq / (solution.epsilon * y0_norm_sq),
        cost_quotient=solution.control_cost / y0_norm_sq,
        initial_norm_sq=y0_norm_sq,
    )
