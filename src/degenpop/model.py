"""Coefficients, grids, fields, and hypothesis validation.

The package studies a population density y(t, a, x) structured by age a
and by a gene-expression level x in (0, 1), evolving on a time window
(0, T):

    dy/dt + dy/da - (k(x) y_x)_x + mu(t, a, x) y = control on (0,T)x(0,A)x(0,1),
    y(t, a, 0) = y(t, a, 1) = 0,
    y(0, a, x) = y0(a, x),
    y(t, 0, x) = integral_0^A beta(t, a, x) y(t, a, x) da   (renewal of newborns).

The dispersion coefficient k is allowed to vanish at a single interior
point x0 of the gene interval.  This module provides

  * coefficient containers (dispersion laws, mortality mu, fertility beta),
  * the aligned space-time-age grid used by every solver (the time step
    and the age step are forced equal so transport is an exact shift),
  * trapezoidal inner products / norms with optional window restrictions,
  * validators for the structural hypotheses the theory rests on:
      - weak interior degeneracy:  (x - x0) k'(x) <= gamma k(x), gamma in [0,1);
      - a monotone-envelope condition: k(x)/|x - x0|^theta nonincreasing
        left of x0 and nondecreasing right of it, for some theta in (0, gamma];
      - nonnegative bounded rates with beta(., 0, .) = 0 (newborns are
        not fertile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

# Absolute and relative comparison tolerances used by every validator.
TOL_ABS = 1e-12
TOL_REL = 1e-8


# ---------------------------------------------------------------------------
# dispersion coefficients
# ---------------------------------------------------------------------------

class PowerLawDispersion:
    """Dispersion k(x) = |x - x0|**alpha, vanishing at the interior point x0.

    Parameters
    ----------
    x0 : float
        Degeneracy point, strictly inside (0, 1).
    alpha : float
        Degeneracy exponent in [0, 1) (weak regime: the equation stays
        well posed without boundary conditions at x0).
    """

    degenerate = True

    def __init__(self, x0, alpha):
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"degeneracy point x0={x0} must lie strictly inside (0,1)")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"power-law exponent alpha={alpha} must lie in [0,1)")
        self.x0 = float(x0)
        self.alpha = float(alpha)

    def value(self, x):
        return np.abs(np.asarray(x, dtype=float) - self.x0) ** self.alpha

    def derivative(self, x):
        """Exact derivative away from x0; the (unused) value at x0 is set to 0."""
        d = np.asarray(x, dtype=float) - self.x0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.alpha * np.sign(d) * np.abs(d) ** (self.alpha - 1.0)
        return np.where(d == 0.0, 0.0, out)

    def ramp_integral(self, x):
        """integral_{x0}^{x} (r - x0)/k(r) dr = |x - x0|**(2-alpha) / (2-alpha).

        Positive on both sides of x0; this is the building block of the
        negative weight profile used by the Carleman machinery.
        """
        d = np.abs(np.asarray(x, dtype=float) - self.x0)
        return d ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def __repr__(self):
        return f"PowerLawDispersion(x0={self.x0}, alpha={self.alpha})"


class ConstantDispersion:
    """Constant dispersion k(x) = value (nondegenerate diagnostic mode).

    Used for analytic cross-checks (separable heat-type solutions) and for
    the pure-transport limit value = 0.  Hypothesis validators treat this
    mode specially: there is no degeneracy point, so x0 is only kept for
    bookkeeping in weight formulas.
    """

    degenerate = False

    def __init__(self, value, x0=0.5):
        if value < 0.0:
            raise ValueError("constant dispersion must be nonnegative")
        self.const = float(value)
        self.x0 = float(x0)
        self.alpha = 0.0

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.const)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def ramp_integral(self, x):
        if self.const == 0.0:
            raise ValueError("ramp integral undefined for identically zero dispersion")
        d = np.asarray(x, dtype=float) - self.x0
        return d * d / (2.0 * self.const)

    def __repr__(self):
        return f"ConstantDispersion({self.const})"


class TabulatedDispersion:
    """Dispersion given by samples on a uniform x-grid, interpolated linearly.

    Derivatives are formed by central differences away from x0 and one-sided
    differences at the two nodes adjacent to x0 (k need not be C^1 there).
    The ramp integral is a trapezoid rule on a 10x refined grid, with the
    0/0 node at x0 dropped.
    """

    degenerate = True

    def __init__(self, x_nodes, values, x0):
        x_nodes = np.asarray(x_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if x_nodes.ndim != 1 or x_nodes.shape != values.shape:
            raise ValueError("x_nodes and values must be matching 1-d arrays")
        if np.any(np.diff(x_nodes) <= 0):
            raise ValueError("x_nodes must be strictly increasing")
        self.x_nodes = x_nodes
        self.values_tab = values
        self.x0 = float(x0)
        i0 = int(np.argmin(np.abs(x_nodes - x0)))
        if abs(x_nodes[i0] - x0) > TOL_ABS:
            raise ValueError("x0 must coincide with one of the sample nodes")
        self._i0 = i0
        neg = values < -TOL_ABS
        neg[i0] = False
        if np.any(neg):
            raise ValueError("dispersion samples must be nonnegative away from x0")

    def value(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x_nodes, self.values_tab)

    def derivative(self, x):
        xs, ks, i0 = self.x_nodes, self.values_tab, self._i0
        grad = np.gradient(ks, xs)
        # one-sided next to the degeneracy point where k may have a corner
        if i0 + 1 < len(xs):
            grad[i0 + 1] = (ks[i0 + 2] - ks[i0 + 1]) / (xs[i0 + 2] - xs[i0 + 1]) \
                if i0 + 2 < len(xs) else (ks[i0 + 1] - ks[i0]) / (xs[i0 + 1] - xs[i0])
        if i0 - 1 >= 0:
            grad[i0 - 1] = (ks[i0 - 1] - ks[i0 - 2]) / (xs[i0 - 1] - xs[i0 - 2]) \
                if i0 - 2 >= 0 else (ks[i0] - ks[i0 - 1]) / (xs[i0] - xs[i0 - 1])
        x = np.asarray(x, dtype=float)
        return np.interp(x, xs, grad)

    def ramp_integral(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        for m, xv in enumerate(x):
            lo, hi = sorted((self.x0, xv))
            if hi - lo < TOL_ABS:
                out[m] = 0.0
                continue
            # 10x refinement relative to the sample spacing
            n = max(int(np.ceil((hi - lo) / (self.x_nodes[1] - self.x_nodes[0]) * 10)), 10)
            r = np.linspace(lo, hi, n + 1)
            kr = self.value(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                integrand = (r - self.x0) / kr
            integrand[~np.isfinite(integrand)] = 0.0
            val = np.sum((integrand[1:] + integrand[:-1]) * 0.5 * np.diff(r))
            out[m] = val if xv >= self.x0 else -val
        return out if out.size > 1 else float(out[0])

    def __repr__(self):
        return f"TabulatedDispersion(n={len(self.x_nodes)}, x0={self.x0})"


# ---------------------------------------------------------------------------
# mortality / fertility rates
# ---------------------------------------------------------------------------

class ConstantRate:
    """Rate identically equal to a nonnegative constant."""

    time_varying = False

    def __init__(self, value):
        self.const = float(value)

    @property
    def is_zero(self):
        return self.const == 0.0

    def level(self, n, grid):
        """Value block at time level n; scalar shortcut (broadcast by callers)."""
        return self.const

    def age_zero_max(self, grid):
        return abs(self.const)

    def __repr__(self):
        return f"ConstantRate({self.const})"


class SeparableRate:
    """Rate of the product form  f_time(t) * f_age(a) * f_gene(x).

    Any factor may be omitted (treated as the constant 1).  Vectorized
    callables are expected for the age and gene factors.
    """

    def __init__(self, time_factor=None, age_factor=None, gene_factor=None, scale=1.0):
        self.time_factor = time_factor
        self.age_factor = age_factor
        self.gene_factor = gene_factor
        self.scale = float(scale)
        self.time_varying = time_factor is not None
        self._cache = None  # (grid id, age x gene outer product)

    @property
    def is_zero(self):
        return self.scale == 0.0

    def _outer(self, grid):
        if self._cache is None or self._cache[0] is not grid:
            av = self.age_factor(grid.a_levels) if self.age_factor else np.ones(grid.na + 1)
            xv = self.gene_factor(grid.x_nodes) if self.gene_factor else np.ones(grid.nx + 1)
            self._cache = (grid, np.outer(np.asarray(av, float), np.asarray(xv, float)))
        return self._cache[1]

    def level(self, n, grid):
        tf = self.time_factor(grid.t_levels[n]) if self.time_factor else 1.0
        return self.scale * tf * self._outer(grid)

    def age_zero_max(self, grid):
        block = np.abs(self._outer(grid)[0]) * abs(self.scale)
        m = float(np.max(block))
        if self.time_factor:
            m *= float(np.max(np.abs(self.time_factor(grid.t_levels))))
        return m

    def __repr__(self):
        return f"SeparableRate(scale={self.scale})"


class TabulatedRate:
    """Rate given by a full (nt+1, na+1, nx+1) array of node values."""

    def __init__(self, values):
        self.values_tab = np.asarray(values, dtype=float)
        self.time_varying = True

    @property
    def is_zero(self):
        return not np.any(self.values_tab)

    def level(self, n, grid):
        if self.values_tab.shape != (grid.nt + 1, grid.na + 1, grid.nx + 1):
            raise ValueError("tabulated rate shape does not match the grid")
        return self.values_tab[n]

    def age_zero_max(self, grid):
        return float(np.max(np.abs(self.values_tab[:, 0, :])))


def rate_level_block(rate, n, grid):
    """Rate values at time level n as a full (na+1, nx+1) array."""
    block = rate.level(n, grid)
    if np.isscalar(block):
        return np.full((grid.na + 1, grid.nx + 1), block, dtype=float)
    return np.asarray(block, dtype=float)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _snap_to_node(value, nodes, what):
    idx = int(np.argmin(np.abs(nodes - value)))
    if abs(nodes[idx] - value) > 1e-9 * max(1.0, abs(value)) + TOL_ABS:
        raise ValueError(f"{what}={value} does not lie on a grid node "
                         f"(nearest node {nodes[idx]})")
    return idx


def _read_only(values):
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Aligned grid on (0,T) x (0,A) x (0,1).

    The construction enforces dt == da exactly, so one time step moves every
    age cohort to the next age node: transport along characteristics
    a - t = const is an exact index shift and never smears.

    Window attributes:
      delta       : age threshold; terminal observations live on (delta, A)
      omega       : open gene interval where the control acts
      omega_core  : subinterval of omega where the regular weight peaks
      omega_inner : subinterval of omega, away from x0, for gradient
                    localization checks
    All window endpoints (and the age threshold) must sit on grid nodes.
    Nodes, trapezoid weights, delta_index and omega_mask are cached read-only.
    """

    T: float
    A: float
    nx: int
    nt: int
    na: int
    delta: float
    omega: tuple = (0.3, 0.7)
    omega_core: tuple | None = None
    omega_inner: tuple | None = None

    def __post_init__(self):
        if self.nx < 4 or self.nt < 2 or self.na < 2:
            raise ValueError("grid too coarse: need nx >= 4, nt >= 2, na >= 2")
        if not (0.0 < self.T < self.delta < self.A):
            raise ValueError(f"need 0 < T < delta < A, got T={self.T}, "
                             f"delta={self.delta}, A={self.A}")
        dt, da = self.T / self.nt, self.A / self.na
        if abs(dt - da) > TOL_REL * da:
            raise ValueError(f"characteristic alignment requires dt == da; "
                             f"got dt={dt}, da={da} (choose nt = T*na/A)")
        x1, x2 = self.omega
        if not (0.0 < x1 < x2 < 1.0):
            raise ValueError(f"control window omega={self.omega} must be a "
                             "proper subinterval of (0,1)")
        _snap_to_node(self.delta, self.a_levels, "delta")
        for name, win in (("omega", self.omega),
                          ("omega_core", self.omega_core),
                          ("omega_inner", self.omega_inner)):
            if win is None:
                continue
            lo, hi = win
            if not lo < hi:
                raise ValueError(f"{name}={win} is empty")
            _snap_to_node(lo, self.x_nodes, f"{name}[0]")
            _snap_to_node(hi, self.x_nodes, f"{name}[1]")
        for name, win in (("omega_core", self.omega_core),
                          ("omega_inner", self.omega_inner)):
            if win is not None and not (x1 <= win[0] < win[1] <= x2):
                raise ValueError(f"{name}={win} must lie inside omega={self.omega}")

    # -- node coordinates ---------------------------------------------------
    @property
    def dx(self):
        return 1.0 / self.nx

    @property
    def dt(self):
        return self.T / self.nt

    @property
    def da(self):
        return self.A / self.na

    @cached_property
    def x_nodes(self):
        return _read_only(np.linspace(0.0, 1.0, self.nx + 1))

    @cached_property
    def t_levels(self):
        return _read_only(np.linspace(0.0, self.T, self.nt + 1))

    @cached_property
    def a_levels(self):
        return _read_only(np.linspace(0.0, self.A, self.na + 1))

    # -- index helpers -------------------------------------------------------
    def x_index(self, x):
        return _snap_to_node(x, self.x_nodes, "x")

    def a_index(self, a):
        return _snap_to_node(a, self.a_levels, "a")

    def t_index(self, t):
        return _snap_to_node(t, self.t_levels, "t")

    @cached_property
    def delta_index(self):
        return self.a_index(self.delta)

    # -- quadrature weights ---------------------------------------------------
    def _trapz(self, n, h):
        w = np.full(n + 1, h)
        w[0] = w[-1] = 0.5 * h
        return _read_only(w)

    @cached_property
    def wx(self):
        return self._trapz(self.nx, self.dx)

    @cached_property
    def wa(self):
        return self._trapz(self.na, self.da)

    @cached_property
    def wt(self):
        return self._trapz(self.nt, self.dt)

    def x_window_slice(self, window):
        """Slice of the gene nodes in a window (endpoints included)."""
        lo, hi = window
        return slice(self.x_index(lo), self.x_index(hi) + 1)

    def x_window_mask(self, window):
        """Indicator of a gene window on nodes (endpoints included)."""
        mask = np.zeros(self.nx + 1)
        mask[self.x_window_slice(window)] = 1.0
        return mask

    @cached_property
    def omega_mask(self):
        return _read_only(self.x_window_mask(self.omega))

    def age_upper_mask(self):
        """Indicator of the observation ages a >= delta (delta node included)."""
        mask = np.zeros(self.na + 1)
        mask[self.delta_index:] = 1.0
        return mask

    def validate_x0(self, x0):
        """The degeneracy point must sit exactly on a gene node."""
        return _snap_to_node(x0, self.x_nodes, "x0")

    # -- per-axis lookup ("t", "a" or "x") ----------------------------------
    def nodes(self, axis):
        """Node coordinates along one axis."""
        return {"t": self.t_levels, "a": self.a_levels, "x": self.x_nodes}[axis]

    def weights(self, axis):
        """Trapezoid weights along one axis."""
        return {"t": self.wt, "a": self.wa, "x": self.wx}[axis]

    def shape(self, kind):
        """Array shape of a field of the given kind."""
        return tuple(self.nodes(axis).size for axis in FIELD_AXES[kind])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# Axes each field kind carries, in array order: t (time), a (age), x (gene).
FIELD_AXES = {"trajectory": "tax", "age_gene": "ax", "time_gene": "tx"}


@dataclass
class Field:
    """Node values of a function on the grid, tagged by which axes it carries.

    kind is one of "trajectory" (t, a, x), "age_gene" (a, x), "time_gene" (t, x).
    """

    values: np.ndarray
    kind: str
    grid: SpaceTimeGrid

    def __post_init__(self):
        if self.kind not in FIELD_AXES:
            raise ValueError(f"unknown field kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=float)
        expected = self.grid.shape(self.kind)
        if self.values.shape != expected:
            raise ValueError(f"field of kind {self.kind!r} must have shape "
                             f"{expected}, got {self.values.shape}")

    @classmethod
    def zeros(cls, kind, grid):
        return cls(np.zeros(grid.shape(kind)), kind, grid)


def _as_values(f):
    return f.values if isinstance(f, Field) else np.asarray(f, dtype=float)


def inner_product(f, g, grid, kind="age_gene", x_mask=None, a_mask=None, t_mask=None):
    """Trapezoidal L2 inner product of two fields of the same kind.

    Optional node masks restrict the integral to a window; masked nodes keep
    their full-grid trapezoid weight, so a partition of masks reproduces the
    unrestricted integral exactly.
    """
    fv, gv = _as_values(f), _as_values(g)
    if isinstance(f, Field):
        kind = f.kind
    if fv.shape != gv.shape:
        raise ValueError("inner_product requires fields of identical shape")
    if kind not in FIELD_AXES:
        raise ValueError(f"unknown field kind {kind!r}")
    masks = {"t": t_mask, "a": a_mask, "x": x_mask}
    prod = fv * gv
    for i, axis in enumerate(FIELD_AXES[kind]):
        w, m = grid.weights(axis), masks[axis]
        wm = w if m is None else w * m
        shape = [1] * prod.ndim
        shape[i] = -1
        prod = prod * wm.reshape(shape)
    return float(np.sum(prod))


def l2_norm_sq(f, grid, kind="age_gene", **mask_kw):
    return inner_product(f, f, grid, kind=kind, **mask_kw)


def l2_norm(f, grid, kind="age_gene", **mask_kw):
    return float(np.sqrt(max(l2_norm_sq(f, grid, kind=kind, **mask_kw), 0.0)))


def midpoint_dispersion(k, grid):
    """Dispersion sampled at the nx cell midpoints."""
    x_mid = 0.5 * (grid.x_nodes[1:] + grid.x_nodes[:-1])
    return np.asarray(k.value(x_mid), dtype=float)


def hk_seminorm(f, k, grid):
    """Weighted gradient energy  integral k(x) (df/dx)^2 dx (da).

    Accepts a single gene row (nx+1,), an age-gene slice (na+1, nx+1) or a
    full trajectory; higher axes are integrated with trapezoid weights.  A
    Field names its axes by kind; a bare 2-D array is an age-gene slice.  k is
    sampled at the cell midpoints, as the scheme's fluxes sample it, which
    keeps the energy positive even when k vanishes at a node.  Dirichlet data
    are expected: nonzero boundary columns are rejected.
    """
    fv = _as_values(f)
    if np.max(np.abs(fv[..., 0])) > TOL_ABS or np.max(np.abs(fv[..., -1])) > TOL_ABS:
        raise ValueError("hk_seminorm expects homogeneous Dirichlet boundary values")
    k_mid = midpoint_dispersion(k, grid)
    diff = np.diff(fv, axis=-1) / grid.dx
    cells = k_mid * diff * diff * grid.dx  # one term per cell
    row_energy = np.sum(cells, axis=-1)
    if isinstance(f, Field):
        axes = FIELD_AXES[f.kind][:-1]
    else:
        axes = {1: "", 2: "a", 3: "ta"}.get(fv.ndim)
    if axes is None:
        raise ValueError("hk_seminorm supports at most trajectory-shaped fields")
    if not axes:
        return float(row_energy)
    w = grid.weights(axes[0])
    if len(axes) == 2:
        w = w[:, None] * grid.weights(axes[1])[None, :]
    return float(np.sum(w * row_energy))


# ---------------------------------------------------------------------------
# validation reports and hypothesis validators
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Outcome of one hypothesis check.

    fitted_gamma / fitted_theta record the exponents actually measured on the
    grid (when meaningful); violations lists offending nodes with values.
    """

    hypothesis: str
    passed: bool
    fitted_gamma: float | None = None
    fitted_theta: float | None = None
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.hypothesis}"
        if self.fitted_gamma is not None:
            line += f"  fitted_gamma={self.fitted_gamma:.12g}"
        if self.fitted_theta is not None:
            line += f"  fitted_theta={self.fitted_theta:.12g}"
        if self.violations:
            line += f"  ({len(self.violations)} violations, first: {self.violations[0]})"
        return line


def validate_degeneracy(k, gamma, grid):
    """Check the weak interior degeneracy bound (x - x0) k'(x) <= gamma k(x).

    The fitted exponent is the largest ratio (x - x0) k'(x) / k(x) over the
    off-degeneracy nodes (clamped below at 0).  For a pure power law the
    ratio is the exponent itself at every node.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"degeneracy bound gamma={gamma} must lie in [0,1)")
    x = grid.x_nodes
    kv = np.asarray(k.value(x), dtype=float)
    if not k.degenerate:
        off = np.ones_like(x, dtype=bool)
    else:
        i0 = grid.validate_x0(k.x0)
        off = np.arange(len(x)) != i0
    if np.any(kv[off] <= 0.0):
        raise ValueError("dispersion must be strictly positive away from x0")
    kd = np.asarray(k.derivative(x), dtype=float)
    x0 = getattr(k, "x0", 0.0)
    lhs = (x[off] - x0) * kd[off]
    ratio = lhs / kv[off]
    fitted = float(max(np.max(ratio), 0.0))
    bad = lhs > gamma * kv[off] + TOL_ABS
    violations = [f"x={xv:.6g}: (x-x0)k'={lv:.6g} > gamma*k={rv:.6g}"
                  for xv, lv, rv in zip(x[off][bad], lhs[bad], (gamma * kv[off])[bad])]
    return ValidationReport(
        hypothesis="weak interior degeneracy",
        passed=not violations,
        fitted_gamma=fitted,
        details={"gamma": gamma, "max_ratio": fitted},
        violations=violations,
    )


def validate_hp(k, theta, gamma, grid):
    """Check the monotone-envelope condition for the exponent theta.

    k(x)/|x - x0|^theta must be nonincreasing over the nodes left of x0 and
    nondecreasing over the nodes right of it.  theta must lie in (0, gamma];
    for gamma = 0 that interval is empty, which is reported as a failure
    with a diagnostic rather than raised.
    """
    if gamma == 0.0:
        return ValidationReport(
            hypothesis="monotone envelope",
            passed=False,
            violations=["gamma=0 leaves no admissible theta in (0, gamma]"],
            details={"theta": theta, "gamma": gamma, "empty_interval": True},
        )
    if not 0.0 < theta <= gamma:
        raise ValueError(f"theta={theta} must lie in (0, gamma] with gamma={gamma}")
    if not k.degenerate:
        raise ValueError("monotone-envelope check applies to degenerate dispersion")
    x = grid.x_nodes
    i0 = grid.validate_x0(k.x0)
    kv = np.asarray(k.value(x), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = kv / np.abs(x - k.x0) ** theta
    violations = []
    left = ratio[:i0]          # nodes strictly left of x0, ascending x
    for i in range(len(left) - 1):
        if left[i + 1] > left[i] * (1.0 + TOL_REL) + TOL_ABS:
            violations.append(f"left x={x[i + 1]:.6g}: ratio rises "
                              f"{left[i]:.6g} -> {left[i + 1]:.6g}")
    right = ratio[i0 + 1:]     # nodes strictly right of x0
    for i in range(len(right) - 1):
        if right[i + 1] < right[i] * (1.0 - TOL_REL) - TOL_ABS:
            violations.append(f"right x={x[i0 + 2 + i]:.6g}: ratio falls "
                              f"{right[i]:.6g} -> {right[i + 1]:.6g}")
    return ValidationReport(
        hypothesis="monotone envelope",
        passed=not violations,
        fitted_theta=theta if not violations else None,
        violations=violations,
        details={"theta": theta, "gamma": gamma},
    )


def fit_hp_theta(k, gamma, grid, count=64):
    """Largest theta in (0, gamma] passing the monotone-envelope check, or None."""
    if gamma <= 0.0:
        return None
    for theta in np.linspace(gamma, gamma / count, count):
        if validate_hp(k, float(theta), gamma, grid).passed:
            return float(theta)
    return None


def validate_rates(mu, beta, grid):
    """Nonnegativity and boundedness of the rates; fertility of newborns is zero."""
    violations = []
    details = {}
    for name, rate in (("mu", mu), ("beta", beta)):
        worst = 0.0
        for n in range(grid.nt + 1):
            block = rate_level_block(rate, n, grid)
            if not np.all(np.isfinite(block)):
                violations.append(f"{name}: non-finite values at t-level {n}")
                break
            mn = float(np.min(block))
            if mn < -TOL_ABS:
                violations.append(f"{name}: negative value {mn:.6g} at t-level {n}")
                break
            worst = max(worst, float(np.max(np.abs(block))))
        details[f"{name}_sup"] = worst
    b0 = beta.age_zero_max(grid)
    details["beta_age_zero_sup"] = b0
    if b0 > TOL_ABS:
        violations.append(f"beta(., 0, .) must vanish; found sup {b0:.6g}")
    return ValidationReport(
        hypothesis="rate bounds",
        passed=not violations,
        violations=violations,
        details=details,
    )


# ---------------------------------------------------------------------------
# coefficient bundle
# ---------------------------------------------------------------------------

@dataclass
class CoefficientSet:
    """Everything the solvers need about the model coefficients.

    gamma is the degeneracy bound the dispersion is validated against;
    theta (optional) the monotone-envelope exponent.  Constant dispersion
    switches the bundle into nondegenerate diagnostic mode, skipping the
    degeneracy-specific validators.
    """

    dispersion: object
    mu: object
    beta: object
    gamma: float
    theta: float | None = None

    @property
    def x0(self):
        return self.dispersion.x0

    @property
    def diagnostic_mode(self):
        return not self.dispersion.degenerate

    def validate(self, grid):
        """Run every applicable hypothesis check; returns a list of reports."""
        reports = [validate_rates(self.mu, self.beta, grid)]
        reports.append(validate_degeneracy(self.dispersion, self.gamma, grid))
        if not self.diagnostic_mode and self.theta is not None:
            reports.append(validate_hp(self.dispersion, self.theta, self.gamma, grid))
        return reports
