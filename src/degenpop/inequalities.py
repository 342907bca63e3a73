"""Empirical checks of the weighted energy inequalities.

Each check evaluates both sides of one inequality on concrete numerical
solutions and reports the ratio lhs/rhs per trial, together with the largest
ratio over an ensemble (the "fitted constant").

The exponential weights are astronomically small on realistic grids: the
pole factor is at least (4/T^2)^4 at the central time level, so exp(2 s phi)
underflows to zero in double precision for every admissible strength s.  All
weighted integrals are therefore accumulated in the log domain with a
log-sum-exp reduction, and each trial records both the raw values (which may
round to zero) and their logarithms.  Ratios of integrals that share the
same weight family are perfectly well conditioned in the log domain even
when neither side is representable as a float.

Quadrature is trapezoidal in every axis.  Weighted integrands are zeroed on
the faces t = 0, t = T and a = 0 where the pole factor blows up; the true
integrands vanish there faster than any polynomial.  Gene derivatives use
central differences inside and one-sided differences at the endpoints.

Each weighted integral is one `_log_row_integral` call, evaluated only on
the nodes that carry weight: the block of interior (t, a) rows times the
gene nodes of its window (all of them, the observation window, the inner
gradient window, or the one gene node of a flux face).  The block is
visited in C order, so the log-sum-exp sees exactly the entries, in the
order, that a sum over the whole cylinder (or face) keeps, and returns the
same bits.

Of that block only a few rows can reach the top: the log weight 2 s pole psi
jumps by thousands or more between neighbouring (t, a) rows (ROADMAP
item 12).  `_log_row_integral` bounds each row's log density by
fl(2 s pole max psi) + 710, above the log of any finite double, takes a
lower bound `low` on the top from the 16 rows of the largest bounds, and
evaluates only the rows whose bound reaches low - 751.  No other row holds
the top or an entry within 750 of it, so these rows give the top and every
live term.  One or two live terms sum to the same bits in any order; with
more, their pairwise sum depends on where the dead entries sit, and the
integral is summed over all rows by `log_weighted_sum`, as it is when the
head rows hold no finite entry or a row factor is not positive.  A `Draw`
holds only finite values: it checks its fields once, when it is built.  On
the lab's grid an integral reads 16 of its 950 rows (66 for the source
term, whose h vanishes at the gene ends where psi peaks); at (100, 100, 40)
20 of a pass's 800 integrals fall back, none of them a flux face.

The four adjoint ensembles (main and intermediate Carleman, Caccioppoli,
observability) share one loop, `_ensemble`: per trial it draws the data,
makes one backward solve and evaluates the trial at every strength (once,
without one, for observability).

The weighted trials take a `Draw` and a strength s.  What does not depend
on s is computed once per draw, or once per family, and shared by its
strengths: a support row's gene gradient w_x^2 on its first request, the
pole powers, k, (x-x0)^2/k and the low-age terminal mass.  Each is the very
subexpression a trial once evaluated per strength on the whole block, and
every product with s keeps its order (s * pole * k * w_x^2 still rounds as
((s pole) k) w_x^2), so the entries keep their bits.  `_ensemble` builds
one `Draw` per solve and drops it before the next.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .adjoint import AdjointProblem, solve_adjoint
from .ensembles import age_gene_draw, gene_draw, make_rng, trajectory_draw
from .model import (CoefficientSet, ConstantRate, Field, SpaceTimeGrid, checked_values,
                    inner_product)
from .weights import WeightFamily, hardy_weight


# ---------------------------------------------------------------------------
# log-domain reductions
# ---------------------------------------------------------------------------

#: np.exp(x) is exactly 0.0 for x below this: e^-750 is under a hundredth of
#: half the smallest subnormal double.
_EXP_ZERO_BELOW = -750.0


def log_weighted_sum(log_density: np.ndarray, weights: np.ndarray) -> float:
    """log of sum(weights * exp(log_density)) over entries with weight > 0.

    Entries whose log density is -inf contribute nothing; returns -inf when
    no entry contributes, and NaN when any entry with positive weight has a
    NaN log density.  Never forms exp of a large argument, and touches only
    the live entries, whose exp relative to the top is not exactly zero: on
    the lab's weights that is one or two of tens of thousands, and np.exp
    takes a slow path for every one that underflows.  `_log_row_integral`
    calls it when it sums all rows.

    The result has the bits of the pairwise np.sum over every contributing
    entry, the dead ones as zeros: adding a zero is exact, so one or two
    live terms sum alike in any order, and more are summed at their places
    among the contributing entries.
    """
    top, shifted, w, live = _shift_to_top(np.array(log_density, dtype=float), weights)
    if not np.isfinite(top):
        return top
    terms = w[live] * np.exp(shifted[live])
    if live.size > 2:
        kept = np.flatnonzero(shifted > -np.inf)
        placed = np.zeros(kept.size)
        placed[np.searchsorted(kept, live)] = terms
        terms = placed
    return top + float(np.log(np.sum(terms)))


def _shift_to_top(log_density: np.ndarray, weights):
    """The top of the weighted entries, and the flat log density and weights
    with the log density less the top in place (-inf where the weight is not
    positive), and the indices of the live entries.  Only the top when it is
    not finite."""
    w = np.asarray(weights, dtype=float).ravel()
    shifted = log_density.ravel()
    dead = ~(w > 0.0)
    if dead.any():
        shifted[dead] = -np.inf  # keeps NaN, which max() then returns
    top = float(shifted.max()) if shifted.size else -np.inf
    if not np.isfinite(top):
        return top, None, None, None
    shifted -= top
    return top, shifted, w, np.flatnonzero(shifted >= _EXP_ZERO_BELOW)


def log_add(*logs: float) -> float:
    """log(sum(exp(logs))), ignoring -inf entries; NaN when any entry is NaN."""
    if any(np.isnan(v) for v in logs):
        return np.nan
    finite = [v for v in logs if v > -np.inf]
    if not finite:
        return -np.inf
    top = max(finite)
    if not np.isfinite(top):
        return top
    return top + float(np.log(sum(np.exp(v - top) for v in finite)))


def _safe_exp(value: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.exp(value))


def _safe_log(value: float) -> float:
    if value < 0.0:
        raise ValueError("attempted log of a negative integral")
    with np.errstate(divide="ignore"):
        return float(np.log(value))


#: Above log(DBL_MAX) = 709.78: log(f) stays below it for every finite f.
_LOG_MAX = 710.0

#: How many rows of the largest bounds give the lower bound on the top.
_HEAD_ROWS = 16


def _log_row_integral(weights: np.ndarray, c: np.ndarray, psi, integrand) -> float:
    """`log_weighted_sum` of log(integrand(rows)) + c_r psi_x over a block
    of R rows with the given (R, genes) weights, evaluating only the rows
    that can reach its top.

    The block's (t, a) rows are flattened in C order; `c` holds their
    factors 2 s pole as an (R, 1) column, `psi` the profile on the block's
    genes (a scalar for one gene), and integrand(rows) returns the finite
    factor f >= 0 on the given rows (the trials build it from a `Draw`,
    whose fields are finite).  Every entry of row r is then at most its
    bound fl(c_r max psi) + _LOG_MAX, as the roundings of a product with
    c_r > 0 and of a sum keep order.  The head rows of the largest bounds
    give a lower bound `low` on the top; a row whose bound is below
    low - 751 holds neither the top nor a live entry, so the rows at or
    above it give the full block's top and live terms.  With at most two
    live terms their sum has the same bits in any order (module docstring);
    with more, no finite `low` or a c_r that is not positive,
    `log_weighted_sum` sums all rows, through the same integrand.
    """
    def log_density(rows):
        with np.errstate(divide="ignore"):
            out = np.log(np.ascontiguousarray(integrand(rows)))
        out += c[rows] * psi
        return out

    if np.all(c > 0.0):
        bound = c[:, 0] * psi.max() + _LOG_MAX
        heads = min(_HEAD_ROWS, bound.size)
        head = np.argpartition(bound, -heads)[-heads:]
        head_density = log_density(head)
        head_density[~(weights[head] > 0.0)] = -np.inf
        low = float(head_density.max())
        if np.isfinite(low):
            floor = low - (751.0 + np.spacing(abs(low)))
            rows = np.flatnonzero(bound >= floor)
            if rows.size <= head.size:  # then every such row is a head row
                keep = bound[head] >= floor
                rows, density = head[keep], head_density[keep]
            else:
                density = log_density(rows)
            top, shifted, w, live = _shift_to_top(density, weights[rows])
            if np.isfinite(top) and live.size <= 2:
                return top + float(np.log(np.sum(w[live] * np.exp(shifted[live]))))
    return log_weighted_sum(log_density(np.arange(c.shape[0])), weights)


# ---------------------------------------------------------------------------
# trial and report containers
# ---------------------------------------------------------------------------


@dataclass
class InequalityTrial:
    """Both sides of one inequality for one sample (log domain included)."""

    lhs: float
    rhs: float
    ratio: float
    log_lhs: float
    log_rhs: float
    log_ratio: float
    excluded: bool = False


def _trial_from_logs(log_lhs: float, log_rhs: float) -> InequalityTrial:
    if log_lhs == -np.inf and log_rhs == -np.inf:
        return InequalityTrial(0.0, 0.0, 0.0, -np.inf, -np.inf, 0.0, excluded=True)
    log_ratio = np.inf if log_rhs == -np.inf else log_lhs - log_rhs
    return InequalityTrial(
        lhs=_safe_exp(log_lhs),
        rhs=_safe_exp(log_rhs),
        ratio=np.inf if log_ratio == np.inf else _safe_exp(log_ratio),
        log_lhs=log_lhs,
        log_rhs=log_rhs,
        log_ratio=log_ratio,
    )


@dataclass
class InequalityReport:
    """Ensemble of trials for one inequality on one grid."""

    name: str
    ensemble_size: int
    grid_signature: str
    entries: list  # (trial_index, s, InequalityTrial); s is None when unused
    # wall seconds of the solves and of the trials, summed by the runners
    adjoint_s: float = field(default=0.0, init=False, repr=False, compare=False)
    trial_s: float = field(default=0.0, init=False, repr=False, compare=False)

    @property
    def excluded_count(self) -> int:
        return sum(1 for _, _, t in self.entries if t.excluded)

    @property
    def fitted_log_constant(self) -> float:
        best = -np.inf
        for _, _, t in self.entries:
            if not t.excluded and t.log_ratio > best:
                best = t.log_ratio
        return best

    @property
    def fitted_constant(self) -> float:
        return _safe_exp(self.fitted_log_constant)

    def all_ratios_defined(self) -> bool:
        """True when no retained trial produced NaN or +inf for the ratio."""
        return all(
            np.isfinite(t.log_ratio) or t.log_ratio == -np.inf
            for _, _, t in self.entries
            if not t.excluded
        )

    def rows(self):
        for idx, s, t in self.entries:
            yield {
                "trial": idx,
                "s": float("nan") if s is None else s,
                "lhs": t.lhs,
                "rhs": t.rhs,
                "ratio": t.ratio,
                "log_lhs": t.log_lhs,
                "log_rhs": t.log_rhs,
                "log_ratio": t.log_ratio,
            }

    def summary(self) -> str:
        head = (
            f"{self.name}: {self.ensemble_size} trials, grid {self.grid_signature},"
            f" excluded {self.excluded_count}"
        )
        fit = (
            f"fitted constant {self.fitted_constant:.6e}"
            f" (log {self.fitted_log_constant:.6e})"
        )
        return head + "\n" + fit


def grid_signature(grid: SpaceTimeGrid) -> str:
    return f"nx{grid.nx}_na{grid.na}_nt{grid.nt}"


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------


def _gene_gradient(values: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    return np.gradient(values, grid.dx, axis=-1)


def _lower_age_mask(grid: SpaceTimeGrid) -> np.ndarray:
    """Inclusive indicator of ages up to the observation threshold."""
    return (np.arange(grid.na + 1) <= grid.delta_index).astype(float)


class _Support:
    """The block of nodes where face_weights[:, :, None] * x_weights > 0.

    `ta` slices the interior (t, a) rows t_1..t_{nt-1}, a_1..a_na, where
    `WeightFamily` puts its face weights, and `x` the gene nodes of the
    window (all of them for None); `index` slices their block, which is read
    in C order, and `weights` is the weight product on the block.

    The row forms number the R rows in C order: `cell` is each row's flat
    (t, a) index, `row_pole`, `pole_sq`, `pole_cube` and `face_weights` are
    (R, 1) columns of the masked pole, its powers and the face weights, and
    `row_weights` is `weights` as (R, genes).
    """

    def __init__(self, family: WeightFamily, window):
        grid = family.grid
        self.ta = (slice(1, grid.nt), slice(1, grid.na + 1))
        self.x = slice(None) if window is None else grid.x_window_slice(window)
        self.index = (*self.ta, self.x)
        self.weights = family.face_weights[self.ta][:, :, None] * grid.wx[self.x]
        t, a = np.mgrid[self.ta]
        self.cell = (t * (grid.na + 1) + a).ravel()
        self.row_pole = family.masked_pole[self.ta].reshape(-1, 1)
        self.pole_sq = self.row_pole**2
        self.pole_cube = self.row_pole**3
        self.face_weights = family.face_weights[self.ta].reshape(-1, 1)
        self.row_weights = self.weights.reshape(self.cell.size, -1)


_SUPPORTS = weakref.WeakKeyDictionary()


def _support(family: WeightFamily, window=None) -> _Support:
    """Support of the family's integrals over a gene window (None: all genes).

    Built on first use and kept while the family lives.
    """
    supports = _SUPPORTS.setdefault(family, {})
    window = None if window is None else tuple(window)
    if window not in supports:
        supports[window] = _Support(family, window)
    return supports[window]


class Draw:
    """One backward solution w with its data, and the strength-independent
    terms of the trials on it.

    `data` is the terminal datum wT for the main bound and observability,
    the source h (or None) for the others; `family` is the weight family of
    the weighted trials (None for observability).  Both fields pass
    `checked_values` on the family's grid, or w's own without one, so every
    term the trials read is finite.  The row accessors take an index array
    of the full support's rows (see `_Support`) and return one gene row per
    index.  A row's w_x^2 is computed on its first request and kept, so no
    row's gradient is computed twice; every term has the bits of the
    expression a trial once evaluated on the whole block.
    """

    def __init__(self, w: Field, data, family: WeightFamily | None):
        grid = w.grid if family is None else family.grid
        checked_values("w", w, "trajectory", grid)
        if data is not None:
            kind = "age_gene" if data.kind == "age_gene" else "trajectory"
            checked_values("data", data, kind, grid)
        self.w, self.data, self.family = w, data, family

    @cached_property
    def full(self) -> _Support:
        return _support(self.family)

    @cached_property
    def k(self) -> np.ndarray:
        return self.family.coeffs.dispersion.value(self.family.grid.x_nodes)

    @cached_property
    def r2(self) -> np.ndarray:
        """(x-x0)^2/k, zero at a degenerate node."""
        x = self.family.grid.x_nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = (x - self.family.coeffs.x0) ** 2 / self.k
        r2[self.k == 0.0] = 0.0
        return r2

    def _rows(self, values: np.ndarray, rows) -> np.ndarray:
        return values.reshape(-1, values.shape[-1])[self.full.cell[rows]]

    def w_rows(self, rows) -> np.ndarray:
        return self._rows(self.w.values, rows)

    def data_rows(self, rows) -> np.ndarray:
        return self._rows(self.data.values, rows)

    @cached_property
    def _wx_sq(self):
        """w_x^2 on the support's rows, and which rows hold it yet."""
        return np.empty((self.full.cell.size, self.w.values.shape[-1])), \
            np.zeros(self.full.cell.size, dtype=bool)

    def wx_sq_rows(self, rows) -> np.ndarray:
        wx_sq, done = self._wx_sq
        todo = rows[~done[rows]]
        if todo.size:
            wx_sq[todo] = _gene_gradient(self.w_rows(todo), self.family.grid) ** 2
            done[todo] = True
        return wx_sq[rows]

    @cached_property
    def log_low_age(self) -> float:
        """Log of the data's mass at ages up to the observation threshold."""
        grid = self.family.grid
        return _safe_log(inner_product(self.data, self.data, grid, kind="age_gene",
                                       a_mask=_lower_age_mask(grid)))


def _weighted_energy(draw: Draw, s: float, c: np.ndarray) -> float:
    """Log of the weighted energy, the lhs both Carleman bounds share.

    The energy is the integral over the full cylinder of
    (s * pole * k * w_x^2 + s^3 * pole^3 * (x-x0)^2/k * w^2) * exp(2 s phi),
    with (x-x0)^2/k zero at a degenerate node; `c` is 2 s pole on the rows.
    """
    full = draw.full

    def poly(rows):
        return (s * full.row_pole[rows] * draw.k * draw.wx_sq_rows(rows)
                + s**3 * full.pole_cube[rows] * draw.r2 * draw.w_rows(rows) ** 2)

    return _log_row_integral(full.row_weights, c, draw.family.psi_nodes, poly)


# ---------------------------------------------------------------------------
# individual inequality trials
# ---------------------------------------------------------------------------


def carleman_main_trial(draw: Draw, s: float) -> InequalityTrial:
    """Weighted energy of a backward solution vs window observation.

    The draw's data is the terminal datum wT.
    lhs: the weighted energy of `_weighted_energy`.
    rhs: integral over the window cylinder of s^3 * pole^3 * w^2 * exp(2 s Phi)
         plus the unweighted terminal mass at ages below the threshold.
    """
    family, full = draw.family, draw.full
    c = 2.0 * s * full.row_pole
    log_lhs = _weighted_energy(draw, s, c)

    window = _support(family, family.grid.omega)
    log_obs = _log_row_integral(
        window.row_weights, c, family.Psi_nodes[window.x],
        lambda rows: s**3 * full.pole_cube[rows] * draw.w_rows(rows)[:, window.x] ** 2)

    log_rhs = log_add(log_obs, draw.log_low_age)
    return _trial_from_logs(log_lhs, log_rhs)


def carleman_intermediate_trial(draw: Draw, s: float) -> InequalityTrial:
    """Same weighted energy, bounded by the source and boundary flux terms.

    Applies to the renewal-free backward problem (zero fertility); the
    draw's data is the source h.  The rhs combines the weighted source mass
    with the one-sided gradient fluxes at both gene endpoints; with the
    profile's sign both fluxes are positive.
    """
    family, full = draw.family, draw.full
    c = 2.0 * s * full.row_pole
    log_lhs = _weighted_energy(draw, s, c)

    log_src = _log_row_integral(full.row_weights, c, family.psi_nodes,
                                lambda rows: draw.data_rows(rows) ** 2)

    # boundary fluxes: s * k * pole * |x - x0| * w_x^2 * exp(2 s pole * psi),
    # each on the one gene column of its face
    x0, log_flux = family.coeffs.x0, []
    for face, lever in ((family.grid.nx, 1.0 - x0), (0, x0)):
        log_flux.append(_log_row_integral(
            full.face_weights, c, family.psi_nodes[face],
            lambda rows: (s * draw.k[face] * lever * full.row_pole[rows]
                          * draw.wx_sq_rows(rows)[:, [face]])))
    log_rhs = log_add(log_src, *log_flux)
    return _trial_from_logs(log_lhs, log_rhs)


def _inner_window(family: WeightFamily) -> tuple:
    """The grid's inner gradient window; ValueError when it is missing or holds x0."""
    window, x0 = family.grid.omega_inner, family.coeffs.x0
    if window is None:
        raise ValueError("grid does not define an inner gradient window")
    if window[0] <= x0 <= window[1]:
        raise ValueError(f"inner gradient window must exclude the degeneracy point x0={x0}")
    return window


def caccioppoli_trial(draw: Draw, s: float) -> InequalityTrial:
    """Weighted gradient mass on the inner window vs zero-order window mass.

    The draw's data is the source h (None for none).
    lhs: integral of w_x^2 exp(2 s phi) over the inner window cylinder.
    rhs: integral of (s^2 pole^2 w^2 + h^2) exp(2 s phi) over the full
         observation window cylinder.
    The inner window must stay away from the degeneracy point.
    """
    family, full = draw.family, draw.full
    c = 2.0 * s * full.row_pole
    inner = _support(family, _inner_window(family))
    log_lhs = _log_row_integral(inner.row_weights, c, family.psi_nodes[inner.x],
                                lambda rows: draw.wx_sq_rows(rows)[:, inner.x])

    window = _support(family, family.grid.omega)

    def rhs_poly(rows):
        return s**2 * full.pole_sq[rows] * draw.w_rows(rows)[:, window.x] ** 2 + (
            0.0 if draw.data is None else draw.data_rows(rows)[:, window.x] ** 2
        )

    log_rhs = _log_row_integral(window.row_weights, c, family.psi_nodes[window.x], rhs_poly)
    return _trial_from_logs(log_lhs, log_rhs)


def observability_trial(w: Field, wT: Field) -> InequalityTrial:
    """Initial mass vs window observation plus low-age terminal mass.

    All three integrals are unweighted, so this check runs in plain floats:
    lhs = ||w(0)||^2 over ages and genes; rhs = ||w||^2 over the window
    cylinder + ||wT||^2 over ages up to the threshold.  The grid is w's; wT
    must be an age-gene field of it (`checked_values`).
    """
    grid = w.grid
    checked_values("wT", wT, "age_gene", grid)
    lhs = inner_product(w.values[0], w.values[0], grid, kind="age_gene")
    window = inner_product(w, w, grid, kind="trajectory", x_mask=grid.omega_mask)
    low_age = inner_product(wT, wT, grid, kind="age_gene", a_mask=_lower_age_mask(grid))
    rhs = window + low_age
    return _trial_from_logs(_safe_log(lhs), _safe_log(rhs))


def hardy_trial(nu: np.ndarray, coeffs: CoefficientSet, grid: SpaceTimeGrid) -> InequalityTrial:
    """Weighted zero-order mass vs weighted gradient mass on (0, 1).

    lhs = integral of p / (x - x0)^2 * nu^2, with p the interpolating weight
    (k * (x-x0)^4)^(1/3); the degenerate node is excluded from quadrature.
    rhs = integral of p * nu_x^2.  The profile must vanish at both endpoints.
    """
    nu = np.asarray(nu, dtype=float)
    if abs(nu[0]) > 1e-12 or abs(nu[-1]) > 1e-12:
        raise ValueError("gene profile must vanish at the gene-interval endpoints")
    x = grid.x_nodes
    p = hardy_weight(x, coeffs.dispersion)
    dist = np.abs(x - coeffs.x0)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = p / dist**2
    singular[dist == 0.0] = 0.0
    lhs = float(np.sum(grid.wx * singular * nu**2))
    nu_x = np.gradient(nu, grid.dx)
    rhs = float(np.sum(grid.wx * p * nu_x**2))
    return _trial_from_logs(_safe_log(lhs), _safe_log(rhs))


# ---------------------------------------------------------------------------
# pole-weight supremum probe
# ---------------------------------------------------------------------------


@dataclass
class WeightSupReport:
    """Supremum of s^d pole^d exp(2 s Phi) over the open cylinder."""

    value: float
    log_value: float
    argmax: tuple  # (t_index, a_index, x_index)


def weight_sup_check(
    family: WeightFamily, power: int, s: float | None = None
) -> WeightSupReport:
    """Locate and size the peak of s^d pole^d exp(2 s Phi).

    With the admissible envelope in place the peak is finite and must sit
    strictly inside the time range: if the argmax lands on the first or last
    interior time level the probe raises, because the weight is then still
    growing toward the excluded face and the reported value is meaningless.

    The log density d log(s pole) + 2 s pole Psi(x) never forms over the
    whole cylinder.  Where the pole is finite and positive it is, even as
    rounded, a nondecreasing function of Psi (a product with 2 s pole > 0
    and a sum with a constant both keep order), and where the pole is zero
    it is -inf for every x.  So every (t, a) row peaks at x* = argmax Psi,
    and the peak in C order is the first maximum of the (t, a) table at x*
    and then the first maximum over x of that one row.
    """
    if power not in (1, 2, 3):
        raise ValueError("power must be 1, 2 or 3")
    grid = family.grid
    strength = family.config.strength if s is None else float(s)
    th = family.masked_pole
    Psi = family.Psi_nodes
    with np.errstate(divide="ignore"):
        log_pole = power * np.log(strength * th)
    table = log_pole + 2.0 * strength * th * Psi[np.argmax(Psi)]
    t_idx, a_idx = np.unravel_index(int(np.argmax(table)), table.shape)
    row = log_pole[t_idx, a_idx] + 2.0 * strength * th[t_idx, a_idx] * Psi
    x_idx = int(np.argmax(row))
    log_value = float(row[x_idx])
    if t_idx in (1, grid.nt - 1):
        raise RuntimeError(
            "weight peak sits on the first or last interior time level; "
            "refine the grid or reduce the strength"
        )
    return WeightSupReport(
        value=_safe_exp(log_value),
        log_value=log_value,
        argmax=(int(t_idx), int(a_idx), int(x_idx)),
    )


# ---------------------------------------------------------------------------
# ensemble runners
# ---------------------------------------------------------------------------


def _renewal_free(coeffs: CoefficientSet) -> CoefficientSet:
    return replace(coeffs, beta=ConstantRate(0.0))


def _ensemble(name, trial, coeffs, grid, family, s_values, trials, seed, with_source):
    """Report of `trial` over `trials` backward solves drawn from `seed`.

    Per trial a random terminal datum wT and, `with_source`, a random source
    h for the renewal-free problem; one solve w; then trial(draw, s) for
    each strength s on draw = Draw(w, h, family), with wT for h when there
    is no source, or trial(draw, None) once when `s_values` is None.  The
    strengths of one draw share its strength-independent terms, and the
    draw is dropped before the next solve, so no draw's terms outlive its
    trials.  The report records the seconds spent in the solves and in the
    trials.
    """
    strengths = (None,) if s_values is None else tuple(float(s) for s in s_values)
    if with_source:
        coeffs = _renewal_free(coeffs)
    rng = make_rng(seed)
    report = InequalityReport(name, trials, grid_signature(grid), [])
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        h = trajectory_draw(rng, grid) if with_source else None
        start = time.perf_counter()
        w = solve_adjoint(AdjointProblem(coeffs, grid, wT, source_h=h))
        solved = time.perf_counter()
        draw = Draw(w, wT if h is None else h, family)
        report.entries.extend((idx, s, trial(draw, s)) for s in strengths)
        del draw
        report.adjoint_s += solved - start
        report.trial_s += time.perf_counter() - solved
    return report


def run_carleman_main(
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble of backward solutions from random terminal data, on the family's grid."""
    return _ensemble("carleman_main", carleman_main_trial, family.coeffs, family.grid,
                     family, s_values, trials, seed, False)


def run_carleman_intermediate(
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the renewal-free bound with random sources, on the family's grid."""
    return _ensemble("carleman_intermediate", carleman_intermediate_trial, family.coeffs,
                     family.grid, family, s_values, trials, seed, True)


def run_caccioppoli(
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the window gradient bound (renewal-free sources), on the family's grid."""
    _inner_window(family)  # before the first solve
    return _ensemble("caccioppoli", caccioppoli_trial, family.coeffs, family.grid, family,
                     s_values, trials, seed, True)


def run_observability(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 50,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble estimate of the observability constant."""
    return _ensemble("observability", lambda draw, s: observability_trial(draw.w, draw.data),
                     coeffs, grid, None, None, trials, seed, False)


def run_hardy(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the weighted interpolation bound on gene profiles."""
    rng = make_rng(seed)
    report = InequalityReport("hardy_poincare", trials, grid_signature(grid), [])
    for idx in range(trials):
        nu = gene_draw(rng, grid)
        start = time.perf_counter()
        report.entries.append((idx, None, hardy_trial(nu, coeffs, grid)))
        report.trial_s += time.perf_counter() - start
    return report


def run_inequality_lab(
    family: WeightFamily,
    s_values=(5.0, 12.5, 20.0, 35.0, 50.0),
    trials: int = 20,
    seed: int | None = None,
    observability_trials: int = 50,
) -> dict:
    """Run every inequality check once, on the family's grid, and collect the reports."""
    _inner_window(family)  # before the first solve
    coeffs, grid = family.coeffs, family.grid
    return {
        "carleman_main": run_carleman_main(family, s_values, trials, seed),
        "carleman_intermediate": run_carleman_intermediate(family, s_values, trials, seed),
        "caccioppoli": run_caccioppoli(family, s_values, trials, seed),
        "observability": run_observability(coeffs, grid, observability_trials, seed),
        "hardy_poincare": run_hardy(coeffs, grid, trials, seed),
    }
