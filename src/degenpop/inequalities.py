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

Each weighted integral is evaluated only on the nodes that carry weight:
the block of interior (t, a) rows times the gene nodes of its window (all
of them, the observation window, or the inner gradient window).  The block
is visited in C order, so the log-sum-exp sees exactly the entries, in the
order, that a sum over the whole cylinder keeps, and returns the same bits.

The four adjoint ensembles (main and intermediate Carleman, Caccioppoli,
observability) share one loop, `_ensemble`: per trial it draws the data,
makes one backward solve and evaluates the trial at every strength (once,
without one, for observability).

The weighted trials take a `Draw` and a strength s.  What does not depend
on s is computed once per draw and shared by its strengths: the gene
gradient w_x^2, the squares w^2 and h^2, the logs of h^2 and of w_x^2 on
the inner window, the pole powers, k, (x-x0)^2/k and the low-age terminal
mass.  Each is the very subexpression a trial once evaluated per strength,
and every product with s keeps its order (s * pole * k * w_x^2 still
rounds as ((s pole) k) w_x^2), so the entries keep their bits.
`_ensemble` builds one `Draw` per solve and drops it before the next.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .adjoint import AdjointProblem, solve_adjoint
from .ensembles import age_gene_draw, gene_draw, make_rng, trajectory_draw
from .model import CoefficientSet, ConstantRate, Field, SpaceTimeGrid, inner_product
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
    these weights that is one or two of tens of thousands, and np.exp takes
    a slow path for every one that underflows.

    The result has the bits of the pairwise np.sum over every contributing
    entry, the dead ones as zeros: adding a zero is exact, so one or two
    live terms sum alike in any order, and more are summed at their places
    among the contributing entries.
    """
    return _log_weighted_sum_into(np.array(log_density, dtype=float), weights)


def _log_weighted_sum_into(log_density: np.ndarray, weights) -> float:
    """`log_weighted_sum` of a float array it may overwrite."""
    w = np.asarray(weights, dtype=float).ravel()
    shifted = log_density.ravel()
    dead = ~(w > 0.0)
    if dead.any():
        shifted[dead] = -np.inf  # keeps NaN, which max() then returns
    top = float(shifted.max()) if shifted.size else -np.inf
    if not np.isfinite(top):
        return top
    shifted -= top
    live = np.flatnonzero(shifted >= _EXP_ZERO_BELOW)
    terms = w[live] * np.exp(shifted[live])
    if live.size > 2:
        kept = np.flatnonzero(shifted > -np.inf)
        placed = np.zeros(kept.size)
        placed[np.searchsorted(kept, live)] = terms
        terms = placed
    return top + float(np.log(np.sum(terms)))


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


def _log_integral(poly: np.ndarray, exponent, weights: np.ndarray) -> float:
    """log of the weighted sum of poly * exp(exponent), for poly >= 0.

    Taken as log(poly) + exponent, so a weight far beyond the double range
    never forms; a zero of poly contributes nothing.
    """
    with np.errstate(divide="ignore"):
        log_density = np.log(poly)
    log_density += exponent
    return _log_weighted_sum_into(log_density, weights)


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
    adjoint_s: float = field(default=0.0, repr=False, compare=False)  # solve wall seconds
    trial_s: float = field(default=0.0, repr=False, compare=False)  # trial wall seconds

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
    in C order.  `pole` is the masked pole factor on the rows, with a
    trailing gene axis, and `weights` the weight product on the block.
    """

    def __init__(self, family: WeightFamily, window):
        grid = family.grid
        self.ta = (slice(1, grid.nt), slice(1, grid.na + 1))
        self.x = slice(None) if window is None else grid.x_window_slice(window)
        self.index = (*self.ta, self.x)
        self.pole = family.masked_pole[self.ta][:, :, None]
        self.face_weights = family.face_weights[self.ta]
        self.weights = self.face_weights[:, :, None] * grid.wx[self.x]


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
    the source h for the others; `family` is the weight family of the
    weighted trials (None for observability).  Every term is built on first
    use from w, data and the family, by the same expression a trial once
    evaluated per strength, so it has the same bits.  All arrays live on
    the full support's (t, a) rows; a window's term is a gene slice of them.
    """

    def __init__(self, w: Field, data, family: WeightFamily | None):
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

    @cached_property
    def pole_sq(self) -> np.ndarray:
        return self.full.pole**2

    @cached_property
    def pole_cube(self) -> np.ndarray:
        return self.full.pole**3

    @cached_property
    def wx_sq(self) -> np.ndarray:
        return _gene_gradient(self.w.values[self.full.ta], self.family.grid) ** 2

    @cached_property
    def log_inner_wx_sq(self) -> np.ndarray:
        """log w_x^2 on the genes of the inner gradient window."""
        inner = _support(self.family, self.family.grid.omega_inner)
        with np.errstate(divide="ignore"):
            return np.log(self.wx_sq[:, :, inner.x])

    @cached_property
    def vals_sq(self) -> np.ndarray:
        return self.w.values[self.full.index] ** 2

    @cached_property
    def data_sq(self) -> np.ndarray:
        return self.data.values[self.full.index] ** 2

    @cached_property
    def log_data_sq(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.data.values[self.full.index] ** 2)

    @cached_property
    def log_low_age(self) -> float:
        """Log of the data's mass at ages up to the observation threshold."""
        grid = self.family.grid
        return _safe_log(inner_product(self.data, self.data, grid, kind="age_gene",
                                       a_mask=_lower_age_mask(grid)))


def _weighted_energy(draw: Draw, s: float):
    """Log of the weighted energy, the lhs both Carleman bounds share.

    The energy is the integral over the full cylinder of
    (s * pole * k * w_x^2 + s^3 * pole^3 * (x-x0)^2/k * w^2) * exp(2 s phi),
    with (x-x0)^2/k zero at a degenerate node.  Also returns the exponent
    2 s phi on the support, which the intermediate bound's rhs reuses.
    """
    full = draw.full
    th = full.pole
    lhs_poly = (s * th * draw.k * draw.wx_sq
                + s**3 * draw.pole_cube * draw.r2 * draw.vals_sq)
    exp_phi = 2.0 * s * th * draw.family.psi_nodes[full.x]
    log_lhs = _log_integral(lhs_poly, exp_phi, full.weights)
    return log_lhs, exp_phi


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
    family = draw.family
    log_lhs = _weighted_energy(draw, s)[0]

    window = _support(family, family.grid.omega)
    rhs_poly = s**3 * draw.pole_cube * draw.vals_sq[:, :, window.x]
    exp_reg = 2.0 * s * window.pole * family.Psi_nodes[window.x]
    log_obs = _log_integral(rhs_poly, exp_reg, window.weights)

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
    log_lhs, exp_phi = _weighted_energy(draw, s)

    log_src = _log_weighted_sum_into(draw.log_data_sq + exp_phi, full.weights)

    # boundary fluxes: s * k * pole * |x - x0| * w_x^2 * exp(2 s pole * psi)
    th, x0 = full.pole[:, :, 0], family.coeffs.x0
    log_flux = []
    for idx, lever in ((family.grid.nx, 1.0 - x0), (0, x0)):
        poly = s * draw.k[idx] * lever * th * draw.wx_sq[:, :, idx]
        exponent = 2.0 * s * th * family.psi_nodes[idx]
        log_flux.append(_log_integral(poly, exponent, full.face_weights))
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
    family = draw.family
    inner = _support(family, _inner_window(family))
    exp_phi = 2.0 * s * inner.pole * family.psi_nodes[inner.x]
    log_lhs = _log_weighted_sum_into(draw.log_inner_wx_sq + exp_phi, inner.weights)

    window = _support(family, family.grid.omega)
    th = window.pole
    rhs_poly = s**2 * draw.pole_sq * draw.vals_sq[:, :, window.x] + (
        0.0 if draw.data is None else draw.data_sq[:, :, window.x]
    )
    exp_phi = 2.0 * s * th * family.psi_nodes[window.x]
    log_rhs = _log_integral(rhs_poly, exp_phi, window.weights)
    return _trial_from_logs(log_lhs, log_rhs)


def observability_trial(w: Field, wT: Field, grid: SpaceTimeGrid) -> InequalityTrial:
    """Initial mass vs window observation plus low-age terminal mass.

    All three integrals are unweighted, so this check runs in plain floats:
    lhs = ||w(0)||^2 over ages and genes; rhs = ||w||^2 over the window
    cylinder + ||wT||^2 over ages up to the threshold.
    """
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
    strength: float
    power: int


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
        strength=strength,
        power=power,
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
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble of backward solutions from random terminal data."""
    return _ensemble("carleman_main", carleman_main_trial, coeffs, grid, family,
                     s_values, trials, seed, False)


def run_carleman_intermediate(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the renewal-free bound with random sources."""
    return _ensemble("carleman_intermediate", carleman_intermediate_trial, coeffs, grid,
                     family, s_values, trials, seed, True)


def run_caccioppoli(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the window gradient bound (renewal-free sources)."""
    return _ensemble("caccioppoli", caccioppoli_trial, coeffs, grid, family,
                     s_values, trials, seed, True)


def run_observability(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 50,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble estimate of the observability constant."""
    return _ensemble("observability",
                     lambda draw, s: observability_trial(draw.w, draw.data, grid),
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
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values=(5.0, 12.5, 20.0, 35.0, 50.0),
    trials: int = 20,
    seed: int | None = None,
    observability_trials: int = 50,
) -> dict:
    """Run every inequality check once and collect the reports."""
    _inner_window(family)  # before the first solve
    return {
        "carleman_main": run_carleman_main(coeffs, grid, family, s_values, trials, seed),
        "carleman_intermediate": run_carleman_intermediate(
            coeffs, grid, family, s_values, trials, seed
        ),
        "caccioppoli": run_caccioppoli(coeffs, grid, family, s_values, trials, seed),
        "observability": run_observability(
            coeffs, grid, trials=observability_trials, seed=seed
        ),
        "hardy_poincare": run_hardy(coeffs, grid, trials=trials, seed=seed),
    }
