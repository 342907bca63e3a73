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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import partial

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
    NaN log density.  Never forms exp of a large argument, and skips the
    entries whose exp is exactly zero: on these weights that is almost all
    of them, and np.exp takes a slow path for every one that underflows.
    """
    w = np.asarray(weights, dtype=float).ravel()
    g = np.asarray(log_density, dtype=float).ravel()
    keep = (w > 0.0) & (g != -np.inf)  # keeps NaN, which max() then returns
    if not np.any(keep):
        return -np.inf
    g = g[keep]
    w = w[keep]
    top = float(g.max())
    if not np.isfinite(top):
        return top
    g -= top
    live = np.flatnonzero(g >= _EXP_ZERO_BELOW)
    terms = np.zeros_like(g)
    terms[live] = w[live] * np.exp(g[live])
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
        log_poly = np.log(poly)
    return log_weighted_sum(log_poly + exponent, weights)


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


def _weighted_energy(w: Field, s: float, family: WeightFamily):
    """Log of the weighted energy, the lhs both Carleman bounds share.

    The energy is the integral over the full cylinder of
    (s * pole * k * w_x^2 + s^3 * pole^3 * (x-x0)^2/k * w^2) * exp(2 s phi),
    with (x-x0)^2/k zero at a degenerate node.  Also returns w_x^2 on the
    support's (t, a) rows at every gene node and the exponent 2 s phi on the
    support, which the intermediate bound's rhs reuses.
    """
    grid = family.grid
    full = _support(family)
    th = full.pole
    vals = w.values[full.index]
    wx_sq = _gene_gradient(w.values[full.ta], grid) ** 2
    x = grid.x_nodes
    k = family.coeffs.dispersion.value(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = (x - family.coeffs.x0) ** 2 / k
    r2[k == 0.0] = 0.0

    lhs_poly = (s * th * k[full.x] * wx_sq[:, :, full.x]
                + s**3 * th**3 * r2[full.x] * vals**2)
    exp_phi = 2.0 * s * th * family.psi_nodes[full.x]
    log_lhs = _log_integral(lhs_poly, exp_phi, full.weights)
    return log_lhs, wx_sq, exp_phi


# ---------------------------------------------------------------------------
# individual inequality trials
# ---------------------------------------------------------------------------


def carleman_main_trial(
    w: Field, wT: Field, s: float, family: WeightFamily
) -> InequalityTrial:
    """Weighted energy of a backward solution vs window observation.

    lhs: the weighted energy of `_weighted_energy`.
    rhs: integral over the window cylinder of s^3 * pole^3 * w^2 * exp(2 s Phi)
         plus the unweighted terminal mass at ages below the threshold.
    """
    grid = family.grid
    log_lhs = _weighted_energy(w, s, family)[0]

    window = _support(family, grid.omega)
    th = window.pole
    rhs_poly = s**3 * th**3 * w.values[window.index] ** 2
    exp_reg = 2.0 * s * th * family.Psi_nodes[window.x]
    log_obs = _log_integral(rhs_poly, exp_reg, window.weights)

    low_age = inner_product(wT, wT, grid, kind="age_gene", a_mask=_lower_age_mask(grid))
    log_rhs = log_add(log_obs, _safe_log(low_age))
    return _trial_from_logs(log_lhs, log_rhs)


def carleman_intermediate_trial(
    w: Field, h: Field, s: float, family: WeightFamily
) -> InequalityTrial:
    """Same weighted energy, bounded by the source and boundary flux terms.

    Applies to the renewal-free backward problem (zero fertility).  The rhs
    combines the weighted source mass with the one-sided gradient fluxes at
    both gene endpoints; with the profile's sign both fluxes are positive.
    """
    grid = family.grid
    full = _support(family)
    log_lhs, wx_sq, exp_phi = _weighted_energy(w, s, family)

    log_src = _log_integral(h.values[full.index] ** 2, exp_phi, full.weights)

    # boundary fluxes: s * k * pole * |x - x0| * w_x^2 * exp(2 s pole * psi)
    k = family.coeffs.dispersion.value(grid.x_nodes)
    th, x0 = full.pole[:, :, 0], family.coeffs.x0
    log_flux = []
    for idx, lever in ((grid.nx, 1.0 - x0), (0, x0)):
        poly = s * k[idx] * lever * th * wx_sq[:, :, idx]
        exponent = 2.0 * s * th * family.psi_nodes[idx]
        log_flux.append(_log_integral(poly, exponent, full.face_weights))
    log_rhs = log_add(log_src, *log_flux)
    return _trial_from_logs(log_lhs, log_rhs)


def caccioppoli_trial(
    w: Field, h: Field, s: float, family: WeightFamily
) -> InequalityTrial:
    """Weighted gradient mass on the inner window vs zero-order window mass.

    lhs: integral of w_x^2 exp(2 s phi) over the inner window cylinder.
    rhs: integral of (s^2 pole^2 w^2 + h^2) exp(2 s phi) over the full
         observation window cylinder.
    The inner window must stay away from the degeneracy point.
    """
    grid = family.grid
    if grid.omega_inner is None:
        raise ValueError("grid does not define an inner gradient window")
    lo, hi = grid.omega_inner
    if lo <= family.coeffs.x0 <= hi:
        raise ValueError(
            "inner gradient window must exclude the degeneracy point "
            f"x0={family.coeffs.x0}"
        )
    inner = _support(family, (lo, hi))
    wx_sq = _gene_gradient(w.values[inner.ta], grid)[:, :, inner.x] ** 2
    exp_phi = 2.0 * s * inner.pole * family.psi_nodes[inner.x]
    log_lhs = _log_integral(wx_sq, exp_phi, inner.weights)

    window = _support(family, grid.omega)
    th = window.pole
    rhs_poly = s**2 * th**2 * w.values[window.index] ** 2 + (
        0.0 if h is None else h.values[window.index] ** 2
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
    """
    if power not in (1, 2, 3):
        raise ValueError("power must be 1, 2 or 3")
    grid = family.grid
    strength = family.config.strength if s is None else float(s)
    th = family.masked_pole[:, :, None]
    with np.errstate(divide="ignore"):
        log_density = power * np.log(strength * th)
    log_density = log_density + 2.0 * strength * th * family.Psi_nodes[None, None, :]
    flat = int(np.argmax(log_density))
    t_idx, a_idx, x_idx = np.unravel_index(flat, log_density.shape)
    log_value = float(log_density[t_idx, a_idx, x_idx])
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


def _ensemble(name, trial, coeffs, grid, s_values, trials, seed, with_source):
    """Report of `trial` over `trials` backward solves drawn from `seed`.

    Per trial a random terminal datum wT and, `with_source`, a random source
    h for the renewal-free problem; one solve w; then trial(w, h, s) for each
    strength s, with wT for h when there is no source, or trial(w, wT, None)
    once when `s_values` is None.
    """
    strengths = (None,) if s_values is None else tuple(float(s) for s in s_values)
    if with_source:
        coeffs = _renewal_free(coeffs)
    rng = make_rng(seed)
    entries = []
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        h = trajectory_draw(rng, grid) if with_source else None
        w = solve_adjoint(AdjointProblem(coeffs, grid, wT, source_h=h))
        entries.extend((idx, s, trial(w, wT if h is None else h, s)) for s in strengths)
    return InequalityReport(name, trials, grid_signature(grid), entries)


def run_carleman_main(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble of backward solutions from random terminal data."""
    trial = partial(carleman_main_trial, family=family)
    return _ensemble("carleman_main", trial, coeffs, grid, s_values, trials, seed, False)


def run_carleman_intermediate(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the renewal-free bound with random sources."""
    trial = partial(carleman_intermediate_trial, family=family)
    return _ensemble(
        "carleman_intermediate", trial, coeffs, grid, s_values, trials, seed, True
    )


def run_caccioppoli(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the window gradient bound (renewal-free sources)."""
    trial = partial(caccioppoli_trial, family=family)
    return _ensemble("caccioppoli", trial, coeffs, grid, s_values, trials, seed, True)


def run_observability(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 50,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble estimate of the observability constant."""
    return _ensemble("observability", lambda w, wT, s: observability_trial(w, wT, grid),
                     coeffs, grid, None, trials, seed, False)


def run_hardy(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the weighted interpolation bound on gene profiles."""
    rng = make_rng(seed)
    entries = []
    for idx in range(trials):
        nu = gene_draw(rng, grid)
        entries.append((idx, None, hardy_trial(nu, coeffs, grid)))
    return InequalityReport("hardy_poincare", trials, grid_signature(grid), entries)


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
