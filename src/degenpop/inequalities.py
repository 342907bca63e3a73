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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointProblem, solve_adjoint
from .ensembles import age_gene_draw, gene_draw, make_rng, trajectory_draw
from .model import CoefficientSet, ConstantRate, Field, SpaceTimeGrid, inner_product
from .weights import WeightFamily, hardy_weight


# ---------------------------------------------------------------------------
# log-domain reductions
# ---------------------------------------------------------------------------


def log_weighted_sum(log_density: np.ndarray, weights: np.ndarray) -> float:
    """log of sum(weights * exp(log_density)) over entries with weight > 0.

    Entries whose log density is -inf contribute nothing; returns -inf when
    no entry contributes.  Never forms exp of a large argument.
    """
    w = np.asarray(weights, dtype=float).ravel()
    g = np.asarray(log_density, dtype=float).ravel()
    keep = (w > 0.0) & (g > -np.inf)
    if not np.any(keep):
        return -np.inf
    g = g[keep]
    w = w[keep]
    top = float(g.max())
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.sum(w * np.exp(g - top))))


def log_add(*logs: float) -> float:
    """log(sum(exp(logs))), ignoring -inf entries."""
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
    log_ratio = log_lhs - log_rhs if log_rhs > -np.inf else np.inf
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
    s_values: tuple
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


def _log_weighted_volume(
    log_poly: np.ndarray,
    exponent: np.ndarray,
    family: WeightFamily,
    x_weights: np.ndarray,
) -> float:
    weights = family.face_weights[:, :, None] * x_weights[None, None, :]
    return log_weighted_sum(log_poly + exponent, weights)


def _weighted_energy(w: Field, s: float, family: WeightFamily):
    """Log of the weighted energy, the lhs both Carleman bounds share.

    The energy is the integral over the full cylinder of
    (s * pole * k * w_x^2 + s^3 * pole^3 * (x-x0)^2/k * w^2) * exp(2 s phi),
    with (x-x0)^2/k zero at a degenerate node.  Also returns w_x^2 and the
    exponent 2 s phi, which the intermediate bound's rhs reuses.
    """
    grid = family.grid
    th = family.masked_pole[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    x = grid.x_nodes
    k = family.coeffs.dispersion.value(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = (x - family.coeffs.x0) ** 2 / k
    r2[k == 0.0] = 0.0

    lhs_poly = s * th * k * wx_sq + s**3 * th**3 * r2 * vals**2
    with np.errstate(divide="ignore"):
        log_lhs_poly = np.log(lhs_poly)
    exp_phi = 2.0 * s * th * family.psi_nodes[None, None, :]
    log_lhs = _log_weighted_volume(log_lhs_poly, exp_phi, family, grid.wx)
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

    th = family.masked_pole[:, :, None]
    vals = w.values
    rhs_poly = s**3 * th**3 * vals**2
    with np.errstate(divide="ignore"):
        log_rhs_poly = np.log(rhs_poly)
    exp_reg = 2.0 * s * th * family.Psi_nodes[None, None, :]
    window_wx = grid.wx * grid.omega_mask
    log_obs = _log_weighted_volume(log_rhs_poly, exp_reg, family, window_wx)

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
    log_lhs, wx_sq, exp_phi = _weighted_energy(w, s, family)

    with np.errstate(divide="ignore"):
        log_source = np.log(h.values**2)
    log_src = _log_weighted_volume(log_source, exp_phi, family, grid.wx)

    # boundary fluxes: s * k * pole * |x - x0| * w_x^2 * exp(2 s pole * psi)
    k = family.coeffs.dispersion.value(grid.x_nodes)
    th, x0 = family.masked_pole, family.coeffs.x0
    log_flux = []
    for idx, lever in ((grid.nx, 1.0 - x0), (0, x0)):
        poly = s * k[idx] * lever * th * wx_sq[:, :, idx]
        with np.errstate(divide="ignore"):
            log_poly = np.log(poly)
        exponent = 2.0 * s * th * family.psi_nodes[idx]
        log_flux.append(log_weighted_sum(log_poly + exponent, family.face_weights))
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
    th = family.masked_pole[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    exp_phi = 2.0 * s * th * family.psi_nodes[None, None, :]

    inner_wx = grid.wx * grid.x_window_mask((lo, hi))
    with np.errstate(divide="ignore"):
        log_lhs_poly = np.log(wx_sq)
    log_lhs = _log_weighted_volume(log_lhs_poly, exp_phi, family, inner_wx)

    rhs_poly = s**2 * th**2 * vals**2 + (0.0 if h is None else h.values**2)
    with np.errstate(divide="ignore"):
        log_rhs_poly = np.log(rhs_poly)
    window_wx = grid.wx * grid.omega_mask
    log_rhs = _log_weighted_volume(log_rhs_poly, exp_phi, family, window_wx)
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


def _as_tuple(s_values) -> tuple:
    if np.isscalar(s_values):
        return (float(s_values),)
    return tuple(float(s) for s in s_values)


def _renewal_free(coeffs: CoefficientSet) -> CoefficientSet:
    return CoefficientSet(
        dispersion=coeffs.dispersion,
        mu=coeffs.mu,
        beta=ConstantRate(0.0),
        gamma=coeffs.gamma,
        theta=coeffs.theta,
    )


def _adjoint_draws(coeffs, grid, trials, seed, with_source):
    """Yield (index, wT, h, w) for `trials` backward solves from `seed`.

    Per trial a random terminal datum wT and, `with_source`, a random source
    h for the renewal-free problem (else h is None and `coeffs` is used).
    """
    rng = make_rng(seed)
    if with_source:
        coeffs = _renewal_free(coeffs)
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        h = trajectory_draw(rng, grid) if with_source else None
        yield idx, wT, h, solve_adjoint(AdjointProblem(coeffs, grid, wT, source_h=h))


def run_carleman_main(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble of backward solutions from random terminal data."""
    s_values = _as_tuple(s_values)
    entries = []
    for idx, wT, _, w in _adjoint_draws(coeffs, grid, trials, seed, False):
        for s in s_values:
            entries.append((idx, s, carleman_main_trial(w, wT, s, family)))
    return InequalityReport(
        "carleman_main", s_values, trials, grid_signature(grid), entries
    )


def run_carleman_intermediate(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the renewal-free bound with random sources."""
    s_values = _as_tuple(s_values)
    entries = []
    for idx, _, h, w in _adjoint_draws(coeffs, grid, trials, seed, True):
        for s in s_values:
            entries.append((idx, s, carleman_intermediate_trial(w, h, s, family)))
    return InequalityReport(
        "carleman_intermediate", s_values, trials, grid_signature(grid), entries
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
    s_values = _as_tuple(s_values)
    entries = []
    for idx, _, h, w in _adjoint_draws(coeffs, grid, trials, seed, True):
        for s in s_values:
            entries.append((idx, s, caccioppoli_trial(w, h, s, family)))
    return InequalityReport(
        "caccioppoli", s_values, trials, grid_signature(grid), entries
    )


def run_observability(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 50,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble estimate of the observability constant."""
    entries = []
    for idx, wT, _, w in _adjoint_draws(coeffs, grid, trials, seed, False):
        entries.append((idx, None, observability_trial(w, wT, grid)))
    return InequalityReport(
        "observability", (), trials, grid_signature(grid), entries
    )


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
    return InequalityReport("hardy_poincare", (), trials, grid_signature(grid), entries)


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
