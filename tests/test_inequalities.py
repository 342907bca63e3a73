"""Log-domain integration, weighted-inequality trials, and ensemble reports."""

import re
from pathlib import Path

import numpy as np
import pytest

import degenpop as dp
from degenpop.adjoint import AdjointProblem, solve_adjoint
from degenpop.ensembles import age_gene_draw, gene_draw, make_rng, trajectory_draw
from degenpop.inequalities import (
    InequalityReport,
    InequalityTrial,
    _as_tuple,
    _gene_gradient,
    _lower_age_mask,
    _renewal_free,
    _safe_log,
    _trial_from_logs,
    caccioppoli_trial,
    carleman_intermediate_trial,
    carleman_main_trial,
    grid_signature,
    hardy_trial,
    log_add,
    log_weighted_sum,
    observability_trial,
)
from degenpop.model import CoefficientSet, Field, SpaceTimeGrid, inner_product
from degenpop.weights import WeightFamily, hardy_weight


@pytest.fixture(scope="module")
def adjoint_data(bench_coeffs, coarse_grid):
    """One backward solve with terminal data and a distributed source."""
    rng = dp.make_rng(77)
    wT = dp.age_gene_draw(rng, coarse_grid)
    h = dp.trajectory_draw(rng, coarse_grid)
    coeffs = _renewal_free(bench_coeffs)
    w = dp.solve_adjoint(dp.AdjointProblem(coeffs, coarse_grid, wT, source_h=h))
    return w, wT, h


class TestLogDomainPrimitives:
    def test_log_weighted_sum_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.1, 2.0, size=64)
        weights = rng.uniform(0.0, 1.0, size=64)
        direct = np.log(np.sum(vals * weights))
        assert np.isclose(dp.log_weighted_sum(np.log(vals), weights), direct,
                          rtol=1e-13)

    def test_log_weighted_sum_ignores_zero_weight_and_zero_density(self):
        logs = np.array([0.0, -np.inf, 5000.0])
        weights = np.array([1.0, 1.0, 0.0])
        assert np.isclose(dp.log_weighted_sum(logs, weights), 0.0, atol=1e-14)
        assert dp.log_weighted_sum(np.full(3, -np.inf), np.ones(3)) == -np.inf

    def test_log_weighted_sum_survives_extreme_magnitudes(self):
        logs = np.array([-1e7, -1e7 + 1.0])
        out = dp.log_weighted_sum(logs, np.ones(2))
        assert np.isclose(out, -1e7 + np.logaddexp(0.0, 1.0), rtol=1e-12)

    def test_log_add(self):
        assert np.isclose(dp.log_add(np.log(2.0), np.log(3.0)), np.log(5.0),
                          rtol=1e-14)
        assert dp.log_add(-np.inf, -np.inf) == -np.inf


class TestTrialBookkeeping:
    def test_degenerate_trials_are_excluded(self, coarse_grid, bench_coeffs):
        zero = dp.Field.zeros("age_gene", coarse_grid)
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, coarse_grid, zero))
        trial = observability_trial(w, zero, coarse_grid)
        assert trial.excluded

    def test_report_fits_the_largest_ratio(self, coarse_grid):
        from degenpop.inequalities import InequalityReport, _trial_from_logs
        entries = [(0, 1.0, _trial_from_logs(np.log(2.0), 0.0)),
                   (1, 1.0, _trial_from_logs(np.log(8.0), 0.0)),
                   (2, 1.0, _trial_from_logs(-np.inf, -np.inf))]
        report = InequalityReport("demo", (1.0,), 3, "nx4_na4_nt4", entries)
        assert np.isclose(report.fitted_constant, 8.0, rtol=1e-14)
        assert report.excluded_count == 1
        assert report.all_ratios_defined()
        rows = list(report.rows())
        assert len(rows) == 3 and rows[0]["trial"] == 0

    def test_zero_numerator_gives_zero_ratio(self):
        from degenpop.inequalities import _trial_from_logs
        trial = _trial_from_logs(-np.inf, 0.0)
        assert trial.ratio == 0.0 and trial.log_ratio == -np.inf
        assert not trial.excluded
        flipped = _trial_from_logs(0.0, -np.inf)
        assert flipped.ratio == np.inf


class TestWeightedTrials:
    def test_main_estimate_ratio_is_finite_and_tiny(self, adjoint_data,
                                                    coarse_family):
        w, wT, _ = adjoint_data
        trial = carleman_main_trial(w, wT, 5.0, coarse_family)
        assert not trial.excluded
        assert np.isfinite(trial.log_lhs) and np.isfinite(trial.log_rhs)
        assert trial.log_ratio < -1e5  # weighted side is astronomically smaller
        assert trial.ratio == 0.0  # underflows cleanly rather than NaN

    def test_intermediate_estimate_tracks_the_boundary_flux(self, adjoint_data,
                                                            coarse_family):
        w, _, h = adjoint_data
        # lhs and rhs peak at the same space-time cell, so the log ratio is a
        # moderate, strength-independent number (about log(dx/2) - log(1-x0))
        r5 = carleman_intermediate_trial(w, h, 5.0, coarse_family)
        r50 = carleman_intermediate_trial(w, h, 50.0, coarse_family)
        assert -6.0 < r5.log_ratio < -2.0
        assert abs(r5.log_ratio - r50.log_ratio) < 0.01

    def test_gradient_localization_ratio_finite(self, adjoint_data, coarse_family):
        w, _, h = adjoint_data
        trial = caccioppoli_trial(w, h, 5.0, coarse_family)
        assert np.isfinite(trial.log_lhs) and np.isfinite(trial.log_rhs)
        assert trial.log_ratio < 0.0

    def test_gradient_localization_needs_a_window_off_the_degeneracy(
            self, adjoint_data, bench_coeffs):
        w, _, h = adjoint_data
        bad_grid = dp.SpaceTimeGrid(T=0.4, A=1.0, nx=50, nt=20, na=50, delta=0.5,
                                    omega=(0.3, 0.7), omega_core=(0.44, 0.64),
                                    omega_inner=(0.44, 0.56))
        fam = dp.WeightFamily(bench_coeffs, bad_grid, dp.WeightConfig())
        w_bad = dp.Field(w.values, "trajectory", bad_grid)
        h_bad = dp.Field(h.values, "trajectory", bad_grid)
        with pytest.raises(ValueError, match="degeneracy"):
            caccioppoli_trial(w_bad, h_bad, 5.0, fam)

    def test_observability_ratio_positive_and_moderate(self, bench_coeffs,
                                                       coarse_grid):
        rng = dp.make_rng(13)
        wT = dp.age_gene_draw(rng, coarse_grid)
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, coarse_grid, wT))
        trial = observability_trial(w, wT, coarse_grid)
        assert not trial.excluded
        assert 0.0 < trial.ratio < 10.0

    def test_hardy_trial_needs_vanishing_endpoints(self, bench_coeffs, coarse_grid):
        nu = np.ones(coarse_grid.nx + 1)
        with pytest.raises(ValueError, match="vanish"):
            hardy_trial(nu, bench_coeffs, coarse_grid)

    def test_hardy_ratio_bounded_for_smooth_rows(self, bench_coeffs, coarse_grid):
        nu = dp.gene_draw(dp.make_rng(17), coarse_grid)
        trial = hardy_trial(nu, bench_coeffs, coarse_grid)
        assert 0.0 < trial.ratio < 10.0


class TestWeightSupProbe:
    def test_peak_location_and_power_ordering(self, coarse_family, coarse_grid):
        g = coarse_grid
        reports = [dp.weight_sup_check(coarse_family, d) for d in (1, 2, 3)]
        for rep in reports:
            assert np.isfinite(rep.log_value)
            t_idx, a_idx, x_idx = rep.argmax
            assert t_idx == g.nt // 2  # pole factor is smallest mid-horizon
            assert a_idx == g.na  # and at the maximal age
            assert np.isclose(g.x_nodes[x_idx], 0.54)  # bump peak
        assert reports[0].log_value < reports[1].log_value < reports[2].log_value

    def test_stronger_weight_pushes_the_sup_down(self, coarse_family):
        weak = dp.weight_sup_check(coarse_family, 1, s=5.0)
        strong = dp.weight_sup_check(coarse_family, 1, s=10.0)
        assert strong.log_value < weak.log_value

    def test_peak_on_a_face_level_raises(self, coarse_family):
        # a tiny strength barely damps the pole, so the peak runs to a face level
        with pytest.raises(RuntimeError, match="first or last interior time level"):
            dp.weight_sup_check(coarse_family, 1, s=1e-20)

    def test_power_validation(self, coarse_family):
        with pytest.raises(ValueError, match="power"):
            dp.weight_sup_check(coarse_family, 4)


class TestEnsembleRunners:
    def test_lab_produces_five_well_formed_reports(self, bench_coeffs, coarse_grid,
                                                   coarse_family):
        reports = dp.run_inequality_lab(bench_coeffs, coarse_grid, coarse_family,
                                        s_values=(5.0, 50.0), trials=2, seed=4127)
        expected = {"carleman_main", "carleman_intermediate", "caccioppoli",
                    "observability", "hardy_poincare"}
        assert set(reports) == expected
        for name, rep in reports.items():
            assert rep.all_ratios_defined(), name
            assert rep.excluded_count == 0, name
            assert np.isfinite(rep.fitted_constant), name
        assert reports["observability"].ensemble_size == 50

    def test_runners_are_deterministic(self, bench_coeffs, coarse_grid,
                                       coarse_family):
        a = dp.run_caccioppoli(bench_coeffs, coarse_grid, coarse_family, (5.0,),
                               trials=2, seed=99)
        b = dp.run_caccioppoli(bench_coeffs, coarse_grid, coarse_family, (5.0,),
                               trials=2, seed=99)
        assert [r["log_ratio"] for r in a.rows()] == [r["log_ratio"] for r in b.rows()]

    def test_renewal_free_strips_only_the_fertility(self, bench_coeffs):
        stripped = _renewal_free(bench_coeffs)
        assert stripped.beta.is_zero
        assert stripped.dispersion is bench_coeffs.dispersion
        assert stripped.mu is bench_coeffs.mu


# ---------------------------------------------------------------------------
# bit-level oracle: the trial functions and ensemble loops as they were when
# every trial rebuilt the pole tables and each ensemble ran its own draw loop
# ---------------------------------------------------------------------------


def _ref_pole_table(family):
    """Theta on all (t, a) node pairs; +inf on the faces t in {0,T}, a=0."""
    grid = family.grid
    t = grid.t_levels[:, None]
    a = grid.a_levels[None, :]
    with np.errstate(divide="ignore"):
        table = 1.0 / ((t * (grid.T - t)) ** 4 * a**4)
    return table


def _ref_interior_ta_mask(family):
    """1.0 where the pole factor is finite (t and a interior), else 0.0."""
    grid = family.grid
    mask = np.ones((grid.nt + 1, grid.na + 1))
    mask[0, :] = 0.0
    mask[-1, :] = 0.0
    mask[:, 0] = 0.0
    return mask


def _ref_face_weights(family: WeightFamily) -> np.ndarray:
    """(nt+1, na+1) trapezoid weights, zeroed where the pole factor blows up."""
    grid = family.grid
    return grid.wt[:, None] * grid.wa[None, :] * _ref_interior_ta_mask(family)


def _ref_masked_pole(family: WeightFamily) -> np.ndarray:
    """Pole factor with the blow-up faces replaced by zero for safe algebra."""
    mask = _ref_interior_ta_mask(family) > 0
    return np.where(mask, _ref_pole_table(family), 0.0)


def _ref_distance_ratio(coeffs: CoefficientSet, grid: SpaceTimeGrid) -> np.ndarray:
    """(x - x0)^2 / k on the nodes, with a degenerate node set to zero."""
    x = grid.x_nodes
    k = coeffs.dispersion.value(x)
    dist_sq = (x - coeffs.x0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dist_sq / k
    ratio[k == 0.0] = 0.0
    return ratio


def _ref_log_weighted_volume(
    log_poly: np.ndarray,
    exponent: np.ndarray,
    family: WeightFamily,
    x_weights: np.ndarray,
) -> float:
    weights = _ref_face_weights(family)[:, :, None] * x_weights[None, None, :]
    return log_weighted_sum(log_poly + exponent, weights)


def _ref_carleman_main_trial(
    w: Field, wT: Field, s: float, family: WeightFamily
) -> InequalityTrial:
    """Weighted energy of a backward solution vs window observation.

    lhs: integral over the full cylinder of
         (s * pole * k * w_x^2 + s^3 * pole^3 * (x-x0)^2/k * w^2) * exp(2 s phi)
    rhs: integral over the window cylinder of s^3 * pole^3 * w^2 * exp(2 s Phi)
         plus the unweighted terminal mass at ages below the threshold.
    """
    grid = family.grid
    th = _ref_masked_pole(family)[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    k = family.coeffs.dispersion.value(grid.x_nodes)[None, None, :]
    r2 = _ref_distance_ratio(family.coeffs, grid)[None, None, :]

    lhs_poly = s * th * k * wx_sq + s**3 * th**3 * r2 * vals**2
    with np.errstate(divide="ignore"):
        log_lhs_poly = np.log(lhs_poly)
    exp_phi = 2.0 * s * th * family.psi_nodes[None, None, :]
    log_lhs = _ref_log_weighted_volume(log_lhs_poly, exp_phi, family, grid.wx)

    rhs_poly = s**3 * th**3 * vals**2
    with np.errstate(divide="ignore"):
        log_rhs_poly = np.log(rhs_poly)
    exp_reg = 2.0 * s * th * family.Psi_nodes[None, None, :]
    window_wx = grid.wx * grid.omega_mask
    log_obs = _ref_log_weighted_volume(log_rhs_poly, exp_reg, family, window_wx)

    low_age = inner_product(wT, wT, grid, kind="age_gene", a_mask=_lower_age_mask(grid))
    log_rhs = log_add(log_obs, _safe_log(low_age))
    return _trial_from_logs(log_lhs, log_rhs)


def _ref_carleman_intermediate_trial(
    w: Field, h: Field, s: float, family: WeightFamily
) -> InequalityTrial:
    """Same weighted energy, bounded by the source and boundary flux terms.

    Applies to the renewal-free backward problem (zero fertility).  The rhs
    combines the weighted source mass with the one-sided gradient fluxes at
    both gene endpoints; with the profile's sign both fluxes are positive.
    """
    grid = family.grid
    th = _ref_masked_pole(family)[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    k = family.coeffs.dispersion.value(grid.x_nodes)
    r2 = _ref_distance_ratio(family.coeffs, grid)[None, None, :]
    psi = family.psi_nodes

    lhs_poly = s * th * k[None, None, :] * wx_sq + s**3 * th**3 * r2 * vals**2
    with np.errstate(divide="ignore"):
        log_lhs_poly = np.log(lhs_poly)
    exp_phi = 2.0 * s * th * psi[None, None, :]
    log_lhs = _ref_log_weighted_volume(log_lhs_poly, exp_phi, family, grid.wx)

    with np.errstate(divide="ignore"):
        log_source = np.log(h.values**2)
    log_src = _ref_log_weighted_volume(log_source, exp_phi, family, grid.wx)

    # boundary fluxes: s * k * pole * |x - x0| * w_x^2 * exp(2 s pole * psi)
    th2 = _ref_masked_pole(family)
    face_w = _ref_face_weights(family)
    x0 = family.coeffs.x0
    log_flux = []
    for idx, lever in ((grid.nx, 1.0 - x0), (0, x0)):
        poly = s * k[idx] * lever * th2 * wx_sq[:, :, idx]
        with np.errstate(divide="ignore"):
            log_poly = np.log(poly)
        log_flux.append(
            log_weighted_sum(log_poly + 2.0 * s * th2 * psi[idx], face_w)
        )
    log_rhs = log_add(log_src, *log_flux)
    return _trial_from_logs(log_lhs, log_rhs)


def _ref_caccioppoli_trial(
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
    th = _ref_masked_pole(family)[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    exp_phi = 2.0 * s * th * family.psi_nodes[None, None, :]

    inner_wx = grid.wx * grid.x_window_mask((lo, hi))
    with np.errstate(divide="ignore"):
        log_lhs_poly = np.log(wx_sq)
    log_lhs = _ref_log_weighted_volume(log_lhs_poly, exp_phi, family, inner_wx)

    rhs_poly = s**2 * th**2 * vals**2 + (0.0 if h is None else h.values**2)
    with np.errstate(divide="ignore"):
        log_rhs_poly = np.log(rhs_poly)
    window_wx = grid.wx * grid.omega_mask
    log_rhs = _ref_log_weighted_volume(log_rhs_poly, exp_phi, family, window_wx)
    return _trial_from_logs(log_lhs, log_rhs)


def _ref_observability_trial(w: Field, wT: Field, grid: SpaceTimeGrid) -> InequalityTrial:
    """Initial mass vs window observation plus low-age terminal mass.

    All three integrals are unweighted, so this check runs in plain floats:
    lhs = ||w(0)||^2 over ages and genes; rhs = ||w||^2 over the window
    cylinder + ||wT||^2 over ages up to the threshold.
    """
    lhs = inner_product(w.values[0], w.values[0], grid, kind="age_gene")
    window = inner_product(
        w, w, grid, kind="trajectory", x_mask=grid.omega_mask.astype(float)
    )
    low_age = inner_product(wT, wT, grid, kind="age_gene", a_mask=_lower_age_mask(grid))
    rhs = window + low_age
    return _trial_from_logs(_safe_log(lhs), _safe_log(rhs))


def _ref_hardy_trial(nu: np.ndarray, coeffs: CoefficientSet, grid: SpaceTimeGrid) -> InequalityTrial:
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


def _ref_run_carleman_main(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble of backward solutions from random terminal data."""
    rng = make_rng(seed)
    s_values = _as_tuple(s_values)
    entries = []
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        w = solve_adjoint(AdjointProblem(coeffs, grid, wT))
        for s in s_values:
            entries.append((idx, s, _ref_carleman_main_trial(w, wT, s, family)))
    return InequalityReport(
        "carleman_main", s_values, trials, grid_signature(grid), entries
    )


def _ref_run_carleman_intermediate(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the renewal-free bound with random sources."""
    rng = make_rng(seed)
    s_values = _as_tuple(s_values)
    free = _renewal_free(coeffs)
    entries = []
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        h = trajectory_draw(rng, grid)
        w = solve_adjoint(AdjointProblem(free, grid, wT, source_h=h))
        for s in s_values:
            entries.append((idx, s, _ref_carleman_intermediate_trial(w, h, s, family)))
    return InequalityReport(
        "carleman_intermediate", s_values, trials, grid_signature(grid), entries
    )


def _ref_run_caccioppoli(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    family: WeightFamily,
    s_values,
    trials: int = 20,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble for the window gradient bound (renewal-free sources)."""
    rng = make_rng(seed)
    s_values = _as_tuple(s_values)
    free = _renewal_free(coeffs)
    entries = []
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        h = trajectory_draw(rng, grid)
        w = solve_adjoint(AdjointProblem(free, grid, wT, source_h=h))
        for s in s_values:
            entries.append((idx, s, _ref_caccioppoli_trial(w, h, s, family)))
    return InequalityReport(
        "caccioppoli", s_values, trials, grid_signature(grid), entries
    )


def _ref_run_observability(
    coeffs: CoefficientSet,
    grid: SpaceTimeGrid,
    trials: int = 50,
    seed: int | None = None,
) -> InequalityReport:
    """Ensemble estimate of the observability constant."""
    rng = make_rng(seed)
    entries = []
    for idx in range(trials):
        wT = age_gene_draw(rng, grid)
        w = solve_adjoint(AdjointProblem(coeffs, grid, wT))
        entries.append((idx, None, _ref_observability_trial(w, wT, grid)))
    return InequalityReport(
        "observability", (), trials, grid_signature(grid), entries
    )


def _ref_run_hardy(
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
        entries.append((idx, None, _ref_hardy_trial(nu, coeffs, grid)))
    return InequalityReport("hardy_poincare", (), trials, grid_signature(grid), entries)


def _ref_run_inequality_lab(
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
        "carleman_main": _ref_run_carleman_main(coeffs, grid, family, s_values, trials, seed),
        "carleman_intermediate": _ref_run_carleman_intermediate(
            coeffs, grid, family, s_values, trials, seed
        ),
        "caccioppoli": _ref_run_caccioppoli(coeffs, grid, family, s_values, trials, seed),
        "observability": _ref_run_observability(
            coeffs, grid, trials=observability_trials, seed=seed
        ),
        "hardy_poincare": _ref_run_hardy(coeffs, grid, trials=trials, seed=seed),
    }


class TestBitLevelOracle:
    def test_lab_rows_match_the_oracle_by_repr(self, bench_coeffs, coarse_grid,
                                               coarse_family):
        args = (bench_coeffs, coarse_grid, coarse_family)
        kwargs = dict(s_values=(5.0, 50.0), trials=2, seed=4127)
        new = dp.run_inequality_lab(*args, **kwargs)
        ref = _ref_run_inequality_lab(*args, **kwargs)
        assert list(new) == list(ref)
        for name in ref:
            assert new[name].ensemble_size == ref[name].ensemble_size, name
            new_rows, ref_rows = list(new[name].rows()), list(ref[name].rows())
            assert len(new_rows) == len(ref_rows) > 0, name
            for got, want in zip(new_rows, ref_rows):
                assert {k: repr(v) for k, v in got.items()} == \
                    {k: repr(v) for k, v in want.items()}, name

    def test_family_tables_match_the_oracle_bit_for_bit(self, coarse_family):
        assert np.array_equal(coarse_family.masked_pole, _ref_masked_pole(coarse_family))
        assert np.array_equal(coarse_family.face_weights,
                              _ref_face_weights(coarse_family))

    def test_parsed_config_family_is_built_once_and_reused(self, tmp_path,
                                                           monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini").read_text()
        for key, value in (("gene_cells", 50), ("age_cells", 50), ("time_cells", 20),
                           ("trials", 2), ("observability_trials", 3),
                           ("penalties", "1e-2"), ("strengths", "5,50")):
            text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            assert count == 1, key
        path = tmp_path / "coarse.ini"
        path.write_text(text)

        builds = []
        build = dp.WeightFamily.__init__

        def counting_build(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(dp.WeightFamily, "__init__", counting_build)
        cfg = dp.parse_config(path)
        assert builds == [cfg.family]
        assert cfg.family.grid is cfg.grid
        for command in ("validate", "inequalities", "sweep"):
            dp.run_experiment(cfg, command, out_dir=tmp_path / command)
        assert builds == [cfg.family]
