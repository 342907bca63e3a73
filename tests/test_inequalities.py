"""Log-domain integration, weighted-inequality trials, and ensemble reports."""

import gc
import itertools
import re
import weakref
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import degenpop as dp
from degenpop.adjoint import AdjointProblem, solve_adjoint
from degenpop.ensembles import (
    _sine_table,
    age_gene_draw,
    gene_draw,
    make_rng,
    trajectory_draw,
)
from degenpop.inequalities import (
    Draw,
    InequalityReport,
    InequalityTrial,
    WeightSupReport,
    _gene_gradient,
    _lower_age_mask,
    _renewal_free,
    _safe_exp,
    _safe_log,
    _support,
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
from tests.conftest import make_benchmark_grid


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

    def test_nan_density_on_a_weighted_node_gives_nan(self):
        assert np.isnan(dp.log_weighted_sum(np.array([0.0, np.nan, 1.0]), np.ones(3)))
        assert np.isnan(dp.log_weighted_sum(np.full(3, np.nan), np.ones(3)))
        assert np.isnan(dp.log_weighted_sum(np.array([-np.inf, np.nan]), np.ones(2)))
        assert np.isnan(dp.log_add(0.0, np.nan)) and np.isnan(dp.log_add(np.nan, 0.0))

    def test_nan_density_on_a_zero_weight_node_is_ignored(self):
        logs = np.array([0.0, np.nan, 1.0])
        assert dp.log_weighted_sum(logs, np.array([1.0, 0.0, 1.0])) == \
            dp.log_weighted_sum(np.array([0.0, 1.0]), np.ones(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_inputs_keep_the_bits_of_the_full_exp_sum(self, seed):
        # log densities spread over thousands of units, as on the lab grids,
        # so most entries sit below the exp underflow cutoff and a few just
        # above it; with -inf densities and zero weights mixed in
        rng = np.random.default_rng(seed)
        for scale in (1.0, 300.0, 760.0, 1e4, 1e6):
            logs = -scale * rng.random(5000)
            logs[rng.random(5000) < 0.05] = -np.inf
            weights = rng.random(5000)
            weights[rng.random(5000) < 0.1] = 0.0
            got = dp.log_weighted_sum(logs, weights)
            assert got.hex() == _ref_log_weighted_sum(logs, weights).hex(), scale

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("live", [1, 2, 3, 4, 9, 200])
    def test_matches_the_gathering_log_sum_bit_for_bit(self, seed, live):
        # dead entries far below the top, -inf entries before and between the
        # live ones, zero and negative weights, as 1-D and as 3-D blocks
        rng = np.random.default_rng(seed)
        n = 3000
        for top in (0.0, -1.2e5, 3.7e3):
            logs = top - 1e3 - 1e7 * rng.random(n)
            logs[rng.random(n) < 0.05] = -np.inf
            weights = rng.random(n)
            weights[rng.random(n) < 0.1] = 0.0
            weights[rng.random(n) < 0.02] = -1.0
            # live + 1 entries in the live range, one of them without weight:
            # of like size, whose rounding depends on how they are grouped,
            # or near the underflow cutoff
            where = np.sort(rng.choice(np.arange(5, n, 2), size=live + 1, replace=False))
            spread = np.where(rng.random(live + 1) < 0.5, 2.0, 700.0)
            logs[where] = top - spread * rng.random(live + 1)
            logs[where[0]] = top
            logs[:5] = -np.inf
            logs[where[:-1] + 1] = -np.inf
            weights[where] = rng.random(live + 1) + 0.5
            weights[where[rng.integers(1, live + 1)]] = 0.0
            for shape in ((n,), (10, 15, 20)):
                got = dp.log_weighted_sum(logs.reshape(shape), weights.reshape(shape))
                want = _ref_gathering_log_weighted_sum(logs, weights)
                assert got.hex() == want.hex(), (top, shape)

    def test_three_live_terms_round_as_grouped_among_the_dead(self):
        # 1 + 2^-53 + 2^-53 is 1 or 1 + 2^-52 by grouping; np.sum over the
        # contributing entries groups by position, so every placement of the
        # three live terms among 17 contributing ones must give its bits
        tiny = 2.0**-53
        outcomes = set()
        for places in itertools.combinations(range(17), 3):
            for sizes in ((1.0, tiny, tiny), (tiny, 1.0, tiny), (tiny, tiny, 1.0)):
                logs = np.full(17, -1e4)
                weights = np.ones(17)
                logs[list(places)] = 0.0
                weights[list(places)] = sizes
                want = _ref_gathering_log_weighted_sum(logs, weights)
                assert dp.log_weighted_sum(logs, weights).hex() == want.hex(), places
                outcomes.add(want)
        assert len(outcomes) == 2

    @pytest.mark.parametrize("case", ["nan_weighted", "nan_unweighted", "inf_weighted",
                                      "inf_unweighted", "all_minus_inf", "no_weight",
                                      "empty", "one_entry", "subnormal_tail"])
    def test_matches_the_gathering_log_sum_on_special_values(self, case):
        rng = np.random.default_rng(7)
        logs = -1e6 * rng.random(500)
        logs[[40, 41, 300]] = (-2.0, -1.0, -3.0)
        logs[[10, 200]] = -np.inf
        weights = rng.random(500) + 0.1
        weights[[20, 60]] = 0.0
        if case == "nan_weighted":
            logs[100] = np.nan
        elif case == "nan_unweighted":
            logs[20] = np.nan
        elif case == "inf_weighted":
            logs[100] = np.inf
        elif case == "inf_unweighted":
            logs[60] = np.inf
        elif case == "all_minus_inf":
            logs[:] = -np.inf
        elif case == "no_weight":
            weights[:] = 0.0
        elif case == "empty":
            logs, weights = logs[:0], weights[:0]
        elif case == "one_entry":
            logs, weights = logs[40:41], weights[40:41]
        elif case == "subnormal_tail":
            logs[[50, 51]] = (-1.0 - 744.5, -1.0 - 749.9)  # exp underflows to subnormals
        got = dp.log_weighted_sum(logs, weights)
        want = _ref_gathering_log_weighted_sum(logs, weights)
        assert isinstance(got, float)
        assert got.hex() == want.hex()


class TestRowIntegral:
    """`_log_row_integral` on a synthetic block: 40 rows whose factors c_r
    are 100, 200, ..., 4000 in shuffled order, and a profile that drops by
    10 per gene, so that entries of one row lie 1000 or more apart and the
    best entries of rows r and r' lie 100 |r - r'| apart."""

    ROWS, GENES = 40, 5

    def _block(self, live_rows, seed=0):
        rng = np.random.default_rng(seed)
        rank = rng.permutation(self.ROWS)  # rank[r]: row r's place by factor
        c = (100.0 * (rank + 1))[:, None]
        psi = -(1.0 + 10.0 * np.arange(self.GENES))
        f = rng.uniform(0.5, 2.0, (self.ROWS, self.GENES))
        # rows by factor: the first `live_rows` hold the live entries, the
        # next ones up to 20 are empty, the rest are far below the top
        f[(rank >= live_rows) & (rank < 20)] = 0.0
        weights = rng.uniform(0.1, 1.0, (self.ROWS, self.GENES))
        return weights, c, psi, f

    def _run(self, weights, c, psi, f):
        from degenpop.inequalities import _log_row_integral

        requests = []

        def integrand(rows):
            requests.append(np.array(rows))
            return f[rows]

        got = _log_row_integral(weights, c, psi, integrand)
        with np.errstate(divide="ignore"):
            want = log_weighted_sum(np.log(f) + c * psi, weights)
        assert got.hex() == want.hex()
        return requests

    @pytest.mark.parametrize("live_rows", [1, 2])
    def test_one_or_two_live_entries_read_only_the_head(self, live_rows):
        requests = self._run(*self._block(live_rows))
        assert len(requests) == 1 and requests[0].size == 16

    @pytest.mark.parametrize("case", ["three", "eight", "third_far_below_the_top"])
    def test_more_live_entries_sum_over_all_rows(self, case):
        weights, c, psi, f = self._block({"three": 3, "eight": 8}.get(case, 2))
        if case == "third_far_below_the_top":
            # about 700 below the top, in the row of factor 900, whose bound
            # -900 + 710 clears the cut at the top - 751 by 661
            f[np.argsort(c[:, 0])[8], 0] = np.exp(100.0)
        requests = self._run(weights, c, psi, f)
        assert np.array_equal(requests[-1], np.arange(self.ROWS))

    def test_a_head_without_a_finite_entry_sums_over_all_rows(self):
        weights, c, psi, f = self._block(1)
        f[np.argsort(c[:, 0])[:16]] = 0.0
        requests = self._run(weights, c, psi, f)
        assert np.array_equal(requests[-1], np.arange(self.ROWS))

    @pytest.mark.parametrize("case", ["zero_factor", "negative_factor"])
    def test_unbounded_rows_are_all_read_once(self, case):
        weights, c, psi, f = self._block(1)
        if case == "zero_factor":
            c[7] = 0.0
        elif case == "negative_factor":
            c = -c
        requests = self._run(weights, c, psi, f)
        assert len(requests) == 1 and np.array_equal(requests[0], np.arange(self.ROWS))

    def test_rows_beyond_the_head_within_reach_are_read(self):
        # a lower bound far below the top bounds: the head's only nonzero
        # entry is small, and rows beyond the head come within reach
        weights, c, psi, f = self._block(20)
        f[:] = 0.0
        by_factor = np.argsort(c[:, 0])
        f[by_factor[3], 0] = 1e-300
        f[by_factor[17], 0] = 1.0
        requests = self._run(weights, c, psi, f)
        assert requests[-1].size > 16 and by_factor[17] in requests[-1]


class TestTrialBookkeeping:
    def test_degenerate_trials_are_excluded(self, coarse_grid, bench_coeffs):
        zero = dp.Field.zeros("age_gene", coarse_grid)
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, coarse_grid, zero))
        trial = observability_trial(w, zero)
        assert trial.excluded

    def test_report_fits_the_largest_ratio(self, coarse_grid):
        from degenpop.inequalities import InequalityReport, _trial_from_logs
        entries = [(0, 1.0, _trial_from_logs(np.log(2.0), 0.0)),
                   (1, 1.0, _trial_from_logs(np.log(8.0), 0.0)),
                   (2, 1.0, _trial_from_logs(-np.inf, -np.inf))]
        report = InequalityReport("demo", 3, "nx4_na4_nt4", entries)
        assert np.isclose(report.fitted_constant, 8.0, rtol=1e-14)
        assert report.excluded_count == 1
        assert report.all_ratios_defined()
        rows = list(report.rows())
        assert len(rows) == 3 and rows[0]["trial"] == 0

    @pytest.mark.parametrize("poisoned", ["w", "wT", "h"])
    def test_draw_rejects_a_non_finite_field(self, adjoint_data, coarse_family, poisoned):
        # a NaN in w once reached the weighted trials and left their ratios undefined
        fields = dict(zip(("w", "wT", "h"), adjoint_data))
        grid = coarse_family.grid
        values = fields[poisoned].values.copy()
        values[..., grid.na // 2, int(0.6 * grid.nx)] = np.nan
        fields[poisoned] = Field(values, fields[poisoned].kind, grid)
        w, data = fields["w"], fields["h" if poisoned == "h" else "wT"]
        name = "w" if poisoned == "w" else "data"
        for family in (coarse_family, None):
            with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
                Draw(w, data, family)

    def test_draw_rejects_a_field_of_another_grid(self, adjoint_data, coarse_family):
        # the same cell counts on another horizon and age range
        w, wT, h = adjoint_data
        other = replace(coarse_family.grid, T=0.8, A=2.0, delta=1.0)
        w2, wT2, h2 = (Field(f.values, f.kind, other) for f in (w, wT, h))
        message = "is a field of another grid with the same cell counts$"
        for args, name in (((w2, wT, coarse_family), "w"), ((w, wT2, coarse_family), "data"),
                           ((w, h2, coarse_family), "data"), ((w, wT2, None), "data"),
                           ((w2, wT, None), "data")):
            with pytest.raises(ValueError, match=f"^{name} {message}"):
                Draw(*args)
        with pytest.raises(ValueError, match=f"^wT {message}"):
            observability_trial(w, wT2)
        # a field of other cell counts fails the shape check first
        small = Field.zeros("trajectory", make_benchmark_grid(50, 20, 8))
        with pytest.raises(ValueError, match=r"^w must have the trajectory shape"):
            Draw(small, wT, coarse_family)

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
        trial = carleman_main_trial(Draw(w, wT, coarse_family), 5.0)
        assert not trial.excluded
        assert np.isfinite(trial.log_lhs) and np.isfinite(trial.log_rhs)
        assert trial.log_ratio < -1e5  # weighted side is astronomically smaller
        assert trial.ratio == 0.0  # underflows cleanly rather than NaN

    def test_intermediate_estimate_tracks_the_boundary_flux(self, adjoint_data,
                                                            coarse_family):
        w, _, h = adjoint_data
        # lhs and rhs peak at the same space-time cell, so the log ratio is a
        # moderate, strength-independent number (about log(dx/2) - log(1-x0))
        draw = Draw(w, h, coarse_family)
        r5 = carleman_intermediate_trial(draw, 5.0)
        r50 = carleman_intermediate_trial(draw, 50.0)
        assert -6.0 < r5.log_ratio < -2.0
        assert abs(r5.log_ratio - r50.log_ratio) < 0.01

    def test_gradient_localization_ratio_finite(self, adjoint_data, coarse_family):
        w, _, h = adjoint_data
        trial = caccioppoli_trial(Draw(w, h, coarse_family), 5.0)
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
            caccioppoli_trial(Draw(w_bad, h_bad, fam), 5.0)

    def test_observability_ratio_positive_and_moderate(self, bench_coeffs,
                                                       coarse_grid):
        rng = dp.make_rng(13)
        wT = dp.age_gene_draw(rng, coarse_grid)
        w = dp.solve_adjoint(dp.AdjointProblem(bench_coeffs, coarse_grid, wT))
        trial = observability_trial(w, wT)
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

    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 50, 20), (100, 100, 40),
                                       (50, 150, 60)])
    def test_separable_probe_matches_the_full_density_oracle(self, bench_coeffs, cells):
        fam = dp.WeightFamily(bench_coeffs, make_benchmark_grid(*cells), dp.WeightConfig())
        # 1e-20 barely damps the pole, so its peak runs to a face level and raises
        for s in (None, 1.0, 5.0, 12.5, 20.0, 35.0, 50.0, 100.0, 1e-20):
            for power in (1, 2, 3):
                try:
                    want = _ref_weight_sup_check(fam, power, s)
                except RuntimeError as exc:
                    with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                        dp.weight_sup_check(fam, power, s)
                    continue
                _assert_same_fields(dp.weight_sup_check(fam, power, s), want, (s, power))

    def test_tied_peak_row_keeps_the_first_gene_node(self):
        # Psi peaks at the last gene node, but 2 s pole Psi is far below the
        # ulp of d log(s pole), so the whole peak row rounds to one density
        # and the first node is the argmax, as over the full density
        pole = np.zeros((5, 3))
        pole[1:-1, 1:] = 2.0**40
        pole[2, 2] = 2.0**41
        fam = SimpleNamespace(grid=SimpleNamespace(nt=4), masked_pole=pole,
                              config=SimpleNamespace(strength=0.5),
                              Psi_nodes=np.array([-3e-30, -2e-30, -1e-30]))
        for power in (1, 2, 3):
            want = _ref_weight_sup_check(fam, power)
            assert want.argmax == (2, 2, 0)
            _assert_same_fields(dp.weight_sup_check(fam, power), want, power)


class TestEnsembleRunners:
    def test_lab_produces_five_well_formed_reports(self, coarse_family):
        reports = dp.run_inequality_lab(coarse_family, s_values=(5.0, 50.0), trials=2,
                                        seed=4127)
        expected = {"carleman_main", "carleman_intermediate", "caccioppoli",
                    "observability", "hardy_poincare"}
        assert set(reports) == expected
        for name, rep in reports.items():
            assert rep.all_ratios_defined(), name
            assert rep.excluded_count == 0, name
            assert np.isfinite(rep.fitted_constant), name
        assert reports["observability"].ensemble_size == 50

    def test_runners_are_deterministic(self, coarse_family):
        a = dp.run_caccioppoli(coarse_family, (5.0,), trials=2, seed=99)
        b = dp.run_caccioppoli(coarse_family, (5.0,), trials=2, seed=99)
        assert [r["log_ratio"] for r in a.rows()] == [r["log_ratio"] for r in b.rows()]

    def test_lab_solves_once_per_ensemble_trial(self, coarse_family, monkeypatch):
        import degenpop.inequalities as ineq

        draws = []

        def counting_solve(problem):
            h = problem.source_h
            draws.append((problem.wT.values.tobytes(),
                          None if h is None else h.values.tobytes()))
            return solve_adjoint(problem)

        monkeypatch.setattr(ineq, "solve_adjoint", counting_solve)
        s_values = (5.0, 50.0)
        reports = ineq.run_inequality_lab(coarse_family, s_values=s_values, trials=2,
                                          seed=4127, observability_trials=3)
        # main, intermediate and Caccioppoli solve once per trial, observability
        # once per its own trial; main and observability draw the same wT, and
        # intermediate and Caccioppoli the same (wT, h)
        assert len(draws) == 3 * 2 + 3
        assert len(set(draws)) == max(2, 3) + 2
        strengths = {"carleman_main": 2, "carleman_intermediate": 2,
                     "caccioppoli": 2, "observability": 1, "hardy_poincare": 1}
        for name, rep in reports.items():
            assert len(list(rep.rows())) == rep.ensemble_size * strengths[name], name
        assert reports["observability"].ensemble_size == 3

    @pytest.mark.parametrize("inner, message", [
        ((0.44, 0.56), "inner gradient window must exclude the degeneracy point x0=0.5"),
        (None, "grid does not define an inner gradient window"),
    ], ids=["holds_x0", "missing"])
    def test_lab_rejects_its_gradient_window_before_any_solve(self, bench_coeffs, monkeypatch,
                                                              inner, message):
        # before, both Carleman ensembles and one Caccioppoli draw were solved
        # first (41 solves at the benchmark's lab sizes)
        import degenpop.inequalities as ineq

        grid = replace(make_benchmark_grid(50, 20, 8), omega_inner=inner)
        family = dp.WeightFamily(bench_coeffs, grid, dp.WeightConfig())
        solves = []
        monkeypatch.setattr(ineq, "solve_adjoint",
                            lambda problem: solves.append(problem) or solve_adjoint(problem))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ineq.run_inequality_lab(family, s_values=(5.0,), trials=2, seed=4127,
                                    observability_trials=3)
        assert solves == []

    @pytest.mark.parametrize("inner, message", [
        ((0.44, 0.56), "inner gradient window must exclude the degeneracy point x0=0.5"),
        (None, "grid does not define an inner gradient window"),
    ], ids=["holds_x0", "missing"])
    def test_caccioppoli_rejects_its_gradient_window_before_any_solve(
            self, bench_coeffs, monkeypatch, inner, message):
        # before, run_caccioppoli on its own solved its first draw first
        import degenpop.inequalities as ineq

        grid = replace(make_benchmark_grid(50, 20, 8), omega_inner=inner)
        family = dp.WeightFamily(bench_coeffs, grid, dp.WeightConfig())
        solves = []
        monkeypatch.setattr(ineq, "solve_adjoint",
                            lambda problem: solves.append(problem) or solve_adjoint(problem))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ineq.run_caccioppoli(family, (5.0,), trials=2, seed=4127)
        assert solves == []

    def test_renewal_free_strips_only_the_fertility(self, bench_coeffs):
        stripped = _renewal_free(bench_coeffs)
        assert stripped.beta.is_zero
        assert stripped.dispersion is bench_coeffs.dispersion
        assert stripped.mu is bench_coeffs.mu


class TestWeightOnlyPredictions:
    """A stricter check next to acceptance criterion 10, on its setup.

    Every weighted integral of the lab equals its top node to double
    precision, so the lab's numbers follow from the weight alone: with
    Theta the pole at (T/2, A - da), the main log-ratio grows with s at the
    rate 2 Theta max psi, the Caccioppoli one at 2 Theta (max psi on the
    inner window - max psi on omega), and the intermediate ratio is
    dx/(2 x0) at every s.  Criterion 10 passes through its `<= 1e-300`
    branch and compares dx at two grids; this holds the numbers themselves.
    """

    S_VALUES = (5.0, 12.5, 20.0, 35.0, 50.0)

    @staticmethod
    def _worst_slope_error(report, predicted):
        log_ratios = {}
        for trial, s, t in report.entries:
            log_ratios.setdefault(trial, []).append((s, t.log_ratio))
        assert len(log_ratios) == 5
        return max(abs((l1 - l0) / (s1 - s0) / predicted - 1.0)
                   for points in log_ratios.values()
                   for (s0, l0), (s1, l1) in zip(points, points[1:]))

    @pytest.mark.parametrize("cells", [(100, 100, 40), (150, 150, 60)])
    def test_lab_numbers_follow_the_weight_alone(self, bench_coeffs, cells):
        grid = make_benchmark_grid(*cells)
        family = WeightFamily(bench_coeffs, grid, dp.WeightConfig())
        theta = family.masked_pole[grid.nt // 2, grid.na - 1]
        psi = family.psi_nodes

        def top(window):
            return psi[grid.x_window_mask(window) > 0.0].max()

        args = (family, self.S_VALUES)
        main = dp.run_carleman_main(*args, trials=5, seed=4127)
        assert self._worst_slope_error(main, 2.0 * theta * psi.max()) <= 1e-6
        caccioppoli = dp.run_caccioppoli(*args, trials=5, seed=4127)
        predicted = 2.0 * theta * (top(grid.omega_inner) - top(grid.omega))
        assert self._worst_slope_error(caccioppoli, predicted) <= 1e-6
        intermediate = dp.run_carleman_intermediate(*args, trials=5, seed=4127)
        ratio = grid.dx / (2.0 * bench_coeffs.x0)
        assert len(intermediate.entries) == 5 * len(self.S_VALUES)
        for _, _, t in intermediate.entries:
            assert abs(t.ratio / ratio - 1.0) <= 1e-6


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


def _ref_weight_sup_check(
    family: WeightFamily, power: int, s: float | None = None
) -> WeightSupReport:
    """The peak probe as it was when it formed the whole log density."""
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
    )


def _ref_integrands(trial, w: Field, data: Field, s: float, family: WeightFamily) -> list:
    """The (poly, exponent) pairs of the oracle of `trial`, each on its
    support block, in the order the trial integrates them."""
    grid = family.grid
    th = _ref_masked_pole(family)[:, :, None]
    vals = w.values
    wx_sq = _gene_gradient(vals, grid) ** 2
    k = family.coeffs.dispersion.value(grid.x_nodes)
    r2 = _ref_distance_ratio(family.coeffs, grid)[None, None, :]
    exp_phi = 2.0 * s * th * family.psi_nodes[None, None, :]
    full, window = _support(family).index, _support(family, grid.omega).index
    if trial is caccioppoli_trial:
        inner = _support(family, grid.omega_inner).index
        rhs_poly = s**2 * th**2 * vals**2 + data.values**2
        return [(wx_sq[inner], exp_phi[inner]), (rhs_poly[window], exp_phi[window])]
    lhs_poly = s * th * k[None, None, :] * wx_sq + s**3 * th**3 * r2 * vals**2
    energy = (lhs_poly[full], exp_phi[full])
    if trial is carleman_main_trial:
        exp_reg = 2.0 * s * th * family.Psi_nodes[None, None, :]
        return [energy, ((s**3 * th**3 * vals**2)[window], exp_reg[window])]
    th2, x0, ta = th[:, :, 0], family.coeffs.x0, full[:2]
    fluxes = [((s * k[idx] * lever * th2 * wx_sq[:, :, idx])[ta],
               (2.0 * s * th2 * family.psi_nodes[idx])[ta])
              for idx, lever in ((grid.nx, 1.0 - x0), (0, x0))]
    return [energy, ((data.values**2)[full], exp_phi[full]), *fluxes]


def _as_tuple(s_values) -> tuple:
    if np.isscalar(s_values):
        return (float(s_values),)
    return tuple(float(s) for s in s_values)


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
        "carleman_main", trials, grid_signature(grid), entries
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
        "carleman_intermediate", trials, grid_signature(grid), entries
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
        "caccioppoli", trials, grid_signature(grid), entries
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
        "observability", trials, grid_signature(grid), entries
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
    return InequalityReport("hardy_poincare", trials, grid_signature(grid), entries)


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


def _ref_log_weighted_sum(log_density: np.ndarray, weights: np.ndarray) -> float:
    """The log-sum-exp as it was when every entry went through np.exp."""
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


def _ref_gathering_log_weighted_sum(log_density: np.ndarray, weights: np.ndarray) -> float:
    """The log-sum-exp as it was when it gathered the kept entries and
    summed the live ones among zeros: a verbatim copy."""
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
    live = np.flatnonzero(g >= -750.0)
    terms = np.zeros_like(g)
    terms[live] = w[live] * np.exp(g[live])
    return top + float(np.log(np.sum(terms)))


def _ref_trajectory_draw(rng, grid) -> np.ndarray:
    """Trajectory draw values as one einsum call without `optimize`."""
    modes = 4
    coeff = rng.standard_normal((modes, modes, modes))
    m2 = np.arange(1, modes + 1) ** 2
    coeff = coeff / (m2[:, None, None] + m2[None, :, None] + m2[None, None, :])
    t_tab = _sine_table(grid.t_levels, grid.T, modes)
    a_tab = _sine_table(grid.a_levels, grid.A, modes)
    x_tab = _sine_table(grid.x_nodes, 1.0, modes)
    return np.einsum("lmn,lt,ma,nx->tax", coeff, t_tab, a_tab, x_tab)


def _assert_same_rows(new: dict, ref: dict):
    assert list(new) == list(ref)
    for name in ref:
        assert new[name].ensemble_size == ref[name].ensemble_size, name
        new_rows, ref_rows = list(new[name].rows()), list(ref[name].rows())
        assert len(new_rows) == len(ref_rows) > 0, name
        for got, want in zip(new_rows, ref_rows):
            assert {k: repr(v) for k, v in got.items()} == \
                {k: repr(v) for k, v in want.items()}, name


class TestBitLevelOracle:
    def test_lab_rows_match_the_oracle_by_repr(self, bench_coeffs, coarse_grid,
                                               coarse_family):
        kwargs = dict(s_values=(5.0, 50.0), trials=2, seed=4127)
        new = dp.run_inequality_lab(coarse_family, **kwargs)
        ref = _ref_run_inequality_lab(bench_coeffs, coarse_grid, coarse_family, **kwargs)
        _assert_same_rows(new, ref)

    @pytest.mark.parametrize("seed", [4127, 1])
    def test_lab_rows_match_the_oracle_at_every_benchmark_strength(
            self, bench_coeffs, coarse_grid, coarse_family, seed):
        # the lab grid of the benchmark, (50, 50, 20), with its five strengths
        kwargs = dict(s_values=(5.0, 12.5, 20.0, 35.0, 50.0), trials=2, seed=seed)
        _assert_same_rows(dp.run_inequality_lab(coarse_family, **kwargs),
                          _ref_run_inequality_lab(bench_coeffs, coarse_grid, coarse_family,
                                                  **kwargs))

    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 50, 20), (100, 100, 40),
                                       (50, 150, 60)])
    def test_trajectory_draw_vanishes_on_faces_and_matches_the_einsum_oracle(
            self, cells):
        # the optimized contraction reorders the sums, so values, not bytes
        grid = make_benchmark_grid(*cells)
        for seed in (4127, 1, 2):
            new_rng, ref_rng = make_rng(seed), make_rng(seed)
            for _ in range(2):
                got = trajectory_draw(new_rng, grid).values
                want = _ref_trajectory_draw(ref_rng, grid)
                assert got.shape == want.shape
                for face in (got[0], got[-1], got[:, 0], got[:, -1],
                             got[:, :, 0], got[:, :, -1]):
                    assert np.all(face == 0.0), (cells, seed)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (cells, seed)

    @pytest.mark.parametrize("window", ["all", "omega", "inner"])
    def test_support_block_is_the_positive_set_of_the_weight_product(
            self, coarse_family, window):
        grid = coarse_family.grid
        window = {"all": None, "omega": grid.omega, "inner": grid.omega_inner}[window]
        x_weights = grid.wx if window is None else grid.wx * grid.x_window_mask(window)
        product = _ref_face_weights(coarse_family)[:, :, None] * x_weights[None, None, :]
        support = _support(coarse_family, window)
        covered = np.zeros(product.shape, dtype=bool)
        covered[support.index] = support.weights > 0.0
        assert np.array_equal(covered, product > 0.0)
        assert support.weights.tobytes() == \
            np.ascontiguousarray(product[support.index]).tobytes()
        assert support.row_pole.tobytes() == \
            np.ascontiguousarray(_ref_masked_pole(coarse_family)[support.ta]).tobytes()
        assert _support(coarse_family, window) is support

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


# ---------------------------------------------------------------------------
# per-draw terms: shared by the strengths of one draw, dropped with it
# ---------------------------------------------------------------------------


def _assert_rows_of_support(gradients, w, family):
    """The gene rows whose gradient was computed, as a multiset, lie within
    the support's (t, a) rows of w: no row's gradient was computed twice."""
    nx = family.grid.nx
    support = Counter(row.tobytes() for row in
                      np.ascontiguousarray(w.values[_support(family).ta]).reshape(-1, nx + 1))
    computed = Counter(row.tobytes() for values in gradients
                       for row in np.ascontiguousarray(values).reshape(-1, nx + 1))
    assert computed
    assert not computed - support


def _assert_same_fields(got, want, label):
    assert {k: repr(v) for k, v in asdict(got).items()} == \
        {k: repr(v) for k, v in asdict(want).items()}, label


class TestPerDrawTerms:
    @pytest.fixture(scope="class")
    def draws(self, bench_coeffs, coarse_grid):
        """Two draws, each as (w, wT) for the main bound and (w, h) for the
        renewal-free bounds."""
        free = _renewal_free(bench_coeffs)
        rng = make_rng(1505)
        out = []
        for _ in range(2):
            wT = age_gene_draw(rng, coarse_grid)
            h = trajectory_draw(rng, coarse_grid)
            main = solve_adjoint(AdjointProblem(bench_coeffs, coarse_grid, wT))
            sourced = solve_adjoint(AdjointProblem(free, coarse_grid, wT, source_h=h))
            out.append(((main, wT), (sourced, h)))
        return out

    def test_trials_match_the_oracles_on_draws_a_b_a(self, draws, coarse_family,
                                                      monkeypatch):
        import degenpop.inequalities as ineq

        # the oracles sum with the gathering log-sum, so neither side shares
        # the new reduction
        monkeypatch.setitem(globals(), "log_weighted_sum", _ref_gathering_log_weighted_sum)
        gradients = []

        def counting_gradient(values, grid):
            gradients.append(values)
            return _gene_gradient(values, grid)

        monkeypatch.setattr(ineq, "_gene_gradient", counting_gradient)
        fam = coarse_family
        main = ((carleman_main_trial, _ref_carleman_main_trial),)
        sourced = ((carleman_intermediate_trial, _ref_carleman_intermediate_trial),
                   (caccioppoli_trial, _ref_caccioppoli_trial))
        a, b = draws
        for label, pair, strengths in (("A", a, (50.0, 5.0, 20.0)),
                                       ("B", b, (12.5, 35.0)),
                                       ("A again", a, (5.0, 50.0, 35.0, 12.5))):
            for (w, data), pairs in zip(pair, (main, sourced)):
                del gradients[:]
                draw = Draw(w, data, fam)
                for s in strengths:
                    for trial, ref in pairs:
                        _assert_same_fields(trial(draw, s), ref(w, data, s, fam), (label, s))
                # one Draw computes no support row's gradient twice, for all its trials
                _assert_rows_of_support(gradients, w, fam)

    def test_integrands_match_the_oracle_by_bytes(self, draws, coarse_family,
                                                   monkeypatch):
        # the logs run to 1e6-1e7, whose ulp hides a last-bit change of an
        # integrand; the polynomial factors and exponents show it, on every
        # row a weighted integral evaluates
        import degenpop.inequalities as ineq

        seen = []
        row_integral = ineq._log_row_integral

        def recording_row_integral(weights, c, psi, integrand):
            evaluated = []

            def recorded(rows):
                poly = integrand(rows)
                evaluated.append((rows, poly))
                return poly

            seen.append((weights.shape, c * psi, evaluated))
            return row_integral(weights, c, psi, recorded)

        monkeypatch.setattr(ineq, "_log_row_integral", recording_row_integral)
        fam = coarse_family
        for main, sourced in draws:
            for trial, (w, data) in ((carleman_main_trial, main),
                                     (carleman_intermediate_trial, sourced),
                                     (caccioppoli_trial, sourced)):
                draw = Draw(w, data, fam)
                for s in (5.0, 12.5, 20.0, 35.0, 50.0):
                    del seen[:]
                    trial(draw, s)
                    want = _ref_integrands(trial, w, data, s, fam)
                    assert len(seen) == len(want), trial.__name__
                    for (rows_shape, exponent, evaluated), (poly, exp_ref) in zip(seen, want):
                        label = (trial.__name__, s)
                        # rows of the support, in C order
                        poly = np.ascontiguousarray(poly).reshape(rows_shape)
                        exp_ref = np.ascontiguousarray(exp_ref).reshape(rows_shape)
                        assert exponent.shape == exp_ref.shape, label
                        assert exponent.tobytes() == exp_ref.tobytes(), label
                        assert evaluated, label
                        for rows, got in evaluated:
                            want_rows = poly[rows]
                            assert got.shape == want_rows.shape, label
                            assert np.ascontiguousarray(got).tobytes() == \
                                want_rows.tobytes(), label

    def test_fast_integrals_have_the_bits_of_all_rows(self, draws, coarse_family,
                                                      monkeypatch):
        import degenpop.inequalities as ineq

        strengths = (5.0, 12.5, 20.0, 35.0, 50.0)
        cases = [(trial, w, data)
                 for main, sourced in draws
                 for trial, (w, data) in ((carleman_main_trial, main),
                                          (carleman_intermediate_trial, sourced),
                                          (caccioppoli_trial, sourced))]
        evaluated, row_integral = [], ineq._log_row_integral

        def recording_row_integral(weights, c, psi, integrand):
            def recorded(rows):
                evaluated.append(len(rows) / weights.shape[0])
                return integrand(rows)
            return row_integral(weights, c, psi, recorded)

        with monkeypatch.context() as patch:
            patch.setattr(ineq, "_log_row_integral", recording_row_integral)
            fast = [[trial(Draw(w, data, coarse_family), s) for s in strengths]
                    for trial, w, data in cases]
        # on the lab grid every weighted integral reads a few of its rows
        assert evaluated and max(evaluated) < 0.1
        # the same integrals, each summed over all of its rows

        def all_rows(weights, c, psi, integrand):
            with np.errstate(divide="ignore"):
                density = np.log(np.ascontiguousarray(integrand(np.arange(c.shape[0]))))
            density += c * psi
            return ineq.log_weighted_sum(density, weights)

        monkeypatch.setattr(ineq, "_log_row_integral", all_rows)
        full = [[trial(Draw(w, data, coarse_family), s) for s in strengths]
                for trial, w, data in cases]
        for (trial, _, _), got, want in zip(cases, fast, full):
            for s, got_s, want_s in zip(strengths, got, want):
                _assert_same_fields(got_s, want_s, (trial.__name__, s))

    def test_more_than_two_live_entries_sum_over_all_rows(self, draws, coarse_family,
                                                          monkeypatch):
        # at s = 1e-9 the exponents stay within a few units of each other
        # over the rows of the smallest pole, so far more than two entries
        # are live
        import degenpop.inequalities as ineq

        s, fam = 1e-9, coarse_family
        rows = _support(fam).cell.size
        requests, gradients = [], []
        row_integral = ineq._log_row_integral

        def recording_row_integral(weights, c, psi, integrand):
            mine = []
            requests.append(mine)

            def recorded(wanted):
                mine.append(np.array(wanted))
                return integrand(wanted)
            return row_integral(weights, c, psi, recorded)

        def counting_gradient(values, grid):
            gradients.append(values)
            return _gene_gradient(values, grid)

        monkeypatch.setattr(ineq, "_log_row_integral", recording_row_integral)
        monkeypatch.setattr(ineq, "_gene_gradient", counting_gradient)
        (main, sourced), _ = draws
        for trial, ref, (w, data) in (
                (carleman_main_trial, _ref_carleman_main_trial, main),
                (carleman_intermediate_trial, _ref_carleman_intermediate_trial, sourced),
                (caccioppoli_trial, _ref_caccioppoli_trial, sourced)):
            del requests[:], gradients[:]
            _assert_same_fields(trial(Draw(w, data, fam), s), ref(w, data, s, fam),
                                trial.__name__)
            want = _ref_integrands(trial, w, data, s, fam)
            # the intermediate bound's two flux faces are row integrals too
            assert len(requests) == len(want) == \
                (4 if trial is carleman_intermediate_trial else 2), trial.__name__
            for (poly, exponent), mine in zip(want, requests):
                with np.errstate(divide="ignore"):
                    density = (np.log(poly) + exponent).ravel()
                assert np.count_nonzero(density - density.max() >= -750.0) > 2
                assert np.array_equal(mine[-1], np.arange(rows)), trial.__name__
            _assert_rows_of_support(gradients, w, fam)

    def test_flux_faces_match_the_whole_face_sum(self, draws, coarse_family, monkeypatch):
        # each gene-endpoint flux face is one gene column of the row integral:
        # at the lab strengths it reads a few rows, and at s = 1e-9, where
        # more than two entries are live, it sums all of them
        import degenpop.inequalities as ineq

        fam, row_integral = coarse_family, ineq._log_row_integral
        rows = _support(fam).cell.size
        face_weights = _ref_face_weights(fam)[_support(fam).ta]
        faces = []

        def recording_row_integral(weights, c, psi, integrand):
            read = []

            def recorded(wanted):
                read.append(np.array(wanted))
                return integrand(wanted)

            got = row_integral(weights, c, psi, recorded)
            if weights.shape[1] == 1:
                faces.append((got, read))
            return got

        monkeypatch.setattr(ineq, "_log_row_integral", recording_row_integral)
        for _, (w, h) in draws:
            draw = Draw(w, h, fam)
            for s in (5.0, 12.5, 20.0, 35.0, 50.0, 1e-9):
                del faces[:]
                carleman_intermediate_trial(draw, s)
                want = _ref_integrands(carleman_intermediate_trial, w, h, s, fam)[2:]
                assert len(faces) == len(want) == 2, s
                for (got, read), (poly, exponent) in zip(faces, want):
                    with np.errstate(divide="ignore"):
                        oracle = log_weighted_sum(np.log(poly) + exponent, face_weights)
                    assert got.hex() == oracle.hex(), s
                    if s == 1e-9:
                        assert np.array_equal(read[-1], np.arange(rows)), s
                    else:
                        assert np.unique(np.concatenate(read)).size < 0.1 * rows, s

    def test_no_draw_outlives_its_trials(self, coarse_family, monkeypatch):
        import degenpop.inequalities as ineq

        made = []

        def recording_draw(*args):
            draw = Draw(*args)
            made.append(weakref.ref(draw))
            return draw

        def checking_solve(problem):
            # every earlier draw, and with it its terms, is gone by the next solve
            assert all(ref() is None for ref in made), len(made)
            return solve_adjoint(problem)

        monkeypatch.setattr(ineq, "Draw", recording_draw)
        monkeypatch.setattr(ineq, "solve_adjoint", checking_solve)
        ineq.run_inequality_lab(coarse_family, s_values=(5.0, 50.0), trials=2, seed=4127,
                                observability_trials=3)
        assert len(made) == 9
        assert all(ref() is None for ref in made)

    def test_no_solution_outlives_the_lab(self, coarse_family, monkeypatch):
        import degenpop.inequalities as ineq

        values = []

        def recording_solve(problem):
            w = solve_adjoint(problem)
            values.append(weakref.ref(w.values))
            return w

        monkeypatch.setattr(ineq, "solve_adjoint", recording_solve)
        reports = ineq.run_inequality_lab(coarse_family, s_values=(5.0, 50.0), trials=2,
                                          seed=4127, observability_trials=3)
        gc.collect()
        assert len(values) == 9
        assert values[-1]() is None
        assert all(ref() is None for ref in values)
        assert set(reports) == {"carleman_main", "carleman_intermediate", "caccioppoli",
                                "observability", "hardy_poincare"}

    def test_reports_time_their_solves_and_trials(self, coarse_family):
        reports = dp.run_inequality_lab(coarse_family, s_values=(5.0,), trials=2, seed=4127,
                                        observability_trials=3)
        for name, report in reports.items():
            assert report.trial_s > 0.0, name
            assert (report.adjoint_s > 0.0) == (name != "hardy_poincare"), name

    def test_wall_time_stays_out_of_repr_and_equality(self, coarse_family):
        report = dp.run_caccioppoli(coarse_family, (5.0,), trials=2, seed=99)
        again = replace(report)  # the timers are not init fields: set them after
        again.adjoint_s, again.trial_s = report.adjoint_s + 1.0, report.trial_s + 1.0
        assert again == report and repr(again) == repr(report)
        assert "adjoint_s" not in repr(report) and "trial_s" not in repr(report)
        assert again != replace(report, entries=report.entries[:-1])
