"""Coefficients, grid, norms, and hypothesis validators."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import degenpop as dp
from degenpop.model import FIELD_AXES, checked_values
from tests.conftest import make_benchmark_grid


# Reference oracle: inner_product as it stood before it read model.FIELD_AXES,
# kept verbatim (less the time mask, which is gone) so the results can be
# compared bit for bit.

def _ref_axis_weights(kind, grid):
    if kind == "trajectory":
        return (grid.wt, grid.wa, grid.wx)
    if kind == "age_gene":
        return (grid.wa, grid.wx)
    if kind == "time_gene":
        return (grid.wt, grid.wx)
    raise ValueError(f"unknown field kind {kind!r}")


def _ref_as_values(f):
    return f.values if isinstance(f, dp.Field) else np.asarray(f, dtype=float)


def _ref_inner_product(f, g, grid, kind="age_gene", x_mask=None, a_mask=None):
    fv, gv = _ref_as_values(f), _ref_as_values(g)
    if isinstance(f, dp.Field):
        kind = f.kind
    if fv.shape != gv.shape:
        raise ValueError("inner_product requires fields of identical shape")
    weights = _ref_axis_weights(kind, grid)
    prod = fv * gv
    masks = {"trajectory": (None, a_mask, x_mask),
             "age_gene": (a_mask, x_mask),
             "time_gene": (None, x_mask)}[kind]
    for axis, (w, m) in enumerate(zip(weights, masks)):
        wm = w if m is None else w * m
        shape = [1] * prod.ndim
        shape[axis] = -1
        prod = prod * wm.reshape(shape)
    return float(np.sum(prod))


# ---------------------------------------------------------------------------
# dispersion laws
# ---------------------------------------------------------------------------

class TestPowerLawDispersion:
    def test_value_and_zero_at_degeneracy(self):
        k = dp.PowerLawDispersion(0.5, 0.5)
        assert k.value(0.5) == 0.0
        assert np.isclose(k.value(1.0), np.sqrt(0.5), rtol=1e-15)
        assert np.isclose(k.value(0.25), 0.5, rtol=1e-15)

    def test_derivative_closed_form(self):
        k = dp.PowerLawDispersion(0.5, 0.75)
        x = np.array([0.1, 0.4, 0.6, 0.9])
        d = x - 0.5
        expected = 0.75 * np.sign(d) * np.abs(d) ** (-0.25)
        assert np.allclose(k.derivative(x), expected, rtol=1e-14)
        assert k.derivative(0.5) == 0.0

    def test_ramp_integral_closed_form(self):
        k = dp.PowerLawDispersion(0.5, 0.5)
        # integral of (r-x0)/|r-x0|^alpha is |x-x0|^(2-alpha)/(2-alpha)
        assert np.isclose(k.ramp_integral(1.0), 0.5 ** 1.5 / 1.5, rtol=1e-15)
        assert np.isclose(k.ramp_integral(0.0), 0.5 ** 1.5 / 1.5, rtol=1e-15)
        assert k.ramp_integral(0.5) == 0.0

    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="strictly inside"):
            dp.PowerLawDispersion(0.0, 0.5)
        with pytest.raises(ValueError, match="alpha"):
            dp.PowerLawDispersion(0.5, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            dp.PowerLawDispersion(0.5, -0.1)


class TestConstantDispersion:
    def test_value_and_ramp(self):
        k = dp.ConstantDispersion(2.0, x0=0.5)
        assert np.all(k.value(np.linspace(0, 1, 5)) == 2.0)
        assert np.isclose(k.ramp_integral(1.0), 0.25 / 4.0, rtol=1e-15)

    def test_zero_dispersion_has_no_ramp(self):
        k = dp.ConstantDispersion(0.0)
        with pytest.raises(ValueError, match="ramp"):
            k.ramp_integral(1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dp.ConstantDispersion(-1.0)


class TestTabulatedDispersion:
    def _from_power_law(self, n=200, alpha=0.5):
        x = np.linspace(0.0, 1.0, n + 1)
        ref = dp.PowerLawDispersion(0.5, alpha)
        return dp.TabulatedDispersion(x, ref.value(x), 0.5), ref

    def test_matches_samples_at_nodes(self):
        k, ref = self._from_power_law()
        x = np.linspace(0.0, 1.0, 201)
        assert np.allclose(k.value(x), ref.value(x), rtol=1e-14)

    def test_ramp_integral_close_to_closed_form(self):
        k, ref = self._from_power_law()
        assert np.isclose(k.ramp_integral(1.0), ref.ramp_integral(1.0), rtol=1e-2)

    def test_rejects_off_node_degeneracy_and_negative_samples(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="coincide"):
            dp.TabulatedDispersion(x, np.abs(x - 0.5), 0.55)
        vals = np.abs(x - 0.5)
        vals[2] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            dp.TabulatedDispersion(x, vals, 0.5)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

class TestRates:
    def test_constant_rate(self, coarse_grid):
        g = coarse_grid
        r = dp.ConstantRate(0.3)
        block = r.level(0, g)
        assert block.shape == (g.na + 1, g.nx + 1) and block.dtype == float
        assert np.all(block == 0.3)
        assert not r.is_zero
        assert dp.ConstantRate(0.0).is_zero

    def test_separable_rate_matches_product(self, coarse_grid):
        g = coarse_grid
        r = dp.SeparableRate(
            time_factor=lambda t: 1.0 + t,
            age_factor=lambda a: a,
            gene_factor=lambda x: np.sin(np.pi * x),
            scale=2.0,
        )
        n = 3
        outer = np.outer(g.a_levels, np.sin(np.pi * g.x_nodes))
        expected = 2.0 * (1.0 + g.t_levels[n]) * outer
        assert np.allclose(r.level(n, g), expected, rtol=1e-14)

    def test_newborn_check_sees_only_the_newborn_row(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        for beta in (bench_coeffs.beta,
                     dp.SeparableRate(age_factor=lambda a: np.where(a > 0, 1.0, 0.0))):
            report = dp.validate_rates(dp.ConstantRate(0.1), beta, g)
            assert report.passed
            assert report.violations == []

    def test_newborn_check_reads_every_level(self, coarse_grid):
        g = coarse_grid
        values = np.zeros((g.nt + 1, g.na + 1, g.nx + 1))
        values[g.nt, 0, 5] = 0.3
        report = dp.validate_rates(dp.ConstantRate(0.1), dp.TabulatedRate(values), g)
        assert not report.passed
        assert report.violations == ["beta(., 0, .) must vanish; found sup 0.3"]

    def test_newborn_check_runs_past_an_earlier_violation(self, coarse_grid):
        # the sign check stops at level 0; the newborn sup must still see level nt
        g = coarse_grid
        values = np.zeros((g.nt + 1, g.na + 1, g.nx + 1))
        values[0, 3, 5] = -1.0
        values[g.nt, 0, 5] = 0.3
        report = dp.validate_rates(dp.ConstantRate(0.1), dp.TabulatedRate(values), g)
        assert not report.passed
        assert report.violations == ["beta: negative value -1 at t-level 0",
                                     "beta(., 0, .) must vanish; found sup 0.3"]

    def test_tabulated_rate_shape_check(self, coarse_grid):
        r = dp.TabulatedRate(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            r.level(0, coarse_grid)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class TestSpaceTimeGrid:
    def test_characteristic_alignment_enforced(self):
        with pytest.raises(ValueError, match="dt == da"):
            dp.SpaceTimeGrid(T=0.4, A=1.0, nx=50, nt=21, na=50, delta=0.5)

    def test_extent_ordering_enforced(self):
        with pytest.raises(ValueError, match="T < delta < A"):
            dp.SpaceTimeGrid(T=0.6, A=1.0, nx=50, nt=30, na=50, delta=0.5)

    def test_windows_must_sit_on_nodes(self):
        with pytest.raises(ValueError, match="delta"):
            dp.SpaceTimeGrid(T=0.4, A=1.0, nx=50, nt=20, na=50, delta=0.513)
        with pytest.raises(ValueError, match="omega"):
            dp.SpaceTimeGrid(T=0.4, A=1.0, nx=50, nt=20, na=50, delta=0.5,
                             omega=(0.305, 0.7))

    def test_nested_windows_must_lie_inside_control_window(self):
        with pytest.raises(ValueError, match="omega_core"):
            dp.SpaceTimeGrid(T=0.4, A=1.0, nx=50, nt=20, na=50, delta=0.5,
                             omega=(0.3, 0.7), omega_core=(0.2, 0.4))

    def test_quadrature_weights_sum_to_extents(self, coarse_grid):
        g = coarse_grid
        assert np.isclose(np.sum(g.wx), 1.0, rtol=1e-14)
        assert np.isclose(np.sum(g.wa), g.A, rtol=1e-14)
        assert np.isclose(np.sum(g.wt), g.T, rtol=1e-14)

    def test_cached_arrays_equal_fresh_ones_and_are_read_only(self):
        g = make_benchmark_grid(50, 50, 20)

        def trapz(n, h):
            w = np.full(n + 1, h)
            w[0] = w[-1] = 0.5 * h
            return w

        fresh = {
            "x_nodes": np.linspace(0.0, 1.0, g.nx + 1),
            "t_levels": np.linspace(0.0, g.T, g.nt + 1),
            "a_levels": np.linspace(0.0, g.A, g.na + 1),
            "wx": trapz(g.nx, g.dx),
            "wa": trapz(g.na, g.da),
            "wt": trapz(g.nt, g.dt),
            "omega_mask": g.x_window_mask(g.omega),
        }
        for name, expected in fresh.items():
            cached = getattr(g, name)
            assert np.array_equal(cached, expected), name
            assert getattr(g, name) is cached, name
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
        assert g.delta_index == int(np.argmin(np.abs(fresh["a_levels"] - g.delta)))
        assert g.delta_index == g.a_index(g.delta)

    def test_window_mask_includes_endpoints(self, coarse_grid):
        g = coarse_grid
        mask = g.omega_mask
        assert mask[g.x_index(0.3)] == 1.0 and mask[g.x_index(0.7)] == 1.0
        assert mask[g.x_index(0.28)] == 0.0 and mask[g.x_index(0.72)] == 0.0
        assert np.sum(mask) == g.x_index(0.7) - g.x_index(0.3) + 1

    def test_age_upper_mask_starts_at_threshold(self, coarse_grid):
        g = coarse_grid
        mask = g.age_upper_mask()
        assert mask[g.delta_index] == 1.0 and mask[g.delta_index - 1] == 0.0

    def test_degeneracy_point_must_be_a_node(self, coarse_grid):
        assert coarse_grid.validate_x0(0.5) == 25
        with pytest.raises(ValueError, match="x0"):
            coarse_grid.validate_x0(0.503)


# ---------------------------------------------------------------------------
# fields, inner products, gradient energy
# ---------------------------------------------------------------------------

class TestFieldsAndNorms:
    def test_field_shape_checks(self, coarse_grid):
        with pytest.raises(ValueError, match="kind"):
            dp.Field(np.zeros(3), "bogus", coarse_grid)
        with pytest.raises(ValueError, match="shape"):
            dp.Field(np.zeros((2, 2)), "age_gene", coarse_grid)
        f = dp.Field.zeros("trajectory", coarse_grid)
        assert f.values.shape == (21, 51, 51)

    def test_checked_values_owns_kind_shape_and_finiteness(self):
        g, other = make_benchmark_grid(50, 20, 8), make_benchmark_grid(50, 40, 16)
        values = np.arange(21.0 * 51).reshape(21, 51)
        field = dp.Field(values, "age_gene", g)
        assert checked_values("y0", field, "age_gene", g) is field.values
        assert checked_values("wT", values.tolist(), "age_gene", g).tobytes() == values.tobytes()
        with pytest.raises(ValueError, match="^y0 must be a field of kind 'age_gene', "
                                             "got 'time_gene'$"):
            checked_values("y0", dp.Field.zeros("time_gene", g), "age_gene", g)
        # a Field is valid on its own grid, but not on another one
        with pytest.raises(ValueError, match=r"^y0 must have the age-gene shape "
                                             r"\(21, 51\), got \(41, 51\)$"):
            checked_values("y0", dp.Field.zeros("age_gene", other), "age_gene", g)
        # nor on another grid with the same cell counts, T = 0.8 and A = 2; an
        # equal grid built apart is the same grid
        with pytest.raises(ValueError, match="^y0 is a field of another grid with the same "
                                             "cell counts$"):
            checked_values("y0", dp.Field.zeros("age_gene", replace(g, T=0.8, A=2.0, delta=1.0)),
                           "age_gene", g)
        assert checked_values("y0", dp.Field.zeros("age_gene", replace(g)), "age_gene", g).shape \
            == g.shape("age_gene")
        with pytest.raises(ValueError, match=r"^wT must have the age-gene shape "
                                             r"\(21, 51\), got \(51,\)$"):
            checked_values("wT", np.zeros(51), "age_gene", g)
        for bad in (np.nan, np.inf, -np.inf):
            trajectory = np.zeros(g.shape("trajectory"))
            trajectory[-1, -1, -1] = bad
            with pytest.raises(ValueError, match="^control contains non-finite values$"):
                checked_values("control", trajectory, "trajectory", g)

    def test_trapezoid_rule_exact_on_linear_functions(self, coarse_grid):
        g = coarse_grid
        f = np.outer(g.a_levels, np.ones(g.nx + 1))
        one = np.ones_like(f)
        # integral of a over (0,1)x(0,1) = 1/2, trapezoid-exact
        assert np.isclose(dp.inner_product(f, one, g, kind="age_gene"), 0.5, rtol=1e-14)

    def test_masked_integrals_partition_exactly(self, coarse_grid):
        g = coarse_grid
        rng = np.random.default_rng(0)
        f = rng.standard_normal((g.na + 1, g.nx + 1))
        mask = (g.x_nodes <= 0.5).astype(float)
        total = dp.l2_norm_sq(f, g, kind="age_gene")
        left = dp.inner_product(f, f, g, kind="age_gene", x_mask=mask)
        right = dp.inner_product(f, f, g, kind="age_gene", x_mask=1.0 - mask)
        assert np.isclose(left + right, total, rtol=1e-14)

    def test_shape_mismatch_rejected(self, coarse_grid):
        with pytest.raises(ValueError, match="identical shape"):
            dp.inner_product(np.zeros(3), np.zeros(4), coarse_grid)

    def test_fields_of_another_grid_or_kind_rejected(self, coarse_grid):
        g = coarse_grid
        # same cell counts, T = 0.8 and A = 2: integrated with g's weights,
        # ones on (0, 2) x (0, 1) gave 1.0 instead of 2.0
        other = replace(g, T=0.8, A=2.0, delta=1.0)
        ones = dp.Field(np.ones(other.shape("age_gene")), "age_gene", other)
        assert dp.l2_norm_sq(ones, other) == pytest.approx(2.0, rel=1e-14)
        for name, call in [("f", lambda: dp.inner_product(ones, ones, g)),
                           ("g", lambda: dp.inner_product(ones.values, ones, g)),
                           ("f", lambda: dp.l2_norm_sq(ones, g)),
                           ("f", lambda: dp.l2_norm(ones, g))]:
            with pytest.raises(ValueError, match=f"^{name} is a field of another grid$"):
                call()
        # an equal grid built apart is the same grid
        assert dp.l2_norm_sq(ones, replace(other)) == dp.l2_norm_sq(ones, other)
        f, trace = dp.Field.zeros("age_gene", g), dp.Field.zeros("time_gene", g)
        with pytest.raises(ValueError, match="^g must be a field of kind 'age_gene', "
                                             "got 'time_gene'$"):
            dp.inner_product(f, trace, g)
        with pytest.raises(ValueError, match="^g must be a field of kind 'time_gene', "
                                             "got 'age_gene'$"):
            dp.inner_product(f.values, f, g, kind="time_gene")

    def test_grid_shape_is_the_field_shape(self, coarse_grid):
        for kind in FIELD_AXES:
            assert coarse_grid.shape(kind) == dp.Field.zeros(kind, coarse_grid).values.shape

    @pytest.mark.parametrize("kind", ["trajectory", "age_gene", "time_gene"])
    def test_inner_product_matches_reference_bit_for_bit(self, kind, coarse_grid):
        g = coarse_grid
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.shape(kind))
        h = rng.standard_normal(g.shape(kind))
        masks = {"a": g.age_upper_mask(), "x": g.omega_mask}
        for chosen in itertools.product([False, True], repeat=2):
            kw = {f"{axis}_mask": masks[axis]
                  for axis, on in zip("ax", chosen) if on}
            expected = repr(_ref_inner_product(f, h, g, kind=kind, **kw))
            assert repr(dp.inner_product(f, h, g, kind=kind, **kw)) == expected
            assert repr(dp.inner_product(dp.Field(f, kind, g), h, g, **kw)) == expected

    def test_gradient_energy_of_sine_mode(self):
        # integral k (d/dx sin(pi x))^2 = pi^2/2 for k = 1
        k = dp.ConstantDispersion(1.0)
        values = {}
        for nx in (100, 200):
            g = make_benchmark_grid(nx, 50, 20)
            values[nx] = dp.hk_seminorm(np.sin(np.pi * g.x_nodes), k, g)
        exact = np.pi ** 2 / 2.0
        assert abs(values[200] - exact) < abs(values[100] - exact)
        assert np.isclose(values[200], exact, rtol=1e-3)

    def test_gradient_energy_of_a_time_gene_trace(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        rng = np.random.default_rng(5)
        trace = rng.standard_normal(g.shape("time_gene"))
        trace[:, 0] = trace[:, -1] = 0.0
        k = bench_coeffs.dispersion
        rows = np.array([dp.hk_seminorm(row, k, g) for row in trace])
        energy = dp.hk_seminorm(dp.Field(trace, "time_gene", g), k, g)
        assert np.isclose(energy, np.sum(g.wt * rows), rtol=1e-14, atol=0.0)

    def test_gradient_energy_requires_dirichlet_data(self, coarse_grid):
        with pytest.raises(ValueError, match="Dirichlet"):
            dp.hk_seminorm(np.ones(coarse_grid.nx + 1), dp.ConstantDispersion(1.0),
                           coarse_grid)


# ---------------------------------------------------------------------------
# hypothesis validators
# ---------------------------------------------------------------------------

class TestValidators:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_degeneracy_fit_recovers_power_law_exponent(self, alpha, coarse_grid):
        k = dp.PowerLawDispersion(0.5, alpha)
        report = dp.validate_degeneracy(k, 0.9, coarse_grid)
        assert report.passed
        assert abs(report.fitted_gamma - alpha) < 1e-10

    def test_degeneracy_violation_detected(self, coarse_grid):
        k = dp.PowerLawDispersion(0.5, 0.75)
        report = dp.validate_degeneracy(k, 0.5, coarse_grid)
        assert not report.passed and report.violations

    def test_degeneracy_gamma_range_checked(self, coarse_grid):
        with pytest.raises(ValueError, match="gamma"):
            dp.validate_degeneracy(dp.PowerLawDispersion(0.5, 0.5), 1.0, coarse_grid)

    def test_constant_dispersion_is_trivially_weakly_degenerate(self, coarse_grid):
        report = dp.validate_degeneracy(dp.ConstantDispersion(1.0), 0.0, coarse_grid)
        assert report.passed and report.fitted_gamma == 0.0

    def test_envelope_passes_at_the_exponent_and_below(self, coarse_grid):
        k = dp.PowerLawDispersion(0.5, 0.5)
        assert dp.validate_hp(k, 0.5, 0.5, coarse_grid).passed
        assert dp.validate_hp(k, 0.25, 0.5, coarse_grid).passed

    def test_envelope_fails_above_the_exponent(self, coarse_grid):
        k = dp.PowerLawDispersion(0.5, 0.25)
        report = dp.validate_hp(k, 0.5, 0.5, coarse_grid)
        assert not report.passed and report.violations

    def test_envelope_interval_empty_for_zero_gamma(self, coarse_grid):
        report = dp.validate_hp(dp.PowerLawDispersion(0.5, 0.0), 0.1, 0.0, coarse_grid)
        assert not report.passed
        assert report.violations == ["gamma=0 leaves no admissible theta in (0, gamma]"]

    def test_envelope_theta_range_checked(self, coarse_grid):
        with pytest.raises(ValueError, match="theta"):
            dp.validate_hp(dp.PowerLawDispersion(0.5, 0.5), 0.7, 0.5, coarse_grid)

    def test_fitted_envelope_exponent_is_the_power(self, coarse_grid):
        # for k = |x-x0|^0.25, the largest admissible theta in (0, 0.5] is 0.25
        k = dp.PowerLawDispersion(0.5, 0.25)
        assert dp.fit_hp_theta(k, 0.5, coarse_grid) == pytest.approx(0.25, abs=1e-12)
        assert dp.fit_hp_theta(k, 0.0, coarse_grid) is None

    def test_rate_validator_accepts_benchmark_rates(self, bench_coeffs, coarse_grid):
        report = dp.validate_rates(bench_coeffs.mu, bench_coeffs.beta, coarse_grid)
        assert report.passed
        assert report.violations == []

    def test_rate_validator_rejects_fertile_newborns(self, coarse_grid):
        report = dp.validate_rates(dp.ConstantRate(0.1), dp.ConstantRate(1.0),
                                   coarse_grid)
        assert not report.passed
        assert any("vanish" in v for v in report.violations)

    def test_rate_validator_rejects_negative_and_nonfinite(self, coarse_grid):
        g = coarse_grid
        report = dp.validate_rates(dp.ConstantRate(0.1),
                                   dp.SeparableRate(age_factor=lambda a: a - 0.5),
                                   g)
        assert not report.passed
        bad = np.zeros((g.nt + 1, g.na + 1, g.nx + 1))
        bad[1, 1, 1] = np.nan
        report = dp.validate_rates(dp.TabulatedRate(bad), dp.ConstantRate(0.0), g)
        assert not report.passed

    def test_coefficient_bundle_validates_everything(self, bench_coeffs, coarse_grid):
        reports = bench_coeffs.validate(coarse_grid)
        assert len(reports) == 3 and all(r.passed for r in reports)
        assert not bench_coeffs.diagnostic_mode

    def test_diagnostic_bundle_skips_envelope_check(self, coarse_grid):
        coeffs = dp.CoefficientSet(dispersion=dp.ConstantDispersion(1.0),
                                   mu=dp.ConstantRate(0.0),
                                   beta=dp.ConstantRate(0.0), gamma=0.0, theta=None)
        assert coeffs.diagnostic_mode
        assert len(coeffs.validate(coarse_grid)) == 2
