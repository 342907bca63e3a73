"""Weight functions, admissibility thresholds, and the assembled family."""

import numpy as np
import pytest

import degenpop as dp


class TestPoleWeight:
    def test_closed_form_value(self):
        # 1/((t(T-t))^4 a^4) at t=1/2, a=1 with T=A=1 is 4^4 * 1 = 256
        assert dp.pole_weight(0.5, 1.0, 1.0, 1.0) == 256.0

    def test_domain_is_open_in_time_and_positive_in_age(self):
        for t, a in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.5)):
            with pytest.raises(ValueError):
                dp.pole_weight(t, a, 1.0, 1.0)

    def test_blows_up_toward_the_faces(self):
        near = dp.pole_weight(1e-3, 1.0, 1.0, 1.0)
        mid = dp.pole_weight(0.5, 1.0, 1.0, 1.0)
        assert near > 1e6 * mid


class TestBumpProfile:
    def test_symmetric_center_has_zero_steepness(self):
        bump = dp.build_bump(0.5)
        assert abs(bump.steepness) < 1e-12
        assert np.isclose(bump.sup_norm, 0.25, rtol=1e-12)

    def test_critical_point_lands_on_requested_center(self):
        for center in (0.54, 0.3, 0.71):
            bump = dp.build_bump(center)
            assert abs(bump.derivative(center)) < 1e-10
            # closed form for the root of (1-2c) + rho c(1-c)
            rho = (2 * center - 1.0) / (center * (1.0 - center))
            assert np.isclose(bump.steepness, rho, atol=1e-12)
            assert np.isclose(bump.sup_norm, bump.value(center), rtol=1e-12)

    def test_center_must_be_interior(self):
        with pytest.raises(ValueError, match="inside"):
            dp.build_bump(1.0)

    def test_envelope_negative_and_closed_form_at_zero(self):
        bump = dp.build_bump(0.5)
        # e^{kappa sigma(0)} - e^{2 kappa sup} = 1 - e^{0.5} at kappa = 1
        assert np.isclose(dp.bump_weight(0.0, bump, 1.0), 1.0 - np.exp(0.5),
                          rtol=1e-14)
        x = np.linspace(0.0, 1.0, 401)
        assert np.all(dp.bump_weight(x, bump, 1.0) < 0.0)
        with pytest.raises(ValueError, match="kappa"):
            dp.bump_weight(0.0, bump, 0.0)


class TestAdmissibilityThresholds:
    def test_negativity_offset_closed_form(self):
        k = dp.PowerLawDispersion(0.5, 0.5)
        expected = 0.25 / (np.sqrt(0.5) * 1.5)  # both endpoints tie by symmetry
        assert np.isclose(dp.min_negativity_offset(k, 0.5), expected, rtol=1e-14)

    def test_negativity_offset_needs_positive_endpoint_dispersion(self):
        with pytest.raises(ValueError, match="endpoints"):
            dp.min_negativity_offset(dp.ConstantDispersion(0.0), 0.5)

    def test_profile_scale_closed_form_and_threshold_guard(self):
        k = dp.PowerLawDispersion(0.5, 0.5)
        bump = dp.build_bump(0.5)
        rise = np.exp(2 * 0.25) - 1.0
        den = 1.0 * np.sqrt(0.5) * 1.5 - 0.25
        expected = np.sqrt(0.5) * 1.5 * rise / den
        assert np.isclose(dp.min_profile_scale(k, 0.5, 1.0, 1.0, bump), expected,
                          rtol=1e-14)
        at_threshold = dp.min_negativity_offset(k, 0.5)
        with pytest.raises(ValueError, match="lower bound"):
            dp.min_profile_scale(k, 0.5, at_threshold, 1.0, bump)

    def test_hardy_weight_closed_form(self):
        k = dp.PowerLawDispersion(0.5, 0.5)
        # (k(1) * 0.5^4)^(1/3) = (0.5^4.5)^(1/3) = 0.5^1.5
        assert np.isclose(dp.hardy_weight(1.0, k), 0.5 ** 1.5, rtol=1e-14)
        assert dp.hardy_weight(0.5, k) == 0.0


class TestWeightConfig:
    def test_positive_gain_and_strength_required(self):
        with pytest.raises(ValueError, match="bump_gain"):
            dp.WeightConfig(profile_scale=10.0, negativity_offset=0.5, bump_gain=0.0)
        with pytest.raises(ValueError, match="strength"):
            dp.WeightConfig(profile_scale=10.0, negativity_offset=0.5, strength=-1.0)


class TestWeightFamily:
    def test_benchmark_family_is_admissible(self, coarse_family, coarse_grid):
        fam = coarse_family
        assert np.all(fam.psi_nodes < 0.0)
        assert np.all(fam.Psi_nodes < 0.0)
        assert np.all(fam.psi_nodes <= fam.Psi_nodes + 1e-15)
        # degenerate weight below the regular weight at interior nodes
        t, a = coarse_grid.T / 2, coarse_grid.A
        x = coarse_grid.x_nodes
        assert np.all(fam.degenerate_weight(t, a, x) <= fam.regular_weight(t, a, x))

    def test_auto_resolution_applies_fixed_headroom(self, bench_coeffs, coarse_grid):
        cfg = dp.WeightFamily(bench_coeffs, coarse_grid, dp.WeightConfig()).config
        k = bench_coeffs.dispersion
        min_c2 = dp.min_negativity_offset(k, bench_coeffs.gamma)
        assert np.isclose(cfg.negativity_offset, 1.05 * min_c2, rtol=1e-14)
        bump = dp.build_bump(0.54)  # midpoint of the core window (0.44, 0.64)
        min_c1 = dp.min_profile_scale(k, bench_coeffs.gamma, cfg.negativity_offset,
                                      cfg.bump_gain, bump)
        assert np.isclose(cfg.profile_scale, 1.05 * min_c1, rtol=1e-14)
        # regression guard on the resolved benchmark values
        assert np.isclose(cfg.profile_scale, 71.81958392406233, rtol=1e-12)
        assert np.isclose(cfg.negativity_offset, 0.24748737341529162, rtol=1e-12)

    def test_offset_below_threshold_rejected(self, bench_coeffs, coarse_grid):
        with pytest.raises(ValueError, match="negativity_offset"):
            dp.WeightFamily(bench_coeffs, coarse_grid,
                            dp.WeightConfig(profile_scale=100.0,
                                            negativity_offset=0.1))

    def test_scale_below_threshold_rejected(self, bench_coeffs, coarse_grid):
        with pytest.raises(ValueError, match="profile_scale"):
            dp.WeightFamily(bench_coeffs, coarse_grid,
                            dp.WeightConfig(profile_scale=1.0,
                                            negativity_offset=0.26))

    def test_pole_tables_vanish_only_on_faces(self, coarse_family, coarse_grid):
        g = coarse_grid
        pole, face_w = coarse_family.masked_pole, coarse_family.face_weights
        assert pole.shape == face_w.shape == (g.nt + 1, g.na + 1)
        for table in (pole, face_w):
            assert np.all(table[0, :] == 0.0) and np.all(table[-1, :] == 0.0)
            assert np.all(table[:, 0] == 0.0)
            assert np.all(np.isfinite(table[1:-1, 1:]) & (table[1:-1, 1:] > 0.0))
            assert np.count_nonzero(table) == (g.nt - 1) * g.na
            with pytest.raises(ValueError, match="read-only"):
                table[1, 1] = 0.0
        t, a = g.t_levels[1:-1, None], g.a_levels[None, 1:]
        assert np.allclose(pole[1:-1, 1:], dp.pole_weight(t, a, g.T, g.A), rtol=1e-14)
        assert np.array_equal(face_w[1:-1, 1:], g.wt[1:-1, None] * g.wa[None, 1:])
