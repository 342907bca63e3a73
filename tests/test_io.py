"""Field CSV round-trips and experiment-config parsing."""

import re
import tracemalloc

import numpy as np
import pytest

import degenpop as dp
from degenpop.config import ConfigError
from tests.conftest import make_benchmark_grid


# ---------------------------------------------------------------------------
# field CSV
# ---------------------------------------------------------------------------

# Reference oracle: the per-kind field writer as it stood before the writer
# was driven by model.FIELD_AXES, kept verbatim (less the label override, which
# is gone) so the bytes can be compared.

_REF_HEADER = "t,a,x,value"


def _ref_axis_labels(values: np.ndarray) -> list:
    return [repr(float(v)) for v in values]


def _ref_write_field_csv(field, path) -> None:
    grid = field.grid
    t_strs = _ref_axis_labels(grid.t_levels)
    a_strs = _ref_axis_labels(grid.a_levels)
    x_strs = _ref_axis_labels(grid.x_nodes)
    lines = [_REF_HEADER]
    if field.kind == "trajectory":
        for it, t_s in enumerate(t_strs):
            level = field.values[it]
            for ia, a_s in enumerate(a_strs):
                prefix = t_s + "," + a_s + ","
                row = level[ia]
                lines.extend(
                    prefix + x_s + "," + repr(float(v))
                    for x_s, v in zip(x_strs, row)
                )
    elif field.kind == "age_gene":
        t_s = repr(float(grid.T))
        for ia, a_s in enumerate(a_strs):
            prefix = t_s + "," + a_s + ","
            row = field.values[ia]
            lines.extend(
                prefix + x_s + "," + repr(float(v)) for x_s, v in zip(x_strs, row)
            )
    elif field.kind == "time_gene":
        a_s = repr(float(0.0))
        for it, t_s in enumerate(t_strs):
            prefix = t_s + "," + a_s + ","
            row = field.values[it]
            lines.extend(
                prefix + x_s + "," + repr(float(v)) for x_s, v in zip(x_strs, row)
            )
    else:  # pragma: no cover - Field constructor forbids other kinds
        raise ValueError(f"unsupported field kind {field.kind!r}")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


_SPECIAL_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
                   0.1, 1.0 / 3.0]

class TestFieldCsv:
    @pytest.mark.parametrize("kind", ["trajectory", "age_gene", "time_gene"])
    def test_random_field_round_trips_exactly(self, kind, coarse_grid, tmp_path):
        g = coarse_grid
        shapes = {"trajectory": (g.nt + 1, g.na + 1, g.nx + 1),
                  "age_gene": (g.na + 1, g.nx + 1),
                  "time_gene": (g.nt + 1, g.nx + 1)}
        rng = np.random.default_rng(42)
        field = dp.Field(rng.standard_normal(shapes[kind]), kind, g)
        path = tmp_path / f"{kind}.csv"
        dp.write_field_csv(field, path)
        back = dp.read_field_csv(path, g)
        assert back.kind == kind
        assert np.array_equal(back.values, field.values)

    def test_zero_field_round_trips_exactly(self, coarse_grid, tmp_path):
        field = dp.Field.zeros("age_gene", coarse_grid)
        path = tmp_path / "zero.csv"
        dp.write_field_csv(field, path)
        assert np.array_equal(dp.read_field_csv(path, coarse_grid).values,
                              field.values)

    def test_header_is_stable(self, coarse_grid, tmp_path):
        path = tmp_path / "f.csv"
        dp.write_field_csv(dp.Field.zeros("time_gene", coarse_grid), path)
        assert path.read_text().splitlines()[0] == "t,a,x,value"

    def test_missing_row_is_reported_with_coordinates(self, coarse_grid, tmp_path):
        # data line 11 holds gene node 10 (x = 0.2) of the first (t, a) row
        for kind, where in (("age_gene", "a=0.0, x=0.2"),
                            ("time_gene", "t=0.0, x=0.2"),
                            ("trajectory", "t=0.0, a=0.0, x=0.2")):
            path = tmp_path / f"gap_{kind}.csv"
            dp.write_field_csv(dp.Field.zeros(kind, coarse_grid), path)
            lines = path.read_text().splitlines()
            del lines[11]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as err:
                dp.read_field_csv(path, coarse_grid)
            assert str(err.value) == f"{path}: missing row for {where}"

    def test_duplicate_row_is_reported(self, coarse_grid, tmp_path):
        path = tmp_path / "dup.csv"
        dp.write_field_csv(dp.Field.zeros("age_gene", coarse_grid), path)
        lines = path.read_text().splitlines()
        lines.append(lines[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate") as err:
            dp.read_field_csv(path, coarse_grid)
        assert str(err.value) == f"{path}: duplicate row for a=0.0, x=0.04"

    def test_non_numeric_entry_names_the_line(self, coarse_grid, tmp_path):
        path = tmp_path / "bad.csv"
        dp.write_field_csv(dp.Field.zeros("age_gene", coarse_grid), path)
        lines = path.read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + ",not-a-number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-numeric") as err:
            dp.read_field_csv(path, coarse_grid)
        assert ":8:" in str(err.value)

    def test_wrong_header_rejected(self, coarse_grid, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x,y,z,w\n")
        with pytest.raises(ValueError, match="header"):
            dp.read_field_csv(path, coarse_grid)

    def test_off_grid_coordinate_rejected(self, coarse_grid, tmp_path):
        path = tmp_path / "off.csv"
        dp.write_field_csv(dp.Field.zeros("time_gene", coarse_grid), path)
        other = dp.SpaceTimeGrid(T=0.4, A=1.0, nx=40, nt=20, na=50, delta=0.5)
        # x = 0.02 is the second gene node of the file and lies off the nx=40 grid
        message = f"{path}: coordinate x=0.02 does not match any grid node"
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            dp.read_field_csv(path, other)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["trajectory", "age_gene", "time_gene"])
    def test_bytes_match_reference_writer(self, kind, coarse_grid, tmp_path):
        # nx != na != nt on the second grid, so an a/x swap or a slip at a
        # level boundary changes the bytes
        for g in (coarse_grid, make_benchmark_grid(50, 20, 8)):
            rng = np.random.default_rng(7)
            values = rng.standard_normal(g.shape(kind))
            flat = values.reshape(-1)
            flat[: len(_SPECIAL_VALUES)] = _SPECIAL_VALUES
            flat[-len(_SPECIAL_VALUES):] = _SPECIAL_VALUES[::-1]
            fields = [dp.Field(values, kind, g)]
            if kind == "trajectory":
                # shaped like control.csv: -0.0 off the window columns and
                # below delta, where most of its values are -0.0
                box = rng.standard_normal(g.shape(kind))
                box[:, : g.delta_index] = 0.0
                fields.append(dp.Field(-(box * g.omega_mask), kind, g))
            else:
                # a strided view, as a slice of a trajectory would be
                wide = np.zeros(values.shape[:1] + (2,) + values.shape[1:])
                wide[:, 1] = values
                fields.append(dp.Field(wide[:, 1], kind, g))
            for field in fields:
                new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
                dp.write_field_csv(field, new)
                _ref_write_field_csv(field, ref)
                assert new.read_bytes() == ref.read_bytes()

    def test_writer_holds_one_level_not_the_whole_file(self, coarse_grid, tmp_path):
        rng = np.random.default_rng(11)
        field = dp.Field(rng.standard_normal(coarse_grid.shape("trajectory")),
                         "trajectory", coarse_grid)
        path = tmp_path / "trajectory.csv"
        tracemalloc.start()
        try:
            dp.write_field_csv(field, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

BASE_CONFIG = """\
[model]
dispersion = power_law
degeneracy_point = 0.5
exponent = 0.5
degeneracy_bound = 0.5
mortality = constant:0.1
fertility = age_poly:0,4,-4

[geometry]
time_horizon = 0.4
max_age = 1.0
observation_min_age = 0.5
control_window = 0.3,0.7
bump_window = 0.44,0.64
gradient_window = 0.56,0.64
gene_cells = 50
age_cells = 50
time_cells = 20

[weights]

[control]
penalty = 1e-4
penalties = 1e-3,1e-4

[lab]
trials = 2
observability_trials = 5

[output]
directory = runs/test
"""


def write_config(tmp_path, text=BASE_CONFIG, **edits):
    """Write BASE_CONFIG with `key = value` lines replaced or appended."""
    lines = text.splitlines()
    for key, value in edits.items():
        key = key.replace("__", " ")
        replaced = False
        for i, line in enumerate(lines):
            if line.startswith(key + " ="):
                lines[i] = f"{key} = {value}"
                replaced = True
        assert replaced, key
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_benchmark_config_parses_to_expected_model(self):
        cfg = dp.parse_config("configs/benchmark.ini")
        assert (cfg.grid.nx, cfg.grid.na, cfg.grid.nt) == (100, 100, 40)
        assert cfg.grid.delta == 0.5 and cfg.grid.omega == (0.3, 0.7)
        assert isinstance(cfg.coeffs.dispersion, dp.PowerLawDispersion)
        assert cfg.coeffs.dispersion.alpha == 0.5 and cfg.coeffs.x0 == 0.5
        assert cfg.coeffs.gamma == 0.5 and cfg.coeffs.theta == 0.5
        assert cfg.penalty == 1e-4
        assert cfg.penalties == (1e-2, 1e-3, 1e-4, 1e-5)
        assert cfg.strengths == (5.0, 12.5, 20.0, 35.0, 50.0)
        assert cfg.seed == 4127
        # auto-resolved weights hit the documented headroom over the thresholds
        assert np.isclose(cfg.family.config.profile_scale, 71.81958392406233, rtol=1e-12)
        assert np.isclose(cfg.family.config.negativity_offset, 0.24748737341529162,
                          rtol=1e-12)

    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = dp.parse_config(write_config(tmp_path))
        assert cfg.cg_tol == 1e-6 and cfg.cg_maxit == 500
        assert cfg.trials == 2 and cfg.observability_trials == 5
        # optional envelope exponent defaults to min(exponent, bound)
        assert cfg.coeffs.theta == 0.5

    def test_snapshot_reparses_to_the_same_experiment(self, tmp_path):
        cfg = dp.parse_config(write_config(tmp_path))
        snap = tmp_path / "snap.ini"
        snap.write_text(cfg.snapshot_text())
        again = dp.parse_config(snap)
        assert again.raw == cfg.raw
        assert again.penalties == cfg.penalties
        assert again.family.config == cfg.family.config

    def test_unknown_key_and_section_are_errors(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            dp.parse_config(path)
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("penalty = 1e-4",
                                                 "penalty = 1e-4\npenality = 2"))
        with pytest.raises(ConfigError, match="unknown key control.penality"):
            dp.parse_config(path)
        for section, key in (("weights", "strength_range"), ("output", "formats"),
                             ("model", "initial_age"), ("model", "initial_gene")):
            path = write_config(tmp_path)
            path.write_text(path.read_text().replace(f"[{section}]\n",
                                                     f"[{section}]\n{key} = 1\n"))
            with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
                dp.parse_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("lab", "trials", "0", "must be at least 1"),
        ("lab", "observability_trials", "-3", "must be at least 1"),
        ("lab", "seed", "-1", "must be at least 0"),
        ("lab", "strengths", "-5,20", "all entries must be positive"),
        ("lab", "strengths", "5,0", "all entries must be positive"),
        ("lab", "strengths", "5,,20", "expected a number"),
        ("lab", "strengths", "", "must list at least one value"),
        ("control", "tolerance", "0", "must be positive"),
        ("control", "tolerance", "-1e-6", "must be positive"),
        ("control", "max_iterations", "0", "must be at least 1"),
        ("control", "penalties", "", "must list at least one value"),
        ("control", "penalties", "1e-3,", "expected a number"),
        # a sweep fits its slope over distinct penalties, 0.001 being 1e-3
        ("control", "penalties", "1e-3,1e-2,0.001",
         "each penalty must be listed once, repeated: 0.001"),
        # every number must be finite
        ("weights", "strength", "nan", "expected a finite number, got 'nan'"),
        ("weights", "bump_gain", "inf", "expected a finite number, got 'inf'"),
        ("weights", "profile_scale", "nan", "expected a finite number, got 'nan'"),
        ("weights", "negativity_offset", "inf", "expected a finite number, got 'inf'"),
        ("control", "penalty", "inf", "expected a finite number, got 'inf'"),
        ("control", "penalty", "-inf", "expected a finite number, got '-inf'"),
        ("control", "tolerance", "inf", "expected a finite number, got 'inf'"),
        ("lab", "strengths", "5,inf", "expected a finite number, got 'inf'"),
        ("geometry", "time_horizon", "nan", "expected a finite number, got 'nan'"),
        ("geometry", "control_window", "0.3,nan", "expected a finite number, got 'nan'"),
        ("model", "mortality", "constant:nan", "expected a finite number, got 'nan'"),
        # a rate takes exactly its argument count
        ("model", "mortality", "zero:abc", "expected 0 comma-separated numbers, got 'abc'"),
        ("model", "mortality", "zero:5", "expected 0 comma-separated numbers, got '5'"),
        ("model", "mortality", "constant", "expected 1 comma-separated numbers, got ''"),
        ("model", "mortality", "constant:1,2", "expected 1 comma-separated numbers, got '1,2'"),
        ("model", "fertility", "age_poly:0,4", "expected 3 comma-separated numbers, got '0,4'"),
        ("model", "fertility", "mature_hump:2", "expected 2 comma-separated numbers, got '2'"),
        # a rate must be nonnegative on every grid node
        ("model", "mortality", "constant:-5", "must be nonnegative on the grid, found -5"),
        ("model", "fertility", "age_poly:0,4,-5", "must be nonnegative on the grid, found -1"),
    ])
    def test_out_of_range_values_are_errors(self, tmp_path, section, key, value,
                                            message):
        text = "\n".join(line for line in BASE_CONFIG.splitlines()
                         if not line.startswith(f"{key} ="))
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{section}.{key}: {message}") as err:
            dp.parse_config(write_config(tmp_path, text=text + "\n"))
        assert len(err.value.errors) == 1

    def test_missing_file_and_missing_key(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dp.parse_config(tmp_path / "absent.ini")
        text = BASE_CONFIG.replace("mortality = constant:0.1\n", "")
        with pytest.raises(ConfigError, match="missing key model.mortality"):
            dp.parse_config(write_config(tmp_path, text=text))

    def test_errors_are_collected_not_first_only(self, tmp_path):
        # a malformed cell count no longer hides the errors of the other sections
        path = write_config(tmp_path, age_cells="20", time_cells="forty", exponent="1.7",
                            penalty="-1", trials="0")
        with pytest.raises(ConfigError) as err:
            dp.parse_config(path)
        assert sorted(err.value.errors) == [
            "control.penalty: must be positive",
            "geometry.time_cells: expected an integer, got 'forty'",
            "lab.trials: must be at least 1",
            "model.exponent: weak degeneracy needs 0 <= alpha < 1",
        ]

    def test_degeneracy_must_sit_in_the_control_window(self, tmp_path):
        path = write_config(tmp_path, control_window="0.6,0.9",
                            bump_window="0.64,0.84", gradient_window="0.7,0.8")
        with pytest.raises(ConfigError, match="x0 in omega"):
            dp.parse_config(path)

    def test_misaligned_steps_are_a_geometry_error(self, tmp_path):
        with pytest.raises(ConfigError, match="geometry"):
            dp.parse_config(write_config(tmp_path, time_cells="21"))

    def test_inadmissible_weights_are_rejected_at_parse_time(self, tmp_path):
        text = BASE_CONFIG.replace("[weights]",
                                   "[weights]\nnegativity_offset = 0.1")
        with pytest.raises(ConfigError, match="negativity offset"):
            dp.parse_config(write_config(tmp_path, text=text))

    def test_broken_weak_degeneracy_is_named_beside_its_weights_symptom(self, tmp_path):
        # alpha = 0.7 > gamma = 0.5 breaks (x - x0) k' <= gamma k; the weight
        # family built on gamma is rejected first, for a consequence of it
        path = write_config(tmp_path, exponent="0.7", age_cells="20", time_cells="8")
        with pytest.raises(ConfigError) as err:
            dp.parse_config(path)
        assert err.value.errors == [
            "weights: degenerate profile fails to be negative on the grid",
            "model.degeneracy_bound: weak degeneracy (x - x0) k'(x) <= gamma k(x) "
            "fails: fitted exponent 0.7 > gamma=0.5",
        ]
        # weights rejected on their own keys add no degeneracy error
        text = BASE_CONFIG.replace("[weights]", "[weights]\nnegativity_offset = 0.1")
        with pytest.raises(ConfigError) as err:
            dp.parse_config(write_config(tmp_path, text=text))
        assert [e.split(":")[0] for e in err.value.errors] == ["weights"]

    def test_rate_vocabulary(self, tmp_path):
        cfg = dp.parse_config(write_config(
            tmp_path, mortality="zero", fertility="mature_hump:2.0,0.5"))
        assert cfg.coeffs.mu.is_zero
        grid = cfg.grid
        ages = cfg.coeffs.beta.level(0, grid)
        j = grid.a_index(0.76)
        expected = 2.0 * 4.0 * (0.76 - 0.5) * (1.0 - 0.76) / 0.25
        assert np.isclose(ages[j, 5], expected, rtol=1e-12)
        assert np.all(ages[: grid.a_index(0.5) + 1] == 0.0)

    def test_unknown_rate_kind_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown rate kind"):
            dp.parse_config(write_config(tmp_path, fertility="weibull:1,2"))

    def test_initial_datum_shapes(self, coarse_grid):
        vals = dp.initial_datum_values(coarse_grid)
        expected = np.outer(coarse_grid.a_levels * (1.0 - coarse_grid.a_levels),
                            np.sin(np.pi * coarse_grid.x_nodes))
        assert np.array_equal(vals, expected)
