"""Experiment configuration: INI parsing, validation, resolution.

Configs are INI files with six fixed sections.  Every key is required
unless a default is listed; unknown sections or keys are errors, not
warnings, so a typo cannot silently fall back to a default.

[model]      dispersion kind and parameters, rates, initial-datum shape
[geometry]   cylinder extents, observation threshold, windows, cell counts
[weights]    profile scale c1 / negativity offset c2 ("auto" supported),
             bump gain, default strength
[control]    penalty for single runs, penalty list for sweeps, CG knobs
[lab]        ensemble sizes, seed, strength list for inequality sweeps
[output]     output directory

"auto" weight parameters resolve to weights.AUTO_HEADROOM (1.05) times the
corresponding admissibility threshold (the multiplier is fixed so resolved
runs are reproducible from the raw config).  The weight family that resolves
and checks them is built once and kept on the parsed config for the runs to
use; `family.config` holds the resolved weights.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .model import (
    CoefficientSet,
    ConstantDispersion,
    ConstantRate,
    PowerLawDispersion,
    SeparableRate,
    SpaceTimeGrid,
)
from .weights import WeightConfig, WeightFamily

_SCHEMA = {
    "model": {
        "dispersion": None,
        "degeneracy_point": None,
        "exponent": None,
        "degeneracy_bound": None,
        "envelope_exponent": "",  # optional; empty -> min(exponent, bound)
        "mortality": None,
        "fertility": None,
        "initial_age": "hump",
        "initial_gene": "sin_pi",
    },
    "geometry": {
        "time_horizon": None,
        "max_age": None,
        "observation_min_age": None,
        "control_window": None,
        "bump_window": "",
        "gradient_window": "",
        "gene_cells": None,
        "age_cells": None,
        "time_cells": None,
    },
    "weights": {
        "profile_scale": "auto",
        "negativity_offset": "auto",
        "bump_gain": "1.0",
        "strength": "20.0",
    },
    "control": {
        "penalty": None,
        "penalties": None,
        "tolerance": "1e-6",
        "max_iterations": "500",
    },
    "lab": {
        "trials": "20",
        "observability_trials": "50",
        "seed": "4127",
        "strengths": "5,12.5,20,35,50",
    },
    "output": {
        "directory": "runs/out",
    },
}


class ConfigError(ValueError):
    """Carries every problem found in a config file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    """A fully validated, resolution-complete experiment description."""

    coeffs: CoefficientSet
    grid: SpaceTimeGrid
    family: WeightFamily  # built from coeffs, grid and [weights] at parse time
    initial_age: str
    initial_gene: str
    penalty: float
    penalties: tuple
    cg_tol: float
    cg_maxit: int
    trials: int
    observability_trials: int
    seed: int
    strengths: tuple
    out_dir: str
    raw: dict  # {section: {key: original string}}

    def snapshot_text(self) -> str:
        """Canonical INI text reproducing this config exactly."""
        lines = []
        for section in _SCHEMA:
            lines.append(f"[{section}]")
            for key in _SCHEMA[section]:
                if key in self.raw.get(section, {}):
                    lines.append(f"{key} = {self.raw[section][key]}")
            lines.append("")
        return "\n".join(lines)


def _parse_float(text, where, errors):
    try:
        return float(text)
    except ValueError:
        errors.append(f"{where}: expected a number, got {text!r}")
        return None


def _parse_int(text, where, errors):
    try:
        return int(text)
    except ValueError:
        errors.append(f"{where}: expected an integer, got {text!r}")
        return None


def _parse_floats(text, where, errors, count=None):
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if count is not None and len(parts) != count:
        errors.append(f"{where}: expected {count} comma-separated numbers")
        return None
    vals = []
    for p in parts:
        v = _parse_float(p, where, errors)
        if v is None:
            return None
        vals.append(v)
    return tuple(vals)


def _parse_rate(text, where, max_age, errors):
    """Rate vocabulary: zero | constant:v | age_poly:c0,c1,c2 | mature_hump:scale,start.

    age_poly values are (c0 + c1 a + c2 a^2) for a > 0 and zero at a = 0;
    mature_hump is scale * 4 (a-start)(A-a)/(A-start)^2 for a > start, zero
    below (a fertility with a juvenile dead window).
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "zero":
        return ConstantRate(0.0)
    if kind == "constant":
        v = _parse_float(arg, where, errors)
        return None if v is None else ConstantRate(v)
    if kind == "age_poly":
        cs = _parse_floats(arg, where, errors, count=3)
        if cs is None:
            return None
        c0, c1, c2 = cs

        def age_factor(a, c0=c0, c1=c1, c2=c2):
            a = np.asarray(a, dtype=float)
            return np.where(a > 0.0, c0 + c1 * a + c2 * a * a, 0.0)

        return SeparableRate(age_factor=age_factor)
    if kind == "mature_hump":
        cs = _parse_floats(arg, where, errors, count=2)
        if cs is None:
            return None
        scale, start = cs
        if not 0.0 <= start < max_age:
            errors.append(f"{where}: hump start must lie in [0, A)")
            return None

        def age_factor(a, start=start, A=max_age):
            a = np.asarray(a, dtype=float)
            hump = 4.0 * (a - start) * (A - a) / (A - start) ** 2
            return np.where(a > start, hump, 0.0)

        return SeparableRate(age_factor=age_factor, scale=scale)
    errors.append(f"{where}: unknown rate kind {kind!r}")
    return None


AGE_SHAPES = {
    "hump": lambda a, A: a * (A - a),
    "sin": lambda a, A: np.sin(np.pi * a / A),
}
GENE_SHAPES = {
    "sin_pi": lambda x: np.sin(np.pi * x),
}


def initial_datum_values(initial_age, initial_gene, grid):
    """Separable initial datum from the named age and gene shapes."""
    age = AGE_SHAPES[initial_age](grid.a_levels, grid.A)
    gene = GENE_SHAPES[initial_gene](grid.x_nodes)
    return np.outer(age, gene)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an INI experiment config.

    Raises ConfigError carrying every problem found: unknown sections or
    keys, malformed values, and violated model invariants (each named with
    the inequality that failed).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, "r") as handle:
        parser.read_file(handle, source=str(path))

    errors: list[str] = []
    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {section}.{key}")
            else:
                raw[section][key] = value.strip()
    for section, keys in _SCHEMA.items():
        if section not in parser.sections():
            errors.append(f"missing section [{section}]")
            continue
        for key, default in keys.items():
            if key not in raw.get(section, {}):
                if default is None:
                    errors.append(f"missing key {section}.{key}")
                else:
                    raw.setdefault(section, {})[key] = default
    if errors:
        raise ConfigError(errors)

    def get(section, key):
        return raw[section][key]

    # geometry ---------------------------------------------------------
    T = _parse_float(get("geometry", "time_horizon"), "geometry.time_horizon", errors)
    A = _parse_float(get("geometry", "max_age"), "geometry.max_age", errors)
    delta = _parse_float(
        get("geometry", "observation_min_age"), "geometry.observation_min_age", errors
    )
    omega = _parse_floats(get("geometry", "control_window"), "geometry.control_window", errors, 2)
    core = get("geometry", "bump_window")
    omega_core = (
        _parse_floats(core, "geometry.bump_window", errors, 2) if core else None
    )
    inner = get("geometry", "gradient_window")
    omega_inner = (
        _parse_floats(inner, "geometry.gradient_window", errors, 2) if inner else None
    )
    nx = _parse_int(get("geometry", "gene_cells"), "geometry.gene_cells", errors)
    na = _parse_int(get("geometry", "age_cells"), "geometry.age_cells", errors)
    nt = _parse_int(get("geometry", "time_cells"), "geometry.time_cells", errors)
    if errors:
        raise ConfigError(errors)

    grid = None
    try:
        grid = SpaceTimeGrid(
            T=T, A=A, nx=nx, nt=nt, na=na, delta=delta,
            omega=omega, omega_core=omega_core, omega_inner=omega_inner,
        )
    except ValueError as exc:
        errors.append(f"geometry: {exc}")

    # model -------------------------------------------------------------
    x0 = _parse_float(get("model", "degeneracy_point"), "model.degeneracy_point", errors)
    alpha = _parse_float(get("model", "exponent"), "model.exponent", errors)
    gamma = _parse_float(get("model", "degeneracy_bound"), "model.degeneracy_bound", errors)
    theta_text = get("model", "envelope_exponent")
    kind = get("model", "dispersion")
    dispersion = None
    if None not in (x0, alpha):
        if kind == "power_law":
            if not 0.0 < x0 < 1.0:
                errors.append("model.degeneracy_point: must satisfy 0 < x0 < 1")
            elif not 0.0 <= alpha < 1.0:
                errors.append("model.exponent: weak degeneracy needs 0 <= alpha < 1")
            else:
                dispersion = PowerLawDispersion(x0, alpha)
        elif kind == "constant":
            if alpha <= 0.0:
                errors.append("model.exponent: constant dispersion level must be > 0")
            else:
                dispersion = ConstantDispersion(alpha, x0=x0)
        else:
            errors.append(f"model.dispersion: unknown kind {kind!r}")
    if gamma is not None and not 0.0 <= gamma < 1.0:
        errors.append("model.degeneracy_bound: gamma must lie in [0, 1)")
        gamma = None
    theta = None
    if theta_text:
        theta = _parse_float(theta_text, "model.envelope_exponent", errors)
    elif alpha is not None and gamma is not None:
        theta = min(alpha, gamma) if gamma > 0.0 else None
    if theta is not None and gamma is not None and not 0.0 < theta <= gamma:
        errors.append(
            f"model.envelope_exponent: theta={theta} violates 0 < theta <= gamma={gamma}"
        )

    mu = _parse_rate(get("model", "mortality"), "model.mortality", A or 1.0, errors)
    beta = _parse_rate(get("model", "fertility"), "model.fertility", A or 1.0, errors)
    initial_age = get("model", "initial_age")
    if initial_age not in AGE_SHAPES:
        errors.append(
            f"model.initial_age: unknown shape {initial_age!r} "
            f"(choices: {sorted(AGE_SHAPES)})"
        )
    initial_gene = get("model", "initial_gene")
    if initial_gene not in GENE_SHAPES:
        errors.append(
            f"model.initial_gene: unknown shape {initial_gene!r} "
            f"(choices: {sorted(GENE_SHAPES)})"
        )

    coeffs = None
    if dispersion is not None and gamma is not None and mu is not None and beta is not None:
        if omega is not None and not (omega[0] < x0 < omega[1]):
            errors.append(
                f"model.degeneracy_point: x0={x0} must lie inside the control "
                f"window ({omega[0]}, {omega[1]}) (x0 in omega)"
            )
        coeffs = CoefficientSet(
            dispersion=dispersion, mu=mu, beta=beta, gamma=gamma, theta=theta
        )
        if grid is not None:
            try:
                grid.validate_x0(x0)
            except ValueError as exc:
                errors.append(f"model.degeneracy_point: {exc}")

    # weights -------------------------------------------------------------
    bump_gain = _parse_float(get("weights", "bump_gain"), "weights.bump_gain", errors)
    strength = _parse_float(get("weights", "strength"), "weights.strength", errors)
    family = None
    if not errors and coeffs is not None and grid is not None:
        def scale_or_auto(key):
            text = get("weights", key)
            return "auto" if text == "auto" else _parse_float(text, f"weights.{key}", errors)

        c1 = scale_or_auto("profile_scale")
        c2 = scale_or_auto("negativity_offset")
        if not errors:
            try:
                weights = WeightConfig(c1, c2, bump_gain=bump_gain, strength=strength)
                family = WeightFamily(coeffs, grid, weights)  # resolves and checks
            except ValueError as exc:
                errors.append(f"weights: {exc}")

    # control / lab / output -----------------------------------------------
    penalty = _parse_float(get("control", "penalty"), "control.penalty", errors)
    penalties = _parse_floats(get("control", "penalties"), "control.penalties", errors)
    cg_tol = _parse_float(get("control", "tolerance"), "control.tolerance", errors)
    cg_maxit = _parse_int(get("control", "max_iterations"), "control.max_iterations", errors)

    trials = _parse_int(get("lab", "trials"), "lab.trials", errors)
    obs_trials = _parse_int(
        get("lab", "observability_trials"), "lab.observability_trials", errors
    )
    seed = _parse_int(get("lab", "seed"), "lab.seed", errors)
    strengths = _parse_floats(get("lab", "strengths"), "lab.strengths", errors)
    # ranges; a value that failed to parse is None and already reported
    for where, value in (("control.penalty", penalty), ("control.tolerance", cg_tol)):
        if value is not None and not value > 0.0:
            errors.append(f"{where}: must be positive")
    for where, values in (("control.penalties", penalties), ("lab.strengths", strengths)):
        if values is not None and not values:
            errors.append(f"{where}: must list at least one value")
        if values is not None and not all(v > 0.0 for v in values):
            errors.append(f"{where}: all entries must be positive")
    for where, value, least in (
        ("control.max_iterations", cg_maxit, 1), ("lab.trials", trials, 1),
        ("lab.observability_trials", obs_trials, 1), ("lab.seed", seed, 0),
    ):
        if value is not None and value < least:
            errors.append(f"{where}: must be at least {least}")

    out_dir = get("output", "directory")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        coeffs=coeffs,
        grid=grid,
        family=family,
        initial_age=initial_age,
        initial_gene=initial_gene,
        penalty=penalty,
        penalties=penalties,
        cg_tol=cg_tol,
        cg_maxit=cg_maxit,
        trials=trials,
        observability_trials=obs_trials,
        seed=seed,
        strengths=strengths,
        out_dir=out_dir,
        raw=raw,
    )
