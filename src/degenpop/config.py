"""Experiment configuration: one schema table, parsed and checked in one pass.

Configs are INI files with six fixed sections.  `_SCHEMA` declares every
key exactly once, as section -> key -> (default, parser):

- a default of None marks a required key; any other default is the INI text
  filled in when the key is absent (and kept in `raw`, so a snapshot
  reproduces the run);
- the parser turns the key's text into its value and carries the key's type
  and range: a finite number, an integer with a lower bound, a positive
  number, a nonempty list of positives, a pair, an optional value (empty
  means absent), "auto" or a number, a rate, or text.  It raises ValueError
  with the message the key's error reports.

Unknown sections or keys are errors, not warnings, so a typo cannot silently
fall back to a default.  `parse_config` parses every key, then builds the
grid, the coefficients and the weight family, each only from keys that
parsed, checking the model invariants on the way; every problem found is
raised together in one ConfigError.

[model]      dispersion kind and parameters, rates
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
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    CoefficientSet,
    ConstantDispersion,
    ConstantRate,
    PowerLawDispersion,
    SeparableRate,
    SpaceTimeGrid,
    TOL_ABS,
    validate_degeneracy,
)
from .weights import WeightConfig, WeightFamily


def _parse_number(text, kind=float):
    """A finite float (or, with kind=int, an integer) written as ``text``."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"expected {noun}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _integer(text, least=None):
    """An integer, at least ``least`` if given."""
    value = _parse_number(text, int)
    if least is not None and value < least:
        raise ValueError(f"must be at least {least}")
    return value


def _positive(text):
    value = _parse_number(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _numbers(text, count=None):
    """Comma-separated finite numbers, exactly ``count`` of them if given."""
    text = text.strip()
    parts = [p.strip() for p in text.split(",")] if text else []
    if count is not None and len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {text!r}")
    return tuple(_parse_number(p) for p in parts)


_pair = partial(_numbers, count=2)


def _positives(text):
    values = _numbers(text)
    if not values:
        raise ValueError("must list at least one value")
    if not all(v > 0.0 for v in values):
        raise ValueError("all entries must be positive")
    return values


def _penalties(text):
    """Positive penalties, each listed once: a sweep fits its slope over them."""
    values = _positives(text)
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError("each penalty must be listed once, repeated: "
                         + ", ".join(map(repr, repeated)))
    return values


def _optional(parse):
    """Parser of a key whose empty text means absent (None)."""
    return lambda text: parse(text) if text else None


def _auto_or_number(text):
    return "auto" if text == "auto" else _parse_number(text)


def _age_poly(c0, c1, c2, A):
    def age_factor(a):
        a = np.asarray(a, dtype=float)
        return np.where(a > 0.0, c0 + c1 * a + c2 * a * a, 0.0)

    return SeparableRate(age_factor=age_factor)


def _mature_hump(scale, start, A):
    if not 0.0 <= start < A:
        raise ValueError("hump start must lie in [0, A)")

    def age_factor(a):
        a = np.asarray(a, dtype=float)
        hump = 4.0 * (a - start) * (A - a) / (A - start) ** 2
        return np.where(a > start, hump, 0.0)

    return SeparableRate(age_factor=age_factor, scale=scale)


# rate kind -> (argument count, builder(*arguments, max age A))
_RATES = {
    "zero": (0, lambda A: ConstantRate(0.0)),
    "constant": (1, lambda v, A: ConstantRate(v)),
    "age_poly": (3, _age_poly),
    "mature_hump": (2, _mature_hump),
}


def _parse_rate(text):
    """Rate vocabulary: zero | constant:v | age_poly:c0,c1,c2 | mature_hump:scale,start.

    Returns the rate's builder, a function of the max age A.  age_poly values
    are (c0 + c1 a + c2 a^2) for a > 0 and zero at a = 0; mature_hump is
    scale * 4 (a-start)(A-a)/(A-start)^2 for a > start, zero below (a
    fertility with a juvenile dead window), and needs 0 <= start < A.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind not in _RATES:
        raise ValueError(f"unknown rate kind {kind!r}")
    count, build = _RATES[kind]
    return partial(build, *_numbers(arg, count))


_SCHEMA = {
    "model": {
        "dispersion": (None, str),
        "degeneracy_point": (None, _parse_number),
        "exponent": (None, _parse_number),
        "degeneracy_bound": (None, _parse_number),
        # empty -> min(exponent, bound)
        "envelope_exponent": ("", _optional(_parse_number)),
        "mortality": (None, _parse_rate),
        "fertility": (None, _parse_rate),
    },
    "geometry": {
        "time_horizon": (None, _parse_number),
        "max_age": (None, _parse_number),
        "observation_min_age": (None, _parse_number),
        "control_window": (None, _pair),
        "bump_window": ("", _optional(_pair)),
        "gradient_window": ("", _optional(_pair)),
        "gene_cells": (None, _integer),
        "age_cells": (None, _integer),
        "time_cells": (None, _integer),
    },
    "weights": {
        "profile_scale": ("auto", _auto_or_number),
        "negativity_offset": ("auto", _auto_or_number),
        "bump_gain": ("1.0", _parse_number),
        "strength": ("20.0", _parse_number),
    },
    "control": {
        "penalty": (None, _positive),
        "penalties": (None, _penalties),
        "tolerance": ("1e-6", _positive),
        "max_iterations": ("500", partial(_integer, least=1)),
    },
    "lab": {
        "trials": ("20", partial(_integer, least=1)),
        "observability_trials": ("50", partial(_integer, least=1)),
        "seed": ("4127", partial(_integer, least=0)),
        "strengths": ("5,12.5,20,35,50", _positives),
    },
    "output": {
        "directory": ("runs/out", str),
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

    family: WeightFamily  # built from coeffs, grid and [weights] at parse time
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

    # the coefficients and the grid are the weight family's own
    coeffs = property(lambda self: self.family.coeffs)
    grid = property(lambda self: self.family.grid)

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


def initial_datum_values(grid):
    """The fixed initial datum a (A - a) sin(pi x), on the age-gene nodes."""
    a = grid.a_levels
    return np.outer(a * (grid.A - a), np.sin(np.pi * grid.x_nodes))


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an INI experiment config.

    Raises ConfigError carrying every problem found: text that is not
    UTF-8, malformed INI syntax (with its file and line), unknown sections
    or keys, malformed values, and violated model invariants (each named
    with the inequality that failed).  A file that cannot be read raises
    OSError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, "r", encoding="utf-8") as handle:
        try:
            parser.read_file(handle, source=str(path))
        except configparser.Error as exc:
            raise ConfigError([" ".join(str(exc).split())]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path} is not UTF-8 text: {exc.reason}"]) from exc

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
        for key, (default, _) in keys.items():
            if key not in raw.get(section, {}):
                if default is None:
                    errors.append(f"missing key {section}.{key}")
                else:
                    raw.setdefault(section, {})[key] = default
    if errors:
        raise ConfigError(errors)

    # key names are unique across sections; a key that fails to parse is absent
    values: dict = {}
    for section, keys in _SCHEMA.items():
        for key, (_, parse) in keys.items():
            try:
                values[key] = parse(raw[section][key])
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")

    def clean(prefix):
        """No error found so far starts with ``prefix``."""
        return not any(error.startswith(prefix) for error in errors)

    def build(where, make, *args):
        """make(*args), or None if make or an argument is None (its key did not
        parse) or if make raises ValueError, which is recorded under ``where``."""
        if make is None or any(arg is None for arg in args):
            return None
        try:
            return make(*args)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            return None

    grid = None
    if clean("geometry."):
        grid = build("geometry", lambda: SpaceTimeGrid(
            T=values["time_horizon"], A=values["max_age"], nx=values["gene_cells"],
            nt=values["time_cells"], na=values["age_cells"],
            delta=values["observation_min_age"], omega=values["control_window"],
            omega_core=values["bump_window"], omega_inner=values["gradient_window"],
        ))

    # model: each invariant is checked once the keys it reads have parsed
    x0 = values.get("degeneracy_point")
    alpha = values.get("exponent")
    gamma = values.get("degeneracy_bound")
    dispersion = None
    if None not in (x0, alpha):
        kind = values["dispersion"]
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
    theta = values.get("envelope_exponent")
    # the default applies to an empty key, not to one that failed to parse
    if "envelope_exponent" in values and theta is None and None not in (alpha, gamma):
        theta = min(alpha, gamma) if gamma > 0.0 else None
    if theta is not None and gamma is not None and not 0.0 < theta <= gamma:
        errors.append(
            f"model.envelope_exponent: theta={theta} violates 0 < theta <= gamma={gamma}"
        )
    if dispersion is not None:
        omega = values.get("control_window")
        if omega is not None and not omega[0] < x0 < omega[1]:
            errors.append(
                f"model.degeneracy_point: x0={x0} must lie inside the control "
                f"window ({omega[0]}, {omega[1]}) (x0 in omega)"
            )
        if grid is not None:
            build("model.degeneracy_point", grid.validate_x0, x0)

    A = values.get("max_age")
    mu = build("model.mortality", values.get("mortality"), A)
    beta = build("model.fertility", values.get("fertility"), A)
    for key, rate in (("mortality", mu), ("fertility", beta)):
        # the vocabulary's rates do not vary in time: one level holds every value
        low = float(np.min(rate.level(0, grid))) if None not in (rate, grid) else 0.0
        if low < -TOL_ABS:  # the tolerance of validate_rates
            errors.append(f"model.{key}: must be nonnegative on the grid, found {low:.6g}")
    coeffs = None
    if A is not None and clean("model."):
        coeffs = CoefficientSet(dispersion=dispersion, mu=mu, beta=beta, gamma=gamma, theta=theta)

    family = None  # resolves the "auto" weights and checks admissibility
    if coeffs is not None and grid is not None and clean("weights."):
        family = build("weights", lambda: WeightFamily(coeffs, grid, WeightConfig(
            values["profile_scale"], values["negativity_offset"],
            bump_gain=values["bump_gain"], strength=values["strength"],
        )))
        if family is None:
            # a broken (x - x0) k' <= gamma k shows in the weights only as its
            # symptom: name the hypothesis too
            report = build("model.degeneracy_bound", validate_degeneracy,
                           dispersion, gamma, grid)
            if report is not None and not report.passed:
                errors.append(
                    f"model.degeneracy_bound: weak degeneracy (x - x0) k'(x) <= "
                    f"gamma k(x) fails: fitted exponent {report.fitted_gamma:.6g} "
                    f"> gamma={gamma}"
                )

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        family=family,
        penalty=values["penalty"],
        penalties=values["penalties"],
        cg_tol=values["tolerance"],
        cg_maxit=values["max_iterations"],
        trials=values["trials"],
        observability_trials=values["observability_trials"],
        seed=values["seed"],
        strengths=values["strengths"],
        out_dir=values["directory"],
        raw=raw,
    )
