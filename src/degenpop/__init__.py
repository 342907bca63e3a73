"""degenpop: degenerate-diffusion population models with age structure.

A numpy library for simulating a population density structured by age and a
gene-expression variable, where the gene dispersion coefficient degenerates
at an interior point; for steering the mature population toward zero with a
control supported in a gene window (penalized dual method); and for
measuring the weighted energy inequalities that explain why such steering
works (Carleman-type, observability, Caccioppoli, Hardy-Poincare), with
pole-type weights evaluated safely in the log domain.

``import degenpop`` loads no layer.  A public name imports the layer that
defines it on first use (PEP 562 ``__getattr__``), so ``parse_config``
loads ``config``, ``model`` and ``weights`` and nothing else.  A name is read
from its layer on every access, never copied here, so a later rebinding of
the layer's attribute (a monkeypatch, a tracing wrapper and its removal) is
what ``degenpop.<name>`` returns.  ``degenpop.runner`` imports every layer
when it is loaded: running a command needs them all, and a tracer that wraps
the layer functions finds each of them in ``sys.modules``.
"""

import importlib

#: The public names of each layer (the layer's own name is public too).
_LAYERS = {
    "adjoint": ("AdjointProblem", "duality_residual", "duhamel_first_case",
                "solve_adjoint", "trace_age_zero"),
    "config": ("ConfigError", "ExperimentConfig", "initial_datum_values", "parse_config"),
    "control": ("ControlProblem", "ControlSolution", "NullReachReport", "box_inner",
                "gram_apply", "solve_control", "steer", "verify_null_reach"),
    "ensembles": ("DEFAULT_SEED", "age_gene_draw", "gene_draw", "make_rng",
                  "trajectory_draw"),
    "fieldio": ("read_field_csv", "write_field_csv"),
    "forward": ("EnergyReport", "ForwardProblem", "control_norm_sq", "energy_report",
                "renewal_integral", "solve_forward"),
    "inequalities": ("Draw", "InequalityReport", "InequalityTrial", "WeightSupReport",
                     "caccioppoli_trial", "carleman_intermediate_trial",
                     "carleman_main_trial", "hardy_trial", "log_add", "log_weighted_sum",
                     "observability_trial", "run_caccioppoli", "run_carleman_intermediate",
                     "run_carleman_main", "run_hardy", "run_inequality_lab",
                     "run_observability", "weight_sup_check"),
    "model": ("CoefficientSet", "ConstantDispersion", "ConstantRate", "Field",
              "PowerLawDispersion", "SeparableRate", "SpaceTimeGrid", "TabulatedDispersion",
              "TabulatedRate", "ValidationReport", "fit_hp_theta", "hk_seminorm",
              "inner_product", "l2_norm", "l2_norm_sq", "validate_degeneracy", "validate_hp",
              "validate_rates"),
    "runner": ("COMMANDS", "RunArtifact", "run_experiment"),
    "stepping": (),
    "weights": ("BumpProfile", "WeightConfig", "WeightFamily", "build_bump", "bump_weight",
                "hardy_weight", "min_negativity_offset", "min_profile_scale", "pole_weight"),
}

#: Public name -> the layer that defines it.
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_LAYERS, *_HOME])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
