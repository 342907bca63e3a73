"""degenpop: degenerate-diffusion population models with age structure.

A numpy library for simulating a population density structured by age and a
gene-expression variable, where the gene dispersion coefficient degenerates
at an interior point; for steering the mature population toward zero with a
control supported in a gene window (penalized dual method); and for
measuring the weighted energy inequalities that explain why such steering
works (Carleman-type, observability, Caccioppoli, Hardy-Poincare), with
pole-type weights evaluated safely in the log domain.
"""

from .adjoint import (
    AdjointProblem,
    duality_residual,
    duhamel_first_case,
    solve_adjoint,
    trace_age_zero,
)
from .config import ConfigError, ExperimentConfig, initial_datum_values, parse_config
from .control import (
    ControlProblem,
    ControlSolution,
    NullReachReport,
    box_inner,
    gram_apply,
    solve_control,
    steer,
    verify_null_reach,
)
from .ensembles import (
    DEFAULT_SEED,
    age_gene_draw,
    gene_draw,
    make_rng,
    trajectory_draw,
)
from .fieldio import read_field_csv, write_field_csv
from .forward import (
    EnergyReport,
    ForwardProblem,
    control_norm_sq,
    energy_report,
    renewal_integral,
    solve_forward,
)
from .inequalities import (
    Draw,
    InequalityReport,
    InequalityTrial,
    WeightSupReport,
    caccioppoli_trial,
    carleman_intermediate_trial,
    carleman_main_trial,
    hardy_trial,
    log_add,
    log_weighted_sum,
    observability_trial,
    run_caccioppoli,
    run_carleman_intermediate,
    run_carleman_main,
    run_hardy,
    run_inequality_lab,
    run_observability,
    weight_sup_check,
)
from .model import (
    CoefficientSet,
    ConstantDispersion,
    ConstantRate,
    Field,
    PowerLawDispersion,
    SeparableRate,
    SpaceTimeGrid,
    TabulatedDispersion,
    TabulatedRate,
    ValidationReport,
    fit_hp_theta,
    hk_seminorm,
    inner_product,
    l2_norm,
    l2_norm_sq,
    validate_degeneracy,
    validate_hp,
    validate_rates,
)
from .runner import COMMANDS, RunArtifact, run_experiment
from .weights import (
    BumpProfile,
    WeightConfig,
    WeightFamily,
    build_bump,
    bump_weight,
    hardy_weight,
    min_negativity_offset,
    min_profile_scale,
    pole_weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
