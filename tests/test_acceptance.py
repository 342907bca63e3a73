"""Acceptance suite: one test per shipped guarantee.

Each test computes every sub-condition first, records a single
``CRITERION nn: PASS|FAIL`` line through the ``criterion`` fixture (echoed
in the terminal summary), and only then asserts.  The benchmark problem is
k=|x-0.5|^0.5 on the cylinder T=0.4, A=1, delta=0.5, omega=(0.3,0.7) with
mortality 0.1 and fertility 4a(1-a); grids are labelled (Nx,Na) with
Nt = T*Na/A so one time step is one age step.

Run with ``python3 -m pytest tests/test_acceptance.py -v``.
"""

import time

import numpy as np
import pytest

import degenpop as dp
from tests.conftest import box_terminal_draw, make_benchmark_coeffs, make_benchmark_grid

SEED = 4127
BENCHMARK_CONFIG = "configs/benchmark.ini"


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _finish(criterion, number, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget_s
    line = (f"CRITERION {number:02d}: {_verdict(ok and in_budget)} — {detail} "
            f"({elapsed:.1f}s, budget {budget_s:.0f}s)")
    criterion(line)
    assert ok, line
    assert in_budget, line


# ---------------------------------------------------------------------------
# 1. hypothesis validators recover the power-law exponent
# ---------------------------------------------------------------------------

def test_01_validators_recover_power_law_exponent(criterion):
    t0 = time.perf_counter()
    grid = make_benchmark_grid(100, 100, 40)
    worst = 0.0
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        k = dp.PowerLawDispersion(0.5, alpha)
        deg = dp.validate_degeneracy(k, alpha, grid)
        env = dp.validate_hp(k, alpha, alpha, grid)
        worst = max(worst, abs(deg.fitted_gamma - alpha))
        ok = ok and deg.passed and env.passed and abs(deg.fitted_gamma - alpha) <= 1e-10
    _finish(criterion, 1, ok,
            f"fitted exponent exact to {worst:.1e} for alpha in "
            "{0.25, 0.5, 0.75}; envelope check passes at theta=alpha",
            t0, budget_s=1.0)


# ---------------------------------------------------------------------------
# 2. weight admissibility on the benchmark configuration
# ---------------------------------------------------------------------------

def test_02_weight_admissibility(criterion):
    t0 = time.perf_counter()
    cfg = dp.parse_config(BENCHMARK_CONFIG)
    family = dp.WeightFamily(cfg.coeffs, cfg.grid, cfg.family.config)
    psi_neg = bool(np.all(family.psi_nodes < 0.0))
    ordered = bool(np.all(family.psi_nodes[1:-1] <= family.Psi_nodes[1:-1] + 1e-15))
    sups = [dp.weight_sup_check(family, power).log_value for power in (1, 2, 3)]
    sup_finite = all(np.isfinite(v) for v in sups)
    ok = psi_neg and ordered and sup_finite
    _finish(criterion, 2, ok,
            f"degenerate profile negative at every node; profile <= envelope "
            f"at every interior node; weighted sup finite for d=1,2,3 "
            f"(logs {sups[0]:.1f}/{sups[1]:.1f}/{sups[2]:.1f})",
            t0, budget_s=1.0)


# ---------------------------------------------------------------------------
# 3. forward solver against the separable analytic solution
# ---------------------------------------------------------------------------

def _oracle_error(nx, na, nt):
    """Relative trajectory error for k=1, mu=0.1, beta=0 vs the exact
    transported-and-damped separable solution."""
    grid = make_benchmark_grid(nx, na, nt)
    coeffs = dp.CoefficientSet(dispersion=dp.ConstantDispersion(1.0),
                               mu=dp.ConstantRate(0.1),
                               beta=dp.ConstantRate(0.0), gamma=0.0)
    y0 = dp.Field(np.outer(np.sin(np.pi * grid.a_levels) ** 2,
                           np.sin(np.pi * grid.x_nodes)), "age_gene", grid)
    y = dp.solve_forward(dp.ForwardProblem(coeffs, grid, y0))
    t = grid.t_levels[:, None, None]
    a = grid.a_levels[None, :, None]
    x = grid.x_nodes[None, None, :]
    exact = np.where(a >= t,
                     np.exp(-(np.pi ** 2 + 0.1) * t)
                     * np.sin(np.pi * (a - t)) ** 2 * np.sin(np.pi * x),
                     0.0)
    diff = dp.Field(y.values - exact, "trajectory", grid)
    return (dp.l2_norm(diff, grid, kind="trajectory")
            / dp.l2_norm(exact, grid, kind="trajectory"))


def test_03_forward_solver_analytic_oracle(criterion):
    t0 = time.perf_counter()
    err_100 = _oracle_error(100, 100, 40)
    err_200 = _oracle_error(200, 200, 80)
    ratio = err_100 / err_200
    ok = err_200 <= 0.02 and ratio >= 1.7
    _finish(criterion, 3, ok,
            f"relative L2 error {err_200:.4f} <= 2% at (200,200); "
            f"coarse/fine error ratio {ratio:.2f} >= 1.7",
            t0, budget_s=30.0)


# ---------------------------------------------------------------------------
# 4. backward solver newborn row against the terminal-evolution trace formula
# ---------------------------------------------------------------------------

def _trace_mismatch(coeffs, grid, wT):
    """Relative L2 gap between the solver's age-zero row and the formula,
    plus both traces."""
    problem = dp.AdjointProblem(coeffs, grid, wT)
    state = dp.solve_adjoint(problem)
    trace = dp.trace_age_zero(problem)
    num = dp.l2_norm(dp.Field(state.values[:, 0, :] - trace.values,
                              "time_gene", grid), grid, kind="time_gene")
    den = dp.l2_norm(trace, grid, kind="time_gene")
    return num / den, state.values[:, 0, :]


def _analytic_trace_error(nx, na, nt):
    """Trace formula vs the closed-form diagnostic: k=1, mu=0, beta=0,
    wT = a(1-a) sin(pi x) gives trace = e^{-pi^2 s} s(1-s) sin(pi x) at
    backward horizon s = T - t."""
    grid = make_benchmark_grid(nx, na, nt)
    coeffs = dp.CoefficientSet(dispersion=dp.ConstantDispersion(1.0),
                               mu=dp.ConstantRate(0.0),
                               beta=dp.ConstantRate(0.0), gamma=0.0)
    h = grid.a_levels * (1.0 - grid.a_levels)
    wT = dp.Field(np.outer(h, np.sin(np.pi * grid.x_nodes)), "age_gene", grid)
    trace = dp.trace_age_zero(dp.AdjointProblem(coeffs, grid, wT))
    s = (grid.T - grid.t_levels)[:, None]
    exact = (np.exp(-np.pi ** 2 * s) * (s * (1.0 - s))
             * np.sin(np.pi * grid.x_nodes)[None, :])
    num = dp.l2_norm(dp.Field(trace.values - exact, "time_gene", grid),
                     grid, kind="time_gene")
    den = dp.l2_norm(dp.Field(exact, "time_gene", grid), grid, kind="time_gene")
    return num / den


def test_04_newborn_row_matches_trace_formula(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()

    # (a) stated bound for the benchmark fertility.  The residual gap is the
    # renewal feedback the terminal-evolution formula deliberately omits
    # (it is a formula for fertilities that vanish on ages up to T), so it
    # does not shrink with the grid; the 5% bound is about its size.
    grid = make_benchmark_grid(100, 100, 40)
    wT = dp.age_gene_draw(dp.make_rng(SEED), grid)
    bench_gap, _ = _trace_mismatch(coeffs, grid, wT)

    # (b) inside the formula's validity domain (fertility supported above
    # a = 0.45 > T) the agreement is bit for bit at every grid, and a
    # perturbation of the fertile window must not move the solver's trace
    # by a single bit
    dead_a = dp.SeparableRate(
        age_factor=lambda a: np.where(a > 0.5, 4 * (a - 0.5) * (1 - a) / 0.25, 0.0))
    dead_b = dp.SeparableRate(
        age_factor=lambda a: np.where(a > 0.45, (a - 0.45) * (1 - a), 0.0))
    exact_gaps = {}
    rows = {}
    for nx, na, nt in ((100, 100, 40), (150, 150, 60)):
        g = make_benchmark_grid(nx, na, nt)
        w_term = dp.age_gene_draw(dp.make_rng(SEED), g)
        for name, beta in (("a", dead_a), ("b", dead_b)):
            cc = dp.CoefficientSet(dispersion=coeffs.dispersion, mu=coeffs.mu,
                                   beta=beta, gamma=0.5, theta=0.5)
            gap, row = _trace_mismatch(cc, g, w_term)
            exact_gaps[nx, name] = gap
            rows[nx, name] = row
    worst_exact = max(exact_gaps.values())
    perturbation = max(
        float(np.max(np.abs(rows[nx, "a"] - rows[nx, "b"]))) for nx in (100, 150))

    # (c) the formula itself converges: error against the closed-form
    # diagnostic decreases under refinement
    diag = {nx: _analytic_trace_error(nx, nx, int(0.4 * nx)) for nx in (100, 150)}

    ok = (bench_gap <= 0.05 and worst_exact == 0.0
          and perturbation == 0.0 and diag[150] < diag[100])
    _finish(criterion, 4, ok,
            f"newborn-row gap {bench_gap:.4f} <= 5% at (100,100) for the "
            f"benchmark fertility; exact (gap {worst_exact:.1e}) on both grids "
            f"for late-age fertility; fertile-window perturbation moves the "
            f"solver trace by {perturbation:.1e}; formula-vs-closed-form "
            f"error decreasing under refinement ({diag[100]:.4f} -> "
            f"{diag[150]:.4f})",
            t0, budget_s=30.0)


# ---------------------------------------------------------------------------
# 5. forward/backward duality identity
# ---------------------------------------------------------------------------

def _duality_residuals(coeffs, nx, na, nt, draws):
    grid = make_benchmark_grid(nx, na, nt)
    rng = dp.make_rng(SEED)
    out = []
    for _ in range(draws):
        y0 = dp.age_gene_draw(rng, grid)
        control = dp.Field(
            dp.trajectory_draw(rng, grid).values * grid.omega_mask[None, None, :],
            "trajectory", grid)
        wT = dp.age_gene_draw(rng, grid)
        y = dp.solve_forward(dp.ForwardProblem(coeffs, grid, y0, control=control))
        w = dp.solve_adjoint(dp.AdjointProblem(coeffs, grid, wT))
        out.append(dp.duality_residual(y, w, control, y0, wT, grid))
    return out


def test_05_duality_identity(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    res_100 = _duality_residuals(coeffs, 100, 100, 40, draws=10)
    res_200 = _duality_residuals(coeffs, 200, 200, 80, draws=10)
    ratio = np.mean(res_100) / np.mean(res_200)
    ok = max(res_100) <= 1e-2 and ratio >= 1.7
    _finish(criterion, 5, ok,
            f"10-draw residuals <= {max(res_100):.2e} at (100,100); "
            f"mean shrinks {ratio:.2f}x >= 1.7x at (200,200)",
            t0, budget_s=120.0)


# ---------------------------------------------------------------------------
# 6. Gram operator symmetry and positivity
# ---------------------------------------------------------------------------

def test_06_gram_symmetry_and_positivity(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    grid = make_benchmark_grid(100, 100, 40)
    rng = dp.make_rng(SEED)
    worst_sym = worst_pos = 0.0
    for _ in range(5):
        p = box_terminal_draw(rng, grid).values
        q = box_terminal_draw(rng, grid).values
        gp, gq = dp.gram_apply(p, coeffs, grid), dp.gram_apply(q, coeffs, grid)
        a12, a21 = dp.box_inner(gp, q, grid), dp.box_inner(p, gq, grid)
        worst_sym = max(worst_sym, abs(a12 - a21) / max(abs(a12), abs(a21)))
        diag = dp.box_inner(gp, p, grid)
        worst_pos = max(worst_pos, max(0.0, -diag) / dp.box_inner(p, p, grid))
    ok = worst_sym <= 1e-2 and worst_pos <= 1e-2
    _finish(criterion, 6, ok,
            f"5-pair symmetry defect {worst_sym:.1e} <= 1e-2; "
            f"positivity defect {worst_pos:.1e} <= 1e-2",
            t0, budget_s=120.0)


# ---------------------------------------------------------------------------
# 7. benchmark steering to the observation box
# ---------------------------------------------------------------------------

def test_07_benchmark_null_control(criterion):
    t0 = time.perf_counter()
    cfg = dp.parse_config(BENCHMARK_CONFIG)
    y0 = dp.Field(dp.initial_datum_values(cfg.grid), "age_gene", cfg.grid)
    norm0_sq = dp.l2_norm_sq(y0, cfg.grid, kind="age_gene")

    problem = dp.ControlProblem(cfg.coeffs, cfg.grid, y0)
    solution = dp.solve_control(problem, 1e-4, tol=cfg.cg_tol, maxit=cfg.cg_maxit)
    ratio = float(np.sqrt(solution.y_final_norm_sq / norm0_sq))

    eps_grid = sorted(cfg.penalties)
    norms = []
    for eps in eps_grid:
        sol = dp.solve_control(problem, eps, tol=cfg.cg_tol, maxit=cfg.cg_maxit)
        norms.append(sol.y_final_norm_sq)
    slope = float(np.polyfit(np.log(eps_grid), np.log(norms), 1)[0])

    ok = (solution.converged and solution.cg_iterations <= 500
          and ratio <= 0.05 and 0.7 <= slope <= 1.3)
    _finish(criterion, 7, ok,
            f"terminal/initial norm ratio {ratio:.5f} <= 0.05 in "
            f"{solution.cg_iterations} CG iterations; penalty-sweep slope "
            f"{slope:.3f} in [0.7, 1.3]",
            t0, budget_s=600.0)


# ---------------------------------------------------------------------------
# 8. control cost boundedness across penalties and data draws
# ---------------------------------------------------------------------------

def test_08_control_cost_boundedness(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    grid = make_benchmark_grid(100, 100, 40)
    rng = dp.make_rng(SEED)
    eps_grid = (1e-3, 1e-4, 1e-5)
    quotients = np.empty((5, len(eps_grid)))
    for d in range(5):
        y0 = dp.age_gene_draw(rng, grid)
        norm0_sq = dp.l2_norm_sq(y0, grid, kind="age_gene")
        problem = dp.ControlProblem(coeffs, grid, y0)
        for j, eps in enumerate(eps_grid):
            sol = dp.solve_control(problem, eps)
            quotients[d, j] = sol.control_cost / norm0_sq

    finite = bool(np.all(np.isfinite(quotients)) and np.all(quotients > 0.0))
    # stability across the penalty range, for every draw
    per_draw = quotients.max(axis=1) / quotients.min(axis=1)
    # stability of the fitted cost constant (max over draws) across penalties
    constants = quotients.max(axis=0)
    constant_spread = float(constants.max() / constants.min())
    overall_spread = float(quotients.max() / quotients.min())
    ok = finite and float(per_draw.max()) <= 3.0 and constant_spread <= 3.0
    _finish(criterion, 8, ok,
            f"cost quotient stable across penalties for all 5 draws (worst "
            f"spread {per_draw.max():.2f}x <= 3x); fitted cost constant "
            f"spread {constant_spread:.2f}x <= 3x across penalties "
            f"(quotient range over all draws {overall_spread:.1f}x, "
            f"draw-to-draw variation is data-dependent by design)",
            t0, budget_s=900.0)


# ---------------------------------------------------------------------------
# 9. observability constant fitted from random ensembles
# ---------------------------------------------------------------------------

def test_09_observability_constant(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    fits = {}
    reports_ok = True
    for nx, na, nt in ((100, 100, 40), (150, 150, 60)):
        grid = make_benchmark_grid(nx, na, nt)
        report = dp.run_observability(coeffs, grid, trials=50, seed=SEED)
        fits[nx] = report.fitted_constant
        reports_ok = (reports_ok and report.all_ratios_defined()
                      and report.excluded_count == 0
                      and np.isfinite(report.fitted_constant))
    ratio = max(fits.values()) / min(fits.values())
    ok = reports_ok and ratio <= 2.0
    _finish(criterion, 9, ok,
            f"50-trial fitted constant {fits[100]:.4f} at (100,100) vs "
            f"{fits[150]:.4f} at (150,150), ratio {ratio:.3f} <= 2",
            t0, budget_s=600.0)


# ---------------------------------------------------------------------------
# 10. weighted energy inequalities: finite ratios, stable constants
# ---------------------------------------------------------------------------

def _constants_stable(f1, f2):
    """Fitted constants equal-to-double-precision-zero count as stable;
    otherwise require agreement within 2x."""
    if max(abs(f1), abs(f2)) <= 1e-300:
        return True
    if min(f1, f2) <= 0.0:
        return False
    return max(f1, f2) / min(f1, f2) <= 2.0


def test_10_weighted_inequality_ensembles(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    s_values = (5.0, 12.5, 20.0, 35.0, 50.0)
    runners = (("main", dp.run_carleman_main),
               ("intermediate", dp.run_carleman_intermediate),
               ("gradient-localization", dp.run_caccioppoli))
    fitted = {name: {} for name, _ in runners}
    all_defined = True
    for nx, na, nt in ((100, 100, 40), (150, 150, 60)):
        grid = make_benchmark_grid(nx, na, nt)
        family = dp.WeightFamily(coeffs, grid, dp.WeightConfig())
        for name, runner in runners:
            report = runner(family, s_values, trials=20, seed=SEED)
            fitted[name][nx] = report.fitted_constant
            all_defined = (all_defined and report.all_ratios_defined()
                           and report.excluded_count == 0)
    stable = {name: _constants_stable(vals[100], vals[150])
              for name, vals in fitted.items()}
    ok = all_defined and all(stable.values())
    summary = "; ".join(
        f"{name} {vals[100]:.3g}/{vals[150]:.3g}" for name, vals in fitted.items())
    _finish(criterion, 10, ok,
            f"all ratios defined (no NaN/inf) over 20 trials x 5 strengths "
            f"on both grids; fitted constants stable within 2x under "
            f"refinement ({summary})",
            t0, budget_s=900.0)


# ---------------------------------------------------------------------------
# 11. weighted gene-interval inequality with the cubic-mean profile
# ---------------------------------------------------------------------------

def test_11_hardy_profile_inequality(criterion):
    t0 = time.perf_counter()
    coeffs = make_benchmark_coeffs()
    fits = {}
    reports_ok = True
    for nx in (100, 200):
        grid = make_benchmark_grid(nx, nx, int(0.4 * nx))
        report = dp.run_hardy(coeffs, grid, trials=20, seed=SEED)
        fits[nx] = report.fitted_constant
        reports_ok = (reports_ok and report.all_ratios_defined()
                      and report.excluded_count == 0)
    rel_change = abs(fits[100] - fits[200]) / min(fits.values())
    ok = reports_ok and rel_change <= 0.10
    _finish(criterion, 11, ok,
            f"20-trial ratios all finite; fitted constant {fits[100]:.4f} -> "
            f"{fits[200]:.4f} under refinement (relative change "
            f"{rel_change:.3f} <= 0.10)",
            t0, budget_s=60.0)


# ---------------------------------------------------------------------------
# 12. determinism and on-disk round-trips
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """\
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
strengths = 5,50

[output]
directory = runs/unused
"""


def _identical_files(dir_a, dir_b, names):
    mismatched = []
    for name in names:
        if name == "timings.txt":  # wall-clock is the one allowed difference
            continue
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            mismatched.append(name)
    return mismatched


def test_12_determinism_and_round_trip(criterion, tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(DETERMINISM_CONFIG)
    config = dp.parse_config(cfg_path)

    mismatched = []
    for command in ("simulate", "inequalities"):
        art_a = dp.run_experiment(config, command, out_dir=tmp_path / f"{command}_a")
        art_b = dp.run_experiment(config, command, out_dir=tmp_path / f"{command}_b")
        assert art_a.files == art_b.files
        mismatched += _identical_files(tmp_path / f"{command}_a",
                                       tmp_path / f"{command}_b", art_a.files)

    # field CSV round-trip: read back, rewrite, compare bytes and values
    state_path = tmp_path / "simulate_a" / "state.csv"
    state = dp.read_field_csv(state_path, config.grid)
    rewritten = tmp_path / "state_rewritten.csv"
    dp.write_field_csv(state, rewritten)
    bytes_equal = rewritten.read_bytes() == state_path.read_bytes()
    second = dp.read_field_csv(rewritten, config.grid)
    values_equal = bool(np.array_equal(second.values, state.values))

    ok = not mismatched and bytes_equal and values_equal
    _finish(criterion, 12, ok,
            "repeat runs byte-identical for every artifact except timings; "
            "state CSV round-trips to identical bytes and values"
            + (f" (mismatched: {mismatched})" if mismatched else ""),
            t0, budget_s=120.0)
