"""Shared fixtures: the benchmark problem at several resolutions.

The acceptance tests record one PASS/FAIL line per criterion; a terminal
summary hook prints the collected lines after the run regardless of output
capturing.
"""

import numpy as np
import pytest

import degenpop as dp
from degenpop.ensembles import _MODES, _sine_table


def make_benchmark_grid(nx, na, nt):
    """Benchmark cylinder: T=0.4, A=1, delta=0.5, nested gene windows."""
    return dp.SpaceTimeGrid(
        T=0.4, A=1.0, nx=nx, nt=nt, na=na, delta=0.5,
        omega=(0.3, 0.7), omega_core=(0.44, 0.64), omega_inner=(0.56, 0.64),
    )


def make_even_gene_grid():
    """A grid with an even number m = 24 of interior gene nodes.

    The benchmark grids all have m odd, so only a grid like this one reaches
    the unpaired step of the kernel's twisted sweep.
    """
    return dp.SpaceTimeGrid(T=0.4, A=1.0, nx=25, na=25, nt=10, delta=0.52,
                            omega=(0.28, 0.72))


def make_benchmark_coeffs():
    """k=|x-0.5|^0.5, constant mortality 0.1, fertility 4a(1-a) (zero at a=0)."""
    beta = dp.SeparableRate(age_factor=lambda a: np.where(a > 0, 4 * a * (1 - a), 0.0))
    return dp.CoefficientSet(
        dispersion=dp.PowerLawDispersion(0.5, 0.5),
        mu=dp.ConstantRate(0.1),
        beta=beta,
        gamma=0.5,
        theta=0.5,
    )


def make_mortality_coeffs(kind, grid):
    """Benchmark coefficients, with mortality replaced for the other kinds.

    kind is "benchmark" (constant), "separable" (time- and age-dependent)
    or "tabulated" (time-, age- and gene-dependent).
    """
    bench = make_benchmark_coeffs()
    if kind == "benchmark":
        return bench
    if kind == "separable":
        mu = dp.SeparableRate(time_factor=lambda t: 1.0 + 2.0 * t,
                              age_factor=lambda a: 0.1 + a ** 2)
    else:
        t, a, x = np.meshgrid(grid.t_levels, grid.a_levels, grid.x_nodes, indexing="ij")
        mu = dp.TabulatedRate(0.1 + (1.0 + t) * a * (1.5 - a) * (1.0 + np.sin(3.0 * x)))
    return dp.CoefficientSet(dispersion=bench.dispersion, mu=mu, beta=bench.beta,
                             gamma=bench.gamma, theta=bench.theta)


def box_mask(grid):
    """(na+1, nx+1) indicator of the observation box (ages >= delta).

    The oracles mask full trajectories with it; the package itself never
    forms values outside the box.
    """
    return grid.age_upper_mask()[:, None] * np.ones(grid.nx + 1)


def box_terminal_draw(rng, grid):
    """Random terminal datum supported in the observation ages (delta, A).

    It draws as dp.age_gene_draw does, with the age factors
    sin(m*pi*(a-delta)/(A-delta)) on the window and zero outside it, so the
    datum vanishes at both window edges.
    """
    coeff = rng.standard_normal((_MODES, _MODES))
    m2 = np.arange(1, _MODES + 1) ** 2
    coeff = coeff / (m2[:, None] + m2[None, :])
    lo, hi = grid.delta, grid.A
    age_tab = _sine_table(np.clip(grid.a_levels - lo, 0.0, hi - lo), hi - lo, _MODES)
    age_tab[:, (grid.a_levels <= lo) | (grid.a_levels >= hi)] = 0.0
    gene_tab = _sine_table(grid.x_nodes, 1.0, _MODES)
    values = np.einsum("mn,ma,nx->ax", coeff, age_tab, gene_tab)
    return dp.Field(values, "age_gene", grid)


def cost_functional(control, y0, epsilon, coeffs, grid):
    """Penalized cost of an arbitrary control candidate.

    J = (1/(2 epsilon)) * ||terminal box values||^2 + (1/2) * ||control||^2_q.
    The candidate (a Field or an array) is restricted to the control window
    before use.
    """
    if epsilon <= 0:
        raise ValueError("penalty epsilon must be positive")
    values = control.values if isinstance(control, dp.Field) else np.asarray(control, float)
    masked = values * grid.omega_mask[None, None, :]
    flow = dp.solve_forward(
        dp.ForwardProblem(coeffs, grid, y0, control=dp.Field(masked, "trajectory", grid))
    )
    terminal = flow.values[grid.nt] * box_mask(grid)
    cost = dp.control_norm_sq(masked, grid)
    return dp.box_inner(terminal, terminal, grid) / (2.0 * epsilon) + 0.5 * cost


@pytest.fixture(scope="session")
def bench_coeffs():
    return make_benchmark_coeffs()


@pytest.fixture(scope="session")
def coarse_grid():
    """Coarse benchmark grid for fast unit tests."""
    return make_benchmark_grid(50, 50, 20)


@pytest.fixture(scope="session")
def coarse_family(bench_coeffs, coarse_grid):
    return dp.WeightFamily(bench_coeffs, coarse_grid, dp.WeightConfig())


# ---------------------------------------------------------------------------
# acceptance-criterion reporting
# ---------------------------------------------------------------------------

def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Recorder for one acceptance-criterion verdict line."""

    def record(line):
        request.config._criterion_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
