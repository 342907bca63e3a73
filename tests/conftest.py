"""Shared fixtures: the benchmark problem at several resolutions.

The acceptance tests record one PASS/FAIL line per criterion; a terminal
summary hook prints the collected lines after the run regardless of output
capturing.
"""

import numpy as np
import pytest

import degenpop as dp


def make_benchmark_grid(nx, na, nt):
    """Benchmark cylinder: T=0.4, A=1, delta=0.5, nested gene windows."""
    return dp.SpaceTimeGrid(
        T=0.4, A=1.0, nx=nx, nt=nt, na=na, delta=0.5,
        omega=(0.3, 0.7), omega_core=(0.44, 0.64), omega_inner=(0.56, 0.64),
    )


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
