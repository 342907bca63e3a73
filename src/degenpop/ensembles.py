"""Reproducible random function ensembles.

Every stochastic experiment (duality checks, Gram-operator probes,
observability and inequality trials) draws Fourier sine sums

    sum_{modes} c / |mode|^2 * product of sine factors,   c ~ N(0, 1),

which are smooth, vanish at the gene and age endpoints (and, for a
trajectory, at t = 0 and t = T), and are reproducible from one seed of
numpy's PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from .model import Field

#: Seed used by every shipped experiment unless overridden.
DEFAULT_SEED = 4127

#: Sine modes per axis of the age-gene and gene draws.
_MODES = 8


def make_rng(seed=None):
    return np.random.Generator(np.random.PCG64(DEFAULT_SEED if seed is None else seed))


def _sine_table(coords, length, modes):
    """Rows sin(m*pi*coords/length) for m = 1..modes.

    Columns at (or beyond) the interval endpoints are set to exact zeros:
    evaluating sin(m*pi) in floating point leaves round-off residue, and in
    exponentially weighted integrals a 1e-16 residue at a favourable node can
    outweigh every genuine interior contribution.
    """
    m = np.arange(1, modes + 1)[:, None]
    table = np.sin(m * np.pi * coords[None, :] / length)
    table[:, (coords <= 0.0) | (coords >= length)] = 0.0
    return table


def age_gene_draw(rng, grid):
    """Random age-gene Field vanishing at a = 0, a = A, x = 0 and x = 1."""
    coeff = rng.standard_normal((_MODES, _MODES))
    m2 = np.arange(1, _MODES + 1) ** 2
    coeff = coeff / (m2[:, None] + m2[None, :])
    age_tab = _sine_table(grid.a_levels, grid.A, _MODES)
    gene_tab = _sine_table(grid.x_nodes, 1.0, _MODES)
    values = np.einsum("mn,ma,nx->ax", coeff, age_tab, gene_tab)
    return Field(values, "age_gene", grid)


def trajectory_draw(rng, grid):
    """Random trajectory Field, smooth and vanishing on every face."""
    modes = 4  # sine modes per axis
    coeff = rng.standard_normal((modes, modes, modes))
    m2 = np.arange(1, modes + 1) ** 2
    coeff = coeff / (m2[:, None, None] + m2[None, :, None] + m2[None, None, :])
    t_tab = _sine_table(grid.t_levels, grid.T, modes)
    a_tab = _sine_table(grid.a_levels, grid.A, modes)
    x_tab = _sine_table(grid.x_nodes, 1.0, modes)
    values = np.einsum("lmn,lt,ma,nx->tax", coeff, t_tab, a_tab, x_tab, optimize=True)
    return Field(values, "trajectory", grid)


def gene_draw(rng, grid):
    """Random gene row vanishing at x = 0 and x = 1."""
    coeff = rng.standard_normal(_MODES) / np.arange(1, _MODES + 1) ** 2
    return coeff @ _sine_table(grid.x_nodes, 1.0, _MODES)
