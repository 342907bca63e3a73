"""Workload definitions shared by run.py and worker.py.

Every workload runs `degenpop.runner.run_experiment` on a config generated
from configs/benchmark.ini in which only the three cell counts change.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "benchmark.ini"
OUT = Path(__file__).resolve().parent / "out"

# name -> (gene_cells, age_cells, time_cells), commands run in sequence
WORKLOADS = {
    # CG on four penalties (47 Gram applies) on the runner's thread
    # pool.  Writes no field CSV, so stepping, forward, adjoint and control do
    # the work.  Finest of the three grids in age and time, which is where
    # the kernel steps; each apply holds two 3.8 MB trajectories per thread,
    # so the four threads' 30 MB working set is far larger than a 4 MB L2
    # cache.  The gene grid is coarse so that a pass takes a few seconds and
    # a run's median is taken over several passes.
    "sweep-fine": ((50, 150, 60), ("sweep",)),
    # Field-CSV export dominates; control is solved for one penalty only and
    # the trace oracle steps the kernel one row at a time.
    "export": ((100, 100, 40), ("simulate", "adjoint", "control")),
    # The inequality lab: trial evaluation plus 110 adjoint solves, on a grid
    # coarse enough that a run's median is taken over several passes.
    "lab": ((50, 50, 20), ("inequalities",)),
}

# Smallest grid on which every window of benchmark.ini sits on a node.
SMOKE_GRID = (50, 20, 8)

# The penalties of benchmark.ini, named as the per-layer metrics name them.
PENALTIES = ("1e-2", "1e-3", "1e-4", "1e-5")


def penalty_label(eps: float) -> str:
    """1e-2 for 0.01: the shortest exponent form, without zero padding."""
    mantissa, exponent = f"{eps:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def write_config(grid, path: Path) -> Path:
    """Copy benchmark.ini with only the cell counts replaced."""
    nx, na, nt = grid
    text = BASE_CONFIG.read_text()
    for key, value in (("gene_cells", nx), ("age_cells", na), ("time_cells", nt)):
        text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if count != 1:
            raise ValueError(f"{BASE_CONFIG}: expected one {key} line, found {count}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
