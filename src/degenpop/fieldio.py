"""Deterministic CSV persistence for grid fields.

Fields are stored in long format with the fixed header ``t,a,x,value`` and
one row per grid point, written in t-major, then age, then gene order.
Floats are serialized with ``repr``, the shortest decimal string that parses
back to the identical IEEE double, so round-trips are exact and repeated
writes of the same field are byte-identical.  A file is written one time
level at a time, so the writer holds one level's text in memory, never the
whole file.

Which axes a field carries is read from ``model.FIELD_AXES``.  Two-dimensional
fields reuse the same four-column layout with a constant label in the
collapsed coordinate: age-gene slices carry the terminal time and time-gene
traces age zero (they are newborn-line traces in this package).
The reader infers the field kind from which axes are fully covered and
validates complete, duplicate-free coverage of the grid.
"""

from __future__ import annotations

import numpy as np

from .model import FIELD_AXES, Field, SpaceTimeGrid

HEADER = "t,a,x,value"


def write_field_csv(field: Field, path) -> None:
    """Write a Field to ``path`` in long CSV format."""
    grid = field.grid
    axes = FIELD_AXES[field.kind]
    collapsed = {"t": grid.T, "a": 0.0}
    t_strs, a_strs, x_strs = (
        [repr(v) for v in grid.nodes(axis).tolist()] if axis in axes
        else [repr(float(collapsed[axis]))]
        for axis in "tax"
    )
    # a (t, a, x) view: the collapsed axis of a 2-D field has length one
    values = field.values.reshape(len(t_strs), len(a_strs), len(x_strs))
    # one level's lines minus their t label; labels are float reprs, so the
    # only "%" is the value's, and "%r" formats it with the same float repr
    body = [a_s + "," + x_s + ",%r" for a_s in a_strs for x_s in x_strs]
    with open(path, "w", newline="") as handle:
        handle.write(HEADER + "\n")
        for t_s, level in zip(t_strs, values):
            prefix = t_s + ","
            template = prefix + ("\n" + prefix).join(body) + "\n"
            handle.write(template % tuple(level.ravel().tolist()))


def _parse_rows(path):
    ts, as_, xs, vals = [], [], [], []
    with open(path, "r", newline="") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != HEADER:
            raise ValueError(
                f"{path}: expected header {HEADER!r}, found {header!r}"
            )
        for lineno, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 4 comma-separated entries"
                )
            try:
                t, a, x, v = (float(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
            ts.append(t)
            as_.append(a)
            xs.append(x)
            vals.append(v)
    if not ts:
        raise ValueError(f"{path}: no data rows")
    return (
        np.array(ts),
        np.array(as_),
        np.array(xs),
        np.array(vals),
    )


def _axis_indices(coords, grid, axis, path):
    """Map coordinates of a fully covered uniform axis to indices."""
    n_cells = grid.nodes(axis).size - 1
    step = getattr(grid, "d" + axis)  # grid.dt, grid.da or grid.dx
    idx = np.rint(coords / step).astype(int)
    bad = (idx < 0) | (idx > n_cells) | (np.abs(coords - idx * step) > 1e-9 * step)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(
            f"{path}: coordinate {axis}={float(coords[j])!r} does not match any "
            "grid node"
        )
    return idx


def read_field_csv(path, grid: SpaceTimeGrid) -> Field:
    """Read a Field written by :func:`write_field_csv` back onto ``grid``.

    The field kind is inferred from the coordinate coverage: full coverage
    of all three axes gives a trajectory, a constant time column with full
    age/gene coverage an age-gene slice, a constant age column a time-gene
    trace.  Raises on header mismatch, non-numeric entries, coordinates off
    the grid, duplicate rows, and incomplete coverage (naming the gap).
    """
    ts, as_, xs, vals = _parse_rows(path)
    t_single = np.unique(ts).size == 1
    a_single = np.unique(as_).size == 1
    if t_single and not a_single:
        kind = "age_gene"
    elif a_single and not t_single:
        kind = "time_gene"
    else:
        kind = "trajectory"

    axes = FIELD_AXES[kind]
    shape = grid.shape(kind)
    columns = {"t": ts, "a": as_, "x": xs}
    index = tuple(_axis_indices(columns[axis], grid, axis, path) for axis in axes)
    flat = np.ravel_multi_index(index, shape)

    def coords(f):
        node = np.unravel_index(f, shape)
        return ", ".join(
            f"{axis}={float(grid.nodes(axis)[i])!r}" for axis, i in zip(axes, node)
        )

    total = int(np.prod(shape))
    counts = np.bincount(flat, minlength=total)
    if np.any(counts > 1):
        f = int(np.argmax(counts > 1))
        raise ValueError(f"{path}: duplicate row for {coords(f)}")
    if np.any(counts == 0):
        f = int(np.argmax(counts == 0))
        raise ValueError(f"{path}: missing row for {coords(f)}")

    values = np.empty(total)
    values[flat] = vals
    return Field(values.reshape(shape), kind, grid)
