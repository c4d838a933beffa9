"""Finite-dimensional stand-in for a Banach space of values.

Fields take values in R^M tagged with an l1, l2 or linf norm. Cell-constant
fields are the simple functions of the discrete model, so their L^p norms
are exact volume-weighted sums. No dual functional is formed anywhere: every
g* is a closed form or an exact walk over the Jacobian. A maximum over a
short value axis is taken over the rows of that axis moved first, with the
same bits as np.max and at a fraction of its time.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import named, overflow_as_value_error, read_csv, require_count, require_exponent, require_keys, require_real_array
from .geometry import Grid, ScalarField


class NormTag(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


# np.max reduces a short contiguous last axis one row at a time, so up to
# this length a maximum over the rows of the contiguous transpose is faster.
# Measured on an AMD EPYC core with numpy 2.4, np.max against transposed:
# (4096, 12) 112 against 18 us and (4096, 48) 191 against 119 us, while
# (4096, 64) takes 207 against 278 us, (512, 128) 28 against 55 us and
# (16, 4096) 6 against 113 us.
_SHORT_AXIS = 32


def _max_last_axis(x: np.ndarray) -> np.ndarray:
    """np.max(x, axis=-1), bit for bit: a maximum is exact in any order."""
    if x.shape[-1] > _SHORT_AXIS:
        return np.max(x, axis=-1)
    return np.maximum.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)), axis=0)


# np.sum adds a last axis of fewer than this many entries in order, one row
# at a time, as a sum over the rows of the contiguous transpose does, and
# the latter is faster: (4096, 2) 41 against 6 us, (4096, 7) 48 against
# 15 us on an AMD EPYC core with numpy 2.4. From 8 entries on np.sum adds in
# blocks, so the bits would differ.
_SHORT_SUM = 8


def _sum_last_axis(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1), bit for bit."""
    if x.shape[-1] >= _SHORT_SUM:
        return np.sum(x, axis=-1)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)), axis=0)


def value_norm(v: np.ndarray, tag: NormTag) -> np.ndarray | float:
    """l1/l2/linf norm along the last axis; scalar for a single vector."""
    v = np.asarray(v, dtype=float)
    if tag is NormTag.L1:
        out = _sum_last_axis(np.abs(v))
    elif tag is NormTag.L2:
        out = np.sqrt(_sum_last_axis(v * v))
    else:
        out = _max_last_axis(np.abs(v))
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class VectorField:
    """Cell-centered field with values in R^M and a value-norm tag."""

    grid: Grid
    values: np.ndarray
    norm: NormTag

    def __post_init__(self):
        self.values = require_real_array(self.values, "values")
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.num_cells:
            raise ValueError("values must have shape (num_cells, M)")
        if self.values.shape[1] < 1:
            raise ValueError("value dimension M must be >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def dim_M(self) -> int:
        return self.values.shape[1]

    def norms(self) -> np.ndarray:
        """Per-cell value norms ||f(x)||."""
        return value_norm(self.values, self.norm)


def lp_norm(f: VectorField, p: float) -> float:
    """(integral of ||f||^p)^(1/p) over the box."""
    with overflow_as_value_error(f"the {f.norm.value} value norms of the field overflow float64"):
        norms = f.norms()
    return scalar_lp_norm(ScalarField(grid=f.grid, values=norms), p)


def scalar_lp_norm(s: ScalarField, p: float) -> float:
    require_exponent(p)
    with overflow_as_value_error(f"the L^{p:g} norm overflows float64"):
        return float(np.sum(np.abs(s.values) ** p * s.grid.cell_volume) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Field I/O: CSV with N index columns + M value columns, plus a JSON sidecar
# recording {norm_tag, dim_M, grid}. The sidecar lives at <csv path> + ".json".

def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def field_csv_files(f: VectorField | ScalarField, path) -> dict:
    """A field's CSV and sidecar texts, keyed by the paths they belong at.

    A scalar field is written as one l2 value column.
    """
    if isinstance(f, ScalarField):
        f = VectorField(grid=f.grid, values=f.values[:, None], norm=NormTag.L2)
    path = Path(path)
    g = f.grid
    # np.indices, unlike np.unravel_index, also lists the one cell of a 0-D grid
    idx = np.indices(g.shape).reshape(g.ndim, g.num_cells).T
    header = [f"i{k+1}" for k in range(g.ndim)] + [f"v{k+1}" for k in range(f.dim_M)]
    lines = [",".join(header)]
    for row_idx, row_val in zip(idx, f.values):
        cells = [str(int(i)) for i in row_idx] + [format(x, ".17g") for x in row_val]
        lines.append(",".join(cells))
    sidecar = {"norm_tag": f.norm.value, "dim_M": f.dim_M, "grid": g.to_json()}
    return {path: "\n".join(lines) + "\n", _sidecar_path(path): json.dumps(sidecar, indent=2) + "\n"}


def save_field_csv(f: VectorField | ScalarField, path) -> None:
    for target, text in field_csv_files(f, path).items():
        target.write_text(text)


def load_field_csv(path) -> VectorField:
    """Read a field CSV, its body by ``errors.read_csv``, and its sidecar
    ``<path>.json``. Every fault names the file, the line of the row and the
    rule it breaks; the row count, the grid bounds and the one-row-per-cell
    rule are each one test over all rows."""
    path = Path(path)
    with named(f"the sidecar of {path}"):
        record, M, tag = require_keys(json.loads(_sidecar_path(path).read_text()), ("grid", "dim_M", "norm_tag"))
        grid = Grid.from_json(record, "the grid record")
        M, tag = require_count(M, "dim_M", whole_floats=True), NormTag(tag)
    multi, row_values, where = read_csv(path, header=True, width=grid.ndim + M, index_columns=grid.ndim)
    if len(multi) != grid.num_cells:
        raise ValueError(f"expected {grid.num_cells} rows in {path}, found {len(multi)}")

    # read as unsigned, an index below 0 lies beyond 2^63, outside every grid
    outside = multi.view(np.uint64) >= np.array(grid.shape, dtype=np.uint64)
    if outside.any():
        row = int(np.argmax(outside.any(axis=1)))
        raise ValueError(f"{where(row)}: cell {tuple(multi[row].tolist())} lies outside the grid of shape {grid.shape}")
    flat = np.ravel_multi_index(multi.T, grid.shape).reshape(-1)  # 1-D on a 0-D grid too
    # with one row per cell, a repeated index is also a missing one; name the
    # first row, in file order, whose cell an earlier row already holds
    if np.bincount(flat, minlength=grid.num_cells).max() > 1:
        row = int(np.setdiff1d(np.arange(flat.size), np.unique(flat, return_index=True)[1])[0])
        raise ValueError(f"{where(row)}: cell {tuple(multi[row].tolist())} appears twice; every cell needs exactly one row")
    values = np.empty((grid.num_cells, M))
    values[flat] = row_values
    return VectorField(grid=grid, values=values, norm=tag)


def load_scalar_field_csv(path) -> ScalarField:
    f = load_field_csv(path)
    if f.dim_M != 1:
        raise ValueError(f"the scalar field {path} must carry exactly one value column, found dim_M = {f.dim_M}")
    return ScalarField(grid=f.grid, values=f.values[:, 0])
