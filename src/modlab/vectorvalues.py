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

from .errors import named, overflow_as_value_error, require_count, require_exponent, require_keys, require_real_array
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


def _body_line_numbers(lines) -> list:
    """1-based line numbers of the body rows: the non-blank lines after the header."""
    return [n for n, ln in enumerate(lines, 1) if ln.strip()][1:]


def _c_reader_rows(text, body, N, M):
    """(indices, values) of the body from numpy's C reader, or None where it must not decide.

    That reader misreads non-ASCII digits (it reads U+01FE then '7' as the
    integer 4627) and strips U+001F as whitespace, where Python's int and
    float refuse both, so it only sees ASCII text without U+001F; on such
    text both accept the same tokens with the same values. The first row's
    width is checked before it sizes the row type, so a sidecar's ``dim_M``
    of 1e15 reaches the per-row loop's columns message, not a numpy error.
    """
    if not text.isascii() or "\x1f" in text or body[0].count(",") != N + M - 1:
        return None
    row = np.dtype([("i", np.int64, (N,)), ("v", np.float64, (M,))])
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=1, dtype=row)
    except ValueError:
        return None
    return table["i"], table["v"]


def _python_rows(path, lines, N, M):
    """(indices, values) of the body parsed row by row with Python's int and float.

    Raises a ValueError naming the file, the 1-based line and the rule of the
    first row that breaks one.
    """
    indices, row_values = [], []
    numbers = _body_line_numbers(lines)
    for number in numbers:
        parts = lines[number - 1].split(",")
        if len(parts) != N + M:
            raise ValueError(
                f"line {number} of {path} has {len(parts)} columns; every row needs {N} index and {M} value columns"
            )
        try:
            indices.extend(map(int, parts[:N]))
            row_values.extend(map(float, parts[N:]))
        except ValueError:
            for k, token in enumerate(parts):
                try:
                    (int if k < N else float)(token)
                except ValueError:
                    rule = "index {!r} is not an integer" if k < N else "value {!r} is not a number"
                    raise ValueError(f"line {number} of {path}: " + rule.format(token.strip())) from None
    try:
        multi = np.array(indices, dtype=np.int64).reshape(-1, N)
    except OverflowError:
        k = next(k for k, i in enumerate(indices) if not -(2**63) <= i < 2**63)
        raise ValueError(f"line {numbers[k // N]} of {path}: index {indices[k]} does not fit in int64") from None
    return multi, np.array(row_values).reshape(-1, M)


def load_field_csv(path) -> VectorField:
    """Read a field CSV and its sidecar ``<path>.json``.

    The body goes to numpy's C reader in one call. The per-row loop of
    Python's int and float stays for the bodies that reader refuses: it is
    the only path that reads the spellings Python accepts and the reader
    does not (``1_000``, non-ASCII digits, an index beyond int64, which then
    exits on the int64 rule), and the only one that can name the line of a
    bad token. Every fault names the file, the 1-based line of the row (blank
    lines counted) and the rule it breaks; the grid bounds, the one-row-per-
    cell rule and finiteness are checked once over all rows.
    """
    path = Path(path)
    with named(f"the sidecar of {path}"):
        record, M, tag = require_keys(json.loads(_sidecar_path(path).read_text()), ("grid", "dim_M", "norm_tag"))
        grid = Grid.from_json(record, "the grid record")
        M, tag = require_count(M, "dim_M", whole_floats=True), NormTag(tag)
    text = path.read_text()
    lines = text.splitlines()
    body = [ln for ln in lines if ln.strip()][1:]  # header row
    if len(body) != grid.num_cells:
        raise ValueError(f"expected {grid.num_cells} rows in {path}, found {len(body)}")
    N = grid.ndim
    multi, row_values = _c_reader_rows(text, body, N, M) or _python_rows(path, lines, N, M)

    def fault(row, rule):
        return ValueError(f"line {_body_line_numbers(lines)[row]} of {path}: {rule}")

    # each rule is one whole-array test; the faulty row is located only once
    # a rule fails. initial=0 and the reshape keep them defined on a 0-D grid.
    shape = np.array(grid.shape)
    if multi.min(initial=0) < 0 or np.any(multi.max(axis=0, initial=0) >= shape):
        row = int(np.argmax(np.any((multi < 0) | (multi >= shape), axis=1)))
        cell = tuple(int(i) for i in multi[row])
        raise fault(row, f"cell {cell} lies outside the grid of shape {grid.shape}")
    flat = np.ravel_multi_index(multi.T, grid.shape).reshape(-1)
    # with one row per cell, a repeated index is also a missing one; name the
    # first row, in file order, whose cell an earlier row already holds
    if np.bincount(flat, minlength=grid.num_cells).max() > 1:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        row = int(np.argmax(repeat))
        cell = tuple(int(i) for i in multi[row])
        raise fault(row, f"cell {cell} appears twice; every cell needs exactly one row")
    if not np.isfinite(row_values).all():
        row = int(np.argmin(np.isfinite(row_values).all(axis=1)))
        raise fault(row, f"values must be finite, found {row_values[row].tolist()}")
    values = np.empty((grid.num_cells, M))
    values[flat] = row_values
    return VectorField(grid=grid, values=values, norm=tag)


def load_scalar_field_csv(path) -> ScalarField:
    f = load_field_csv(path)
    if f.dim_M != 1:
        raise ValueError(f"the scalar field {path} must carry exactly one value column, found dim_M = {f.dim_M}")
    return ScalarField(grid=f.grid, values=f.values[:, 0])
