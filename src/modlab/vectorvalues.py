"""Finite-dimensional stand-in for a Banach space of values.

Fields take values in R^M tagged with an l1, l2 or linf norm; the dual
pairings are (l1 <-> linf, l2 <-> l2). Cell-constant fields are measurable
simple functions of the discrete model, so the vector-valued integral is a
plain volume-weighted sum and is exact.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError
from .geometry import Grid, ScalarField

DUAL_NORM_SLACK = 1e-12

# Exact sign-vector enumeration for l1-valued fields caps at 2^16 functionals.
L1_EXACT_MAX_DIM = 16


class NormTag(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def dual(self) -> "NormTag":
        return {NormTag.L1: NormTag.LINF, NormTag.L2: NormTag.L2, NormTag.LINF: NormTag.L1}[self]


def value_norm(v: np.ndarray, tag: NormTag) -> np.ndarray | float:
    """l1/l2/linf norm along the last axis; scalar for a single vector."""
    v = np.asarray(v, dtype=float)
    if tag is NormTag.L1:
        out = np.sum(np.abs(v), axis=-1)
    elif tag is NormTag.L2:
        out = np.sqrt(np.sum(v * v, axis=-1))
    else:
        out = np.max(np.abs(v), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def dual_norm(v: np.ndarray, tag: NormTag) -> np.ndarray | float:
    """Norm of a functional paired against values carrying ``tag``."""
    return value_norm(v, tag.dual)


@dataclass
class VectorField:
    """Cell-centered field with values in R^M and a value-norm tag."""

    grid: Grid
    values: np.ndarray
    norm: NormTag

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
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

    def value_at(self, points: np.ndarray) -> np.ndarray:
        return self.values[self.grid.locate(points)]

    def norms(self) -> np.ndarray:
        """Per-cell value norms ||f(x)||."""
        return value_norm(self.values, self.norm)


@dataclass
class DualFunctional:
    """Element of the dual unit ball for a given value-norm tag."""

    coeffs: np.ndarray
    tag: NormTag

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if dual_norm(self.coeffs, self.tag) > 1.0 + DUAL_NORM_SLACK:
            raise ValueError("dual functional must have dual norm <= 1")


def bochner_integral(f: VectorField) -> np.ndarray:
    """Vector-valued integral of a cell-constant field: sum of volume * value.

    Exact for the discrete model; cells are summed in fixed C order so the
    result is deterministic.
    """
    return f.grid.cell_volume * np.sum(f.values, axis=0)


def lp_norm(f: VectorField, p: float) -> float:
    """(integral of ||f||^p)^(1/p) over the box."""
    if p < 1.0:
        raise ValueError("lp_norm requires p >= 1")
    return float(np.sum(f.norms() ** p * f.grid.cell_volume) ** (1.0 / p))


def scalar_lp_norm(s: ScalarField, p: float) -> float:
    if p < 1.0:
        raise ValueError("lp_norm requires p >= 1")
    return float(np.sum(np.abs(s.values) ** p * s.grid.cell_volume) ** (1.0 / p))


def scalarize(f: VectorField, v: DualFunctional) -> ScalarField:
    """Pointwise pairing <v, f> as a scalar field."""
    if v.tag is not f.norm:
        raise ValueError("functional is paired with a different value norm")
    if v.coeffs.shape[0] != f.dim_M:
        raise ValueError("functional dimension does not match the field")
    return ScalarField(grid=f.grid, values=f.values @ v.coeffs)


def dual_ball_extreme_points(tag: NormTag, M: int) -> list[DualFunctional]:
    """Extreme points of the dual unit ball for values in (R^M, tag).

    linf values pair with the l1 ball (2M signed coordinate functionals);
    l1 values pair with the linf ball (2^M sign vectors, M <= 16). The l2
    ball has no finite extreme set; the empty list signals that suprema are
    handled analytically by the spectral norm.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if tag is NormTag.L2:
        return []
    if tag is NormTag.LINF:
        eye = np.eye(M)
        return [DualFunctional(s * e, tag) for e in eye for s in (1.0, -1.0)]
    if M > L1_EXACT_MAX_DIM:
        raise CapacityError(
            f"exact sign-vector enumeration needs 2^{M} functionals; use sampled mode"
        )
    return [DualFunctional(np.array(s, dtype=float), tag) for s in itertools.product((1.0, -1.0), repeat=M)]


def sampled_dual_functionals(tag: NormTag, M: int, count: int, seed: int = 0) -> list[DualFunctional]:
    """Deterministic sample from the dual unit sphere.

    Draws are sequential from one generator stream, so the first k draws for
    a given seed are a prefix of any longer sample (monotone refinement).
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if tag is NormTag.L1:
            # dual ball is the linf ball; extreme points are sign vectors
            v = rng.choice([-1.0, 1.0], size=M)
        else:
            v = rng.standard_normal(M)
            n = dual_norm(v, tag)
            if n == 0.0:
                v = np.zeros(M)
                v[0] = 1.0
                n = dual_norm(v, tag)
            v = v / n
        out.append(DualFunctional(v, tag))
    return out


# ---------------------------------------------------------------------------
# Field I/O: CSV with N index columns + M value columns, plus a JSON sidecar
# recording {norm_tag, dim_M, grid}. The sidecar lives at <csv path> + ".json".

def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_field_csv(f: VectorField, path) -> None:
    path = Path(path)
    g = f.grid
    idx = np.stack(np.unravel_index(np.arange(g.num_cells), g.shape), axis=-1)
    header = [f"i{k+1}" for k in range(g.ndim)] + [f"v{k+1}" for k in range(f.dim_M)]
    lines = [",".join(header)]
    for row_idx, row_val in zip(idx, f.values):
        cells = [str(int(i)) for i in row_idx] + [format(x, ".17g") for x in row_val]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    sidecar = {"norm_tag": f.norm.value, "dim_M": f.dim_M, "grid": g.to_json()}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def load_field_csv(path) -> VectorField:
    path = Path(path)
    sidecar = json.loads(_sidecar_path(path).read_text())
    if not isinstance(sidecar, dict):
        raise ValueError(f"the sidecar of {path} must be a JSON object")
    grid = Grid.from_json(sidecar["grid"])
    M = sidecar["dim_M"]
    integral = isinstance(M, int) or (isinstance(M, float) and M.is_integer())
    if isinstance(M, bool) or not integral or M < 1:
        raise ValueError(f"dim_M in the sidecar of {path} must be an integer >= 1")
    M = int(M)
    tag = NormTag(sidecar["norm_tag"])
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    body = lines[1:]  # header row
    if len(body) != grid.num_cells:
        raise ValueError(f"expected {grid.num_cells} rows in {path}, found {len(body)}")
    width = grid.ndim + M
    columns = f"every row of {path} needs {grid.ndim} index and {M} value columns"
    # the first row bounds dim_M before it sizes the value array
    if body[0].count(",") != width - 1:
        raise ValueError(columns)
    values = np.zeros((grid.num_cells, M))
    seen = np.zeros(grid.num_cells, dtype=bool)
    for ln in body:
        parts = ln.split(",")
        if len(parts) != width:
            raise ValueError(columns)
        multi = tuple(int(x) for x in parts[: grid.ndim])
        flat = int(np.ravel_multi_index(multi, grid.shape))
        # with one row per cell, a repeated index is also a missing one
        if seen[flat]:
            raise ValueError(f"cell {multi} appears twice in {path}; every cell needs exactly one row")
        seen[flat] = True
        values[flat] = [float(x) for x in parts[grid.ndim :]]
    return VectorField(grid=grid, values=values, norm=tag)


def save_scalar_field_csv(s: ScalarField, path) -> None:
    save_field_csv(VectorField(grid=s.grid, values=s.values[:, None], norm=NormTag.L2), path)


def load_scalar_field_csv(path) -> ScalarField:
    f = load_field_csv(path)
    if f.dim_M != 1:
        raise ValueError("scalar field file must carry exactly one value column")
    return ScalarField(grid=f.grid, values=f.values[:, 0])
