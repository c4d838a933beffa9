"""Axis-aligned grids, polyline curves, and curve/cell integration.

The grid discretizes a box domain with uniform cells per axis; fields attach
one value per cell (cell-centered, C order) and are treated as piecewise
constant. Curves are polylines, for which the length supremum over partitions
is attained by the vertex chain, so lengths and per-cell traversal lengths
are computed in closed form.

Per-cell traversal lengths are computed in one place, ``cell_length_rows``,
which splits every segment of a whole family at its cell-plane crossings in
one vectorized pass. ``cell_lengths`` is its one-curve case, and a line
integral of a cell field is such a row times the cell values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateCurveError, DomainError

# Relative slack when testing containment in the closed grid box. Curves may
# touch the boundary; only genuine excursions outside are rejected.
BOX_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned box discretization carrying Lebesgue cell volumes."""

    box_min: np.ndarray
    box_max: np.ndarray
    resolution: np.ndarray

    def __post_init__(self):
        try:
            box_min, box_max, resolution = (
                np.atleast_1d(np.asarray(v, dtype=float))
                for v in (self.box_min, self.box_max, self.resolution)
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"box_min, box_max and resolution must be numeric: {exc}") from None
        object.__setattr__(self, "box_min", box_min)
        object.__setattr__(self, "box_max", box_max)
        if not np.all(np.isfinite(resolution)) or np.any(resolution != np.floor(resolution)):
            raise ValueError("resolution must be integral per axis")
        object.__setattr__(self, "resolution", resolution.astype(int))
        if not (self.box_min.shape == self.box_max.shape == self.resolution.shape):
            raise ValueError("box_min, box_max and resolution must have matching length")
        if not np.all(np.isfinite(self.box_min)) or not np.all(np.isfinite(self.box_max)):
            raise ValueError("box bounds must be finite")
        if not np.all(self.box_min < self.box_max):
            raise ValueError("box_min must be strictly below box_max componentwise")
        if not np.all(self.resolution >= 1):
            raise ValueError("resolution must be >= 1 per axis")

    @property
    def ndim(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(r) for r in self.resolution)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def spacing(self) -> np.ndarray:
        return (self.box_max - self.box_min) / self.resolution

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.box_min[axis] + (np.arange(self.resolution[axis]) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """Centers of all cells, shape (num_cells, ndim), C order."""
        axes = [self.axis_centers(i) for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, points: np.ndarray) -> bool:
        """True if every point lies in the closed box (up to BOX_TOL slack)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        slack = BOX_TOL * (1.0 + np.abs(self.box_max - self.box_min))
        return bool(
            np.all(pts >= self.box_min - slack) and np.all(pts <= self.box_max + slack)
        )

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Flat cell indices of the cells containing the given points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((pts - self.box_min) / self.spacing).astype(int)
        idx = np.clip(idx, 0, self.resolution - 1)
        return np.ravel_multi_index(tuple(idx.T), self.shape)

    def to_json(self) -> dict:
        return {
            "box_min": self.box_min.tolist(),
            "box_max": self.box_max.tolist(),
            "resolution": self.resolution.tolist(),
        }

    @classmethod
    def from_json(cls, record: dict) -> "Grid":
        if not isinstance(record, dict):
            raise ValueError(f"grid record must be a JSON object, got {type(record).__name__}")
        return cls(record["box_min"], record["box_max"], record["resolution"])

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "Grid":
        return cls.from_json(json.loads(Path(path).read_text()))


class Polyline:
    """Rectifiable curve given by an ordered vertex chain in R^N."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a nonempty (k, N) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        self.vertices = v

    @property
    def ndim(self) -> int:
        return self.vertices.shape[1]

    @property
    def segment_lengths(self) -> np.ndarray:
        d = np.diff(self.vertices, axis=0)
        return np.sqrt(np.sum(d * d, axis=1))

    @property
    def cumulative_arclength(self) -> np.ndarray:
        """Nondecreasing arc positions of the vertices; starts at 0."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    @property
    def length(self) -> float:
        return float(np.sum(self.segment_lengths))

    def points_at(self, ts) -> np.ndarray:
        """Points at arc-length parameters ``ts`` along the chain."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        cum = self.cumulative_arclength
        total = cum[-1]
        if np.any(ts < -BOX_TOL * (1 + total)) or np.any(ts > total * (1 + BOX_TOL) + BOX_TOL):
            raise ValueError("arc-length parameter out of [0, length]")
        ts = np.clip(ts, 0.0, total)
        if self.vertices.shape[0] == 1:
            return np.repeat(self.vertices, len(ts), axis=0)
        seg = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0, len(cum) - 2)
        seg_len = self.segment_lengths
        width = seg_len[seg]
        frac = np.where(width > 0, (ts - cum[seg]) / np.where(width > 0, width, 1.0), 0.0)
        p0 = self.vertices[seg]
        p1 = self.vertices[seg + 1]
        return p0 + frac[:, None] * (p1 - p0)

    def point_at(self, t: float) -> np.ndarray:
        return self.points_at([t])[0]

    def __repr__(self):
        return f"Polyline({self.vertices.shape[0]} vertices, length={self.length:.6g})"


def length(c: Polyline) -> float:
    """Length of a polyline: the partition supremum, attained by the vertices."""
    return c.length


def arclength_parametrize(c: Polyline) -> Polyline:
    """Return ``c`` with degenerate repeated vertices collapsed.

    The result evaluates ``points_at`` on [0, length] and every restriction
    [s, t] has length t - s. Constant curves cannot be parametrized.
    """
    if c.length <= 0.0:
        raise DegenerateCurveError("cannot arc-length parametrize a constant curve")
    keep = np.concatenate([[True], c.segment_lengths > 0.0])
    return Polyline(c.vertices[keep])


def restrict(c: Polyline, s: float, t: float) -> Polyline:
    """Subcurve of ``c`` between arc-length parameters s <= t."""
    total = c.length
    if not (0.0 <= s <= t <= total * (1 + BOX_TOL) + BOX_TOL):
        raise ValueError(f"need 0 <= s <= t <= length, got s={s}, t={t}, length={total}")
    s = min(s, total)
    t = min(t, total)
    cum = c.cumulative_arclength
    inner = (cum > s) & (cum < t)
    pts = np.vstack([c.points_at([s]), c.vertices[inner], c.points_at([t])])
    return Polyline(pts)


@dataclass
class CurveFamily:
    """Finite family of nonconstant curves indexing a modulus problem."""

    curves: list
    label: str = ""

    def __post_init__(self):
        for c in self.curves:
            if c.length <= 0.0:
                raise DegenerateCurveError("curve families admit nonconstant curves only")

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)


@dataclass
class ScalarField:
    """Cell-centered piecewise-constant scalar field on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.shape[0] != self.grid.num_cells:
            raise ValueError("values must carry one entry per grid cell")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def value_at(self, points: np.ndarray) -> np.ndarray:
        return self.values[self.grid.locate(points)]


def _plane_crossings(g: Grid, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior cell-plane crossings of the segments p[s] -> q[s], all at once.

    Returns the segment index and the parameter t in (0, 1) of every
    crossing, sorted by segment and then by t. A crossing of several planes
    at one point (a grid vertex or edge) appears once per plane.
    """
    d = q - p
    h = g.spacing
    kmin = np.maximum(1, np.floor((np.minimum(p, q) - g.box_min) / h).astype(np.int64) + 1)
    kmax = np.minimum(g.resolution - 1, np.ceil((np.maximum(p, q) - g.box_min) / h).astype(np.int64) - 1)
    count = np.where(d != 0.0, np.maximum(kmax - kmin + 1, 0), 0).ravel()
    # one entry per (segment, axis, plane k), enumerating k = kmin..kmax
    owner = np.repeat(np.arange(count.size), count)
    first = np.repeat(np.cumsum(count) - count, count)
    k = kmin.ravel()[owner] + (np.arange(owner.size) - first)
    seg, axis = np.divmod(owner, g.ndim)
    planes = g.box_min[axis] + k * h[axis]
    t = (planes - p[seg, axis]) / d[seg, axis]
    inside = (t > 0.0) & (t < 1.0)
    seg, t = seg[inside], t[inside]
    order = np.lexsort((t, seg))
    return seg[order], t[order]


def _segment_crossings(g: Grid, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Parameters t in (0, 1) where the segment p->q crosses interior cell planes."""
    return _plane_crossings(g, p[None, :], q[None, :])[1]


def cell_length_rows(curves, g: Grid) -> sp.csr_matrix:
    """Arc length of each curve inside each cell, as a len(curves) x num_cells matrix.

    Every segment of every curve is split at the interior cell planes it
    crosses; the cell owning each piece is the one holding the piece
    midpoint, so row j sums to the length of curve j (up to roundoff). The
    pieces a row gathers in one cell are summed in curve order, and cells
    the curve only touches (zero-width pieces at grid vertices) hold no
    entry. A constant curve gives an all-zero row.
    """
    curves = list(curves)
    n = g.num_cells
    if any(c.ndim != g.ndim for c in curves):
        raise ValueError("curve dimension does not match grid dimension")
    if not curves:
        return sp.csr_matrix((0, n))
    verts = np.concatenate([c.vertices for c in curves])
    if not g.contains(verts):
        raise DomainError("curve exits the grid box")
    owner = np.repeat(np.arange(len(curves)), [c.vertices.shape[0] for c in curves])
    p, q = verts[:-1], verts[1:]
    d = q - p
    seg_len = np.sqrt(np.sum(d * d, axis=1))
    live = (owner[:-1] == owner[1:]) & (seg_len > 0.0)
    p, q, d, seg_len, seg_curve = p[live], q[live], d[live], seg_len[live], owner[:-1][live]

    # breakpoints of segment s: 0, its sorted crossings, 1, laid out in blocks
    cseg, ct = _plane_crossings(g, p, q)
    ncross = np.bincount(cseg, minlength=len(p))
    ends = np.cumsum(ncross + 2) - 1
    t = np.empty(len(ct) + 2 * len(p))
    t[ends - ncross - 1] = 0.0
    t[ends] = 1.0
    t[np.arange(len(ct)) + 2 * cseg + 1] = ct
    left = np.delete(np.arange(t.size), ends)
    piece_seg = np.repeat(np.arange(len(p)), ncross + 1)
    a, b = t[left], t[left + 1]
    widths = (b - a) * seg_len[piece_seg]
    mids = p[piece_seg] + (0.5 * (a + b))[:, None] * d[piece_seg]

    # sum each (row, cell) in piece order and drop cells with zero total
    keys, slot = np.unique(seg_curve[piece_seg] * n + g.locate(mids), return_inverse=True)
    data = np.bincount(slot, weights=widths, minlength=keys.size)
    keys, data = keys[data != 0.0], data[data != 0.0]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=len(curves)))])
    return sp.csr_matrix((data, keys % n, indptr), shape=(len(curves), n))


def cell_lengths(c: Polyline, g: Grid) -> sp.csr_matrix:
    """Arc length of ``c`` inside each cell, as a sparse 1 x num_cells row."""
    return cell_length_rows([c], g)


def curve_integral(rho: ScalarField, c: Polyline) -> float:
    """Integral of ``rho`` along the arc-length parametrized curve ``c``.

    Exact for the piecewise-constant field model: the cell-length row of
    ``c`` times the cell values, the same row a modulus constraint uses.
    """
    row = cell_lengths(c, rho.grid)
    if np.any(rho.values < 0.0):
        raise ValueError("curve_integral expects a nonnegative density")
    return float((row @ rho.values)[0])


# ---------------------------------------------------------------------------
# File formats: polylines as plain CSV (one vertex per line), families as a
# JSON manifest listing CSV paths, grids as a JSON record.

def save_polyline_csv(c: Polyline, path) -> None:
    lines = [",".join(format(x, ".17g") for x in v) for v in c.vertices]
    Path(path).write_text("\n".join(lines) + "\n")


def load_polyline_csv(path) -> Polyline:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError(f"empty polyline file: {path}")
    return Polyline(np.asarray(rows))


def save_family(fam: CurveFamily, manifest_path, stem: str = "curve") -> None:
    manifest_path = Path(manifest_path)
    paths = []
    for i, c in enumerate(fam.curves):
        rel = f"{stem}_{i:04d}.csv"
        save_polyline_csv(c, manifest_path.parent / rel)
        paths.append(rel)
    manifest_path.write_text(json.dumps({"label": fam.label, "curves": paths}, indent=2) + "\n")


def load_family(manifest_path) -> CurveFamily:
    manifest_path = Path(manifest_path)
    record = json.loads(manifest_path.read_text())
    rels = record.get("curves") if isinstance(record, dict) else None
    if not isinstance(rels, list) or not all(isinstance(rel, str) for rel in rels):
        raise ValueError(f"{manifest_path} must be a JSON object whose 'curves' is a list of path strings")
    curves = [load_polyline_csv(manifest_path.parent / rel) for rel in rels]
    return CurveFamily(curves=curves, label=record.get("label", ""))
