"""Axis-aligned grids, polyline curves, and curve/cell integration.

The grid discretizes a box domain with uniform cells per axis; fields attach
one value per cell (cell-centered, C order) and are treated as piecewise
constant. Curves are polylines, for which the length supremum over partitions
is attained by the vertex chain, so lengths and per-cell traversal lengths
are computed in closed form.

Curves are split packed: ``_split_segments`` takes stacked vertices and the
vertex count of each curve, and cuts every segment between the neighbours of
one sorted list of its ends and cell-plane crossings (``_breakpoints``); it
also cuts curves where an interpolated field changes formula, for the exact
line integrals of ``sobolev``. Per-cell traversal lengths are computed in
one place, ``_cell_length_entries``, as (curve, cell, length) arrays.
``cell_length_rows`` packs them into a sparse matrix for the modulus
program, importing scipy.sparse on its first call; ``curve_integrals`` sums
them times the cell values per curve with numpy alone, in the sparse
product's order, so each line integral is bit-identical to a constraint row
times the density. Both pack their list of curves once (``_pack``), and
``cell_lengths`` and ``curve_integral`` are their one-curve cases.

Sub-curves are cut in one place too: ``_cut_packed`` gives the points at
sorted arc-length parameters and the packed pieces between them, which the
curve checks use as they are; ``cut`` and ``restrict`` wrap them in Polylines.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DegenerateCurveError, DomainError, named, read_csv, require_count, require_keys,
                     require_real_array, require_reals)

if TYPE_CHECKING:
    import scipy.sparse as sp

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
        box_min, box_max, resolution = (require_reals(getattr(self, k), k) for k in ("box_min", "box_max", "resolution"))
        if not len(box_min) == len(box_max) == len(resolution):
            raise ValueError("box_min, box_max and resolution must have matching length")
        # a Python int keeps an integer resolution exact, which float64 rounds above 2^53
        shape = [require_count(r, "resolution", whole_floats=True) for r in resolution]
        box_min, box_max = np.array(box_min, dtype=float), np.array(box_max, dtype=float)
        if not np.all(box_min < box_max):
            raise ValueError("box_min must be strictly below box_max componentwise")
        if math.prod(shape) > np.iinfo(np.intp).max:
            raise ValueError(f"resolution {shape} has {math.prod(shape)} cells, more than an index can address")
        object.__setattr__(self, "box_min", box_min)
        object.__setattr__(self, "box_max", box_max)
        object.__setattr__(self, "resolution", np.array(shape, dtype=int))

    @property
    def ndim(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(r) for r in self.resolution)

    @property
    def num_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return (self.box_max - self.box_min) / self.resolution

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @functools.cached_property  # computed once per grid: a Grid never changes
    def centre_planes(self) -> "Grid":
        """The grid whose interior planes are all the planes of this grid's cell centres."""
        return Grid(self.box_min - self.spacing / 2, self.box_max + self.spacing / 2, self.resolution + 1)

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
        # axis by axis: numpy broadcasts over a short last axis slowly
        h, flat = self.spacing, 0
        for axis, n in enumerate(self.resolution):
            idx = np.floor((pts[:, axis] - self.box_min[axis]) / h[axis]).astype(np.intp)
            flat = flat * n + np.clip(idx, 0, n - 1)
        return flat

    def to_json(self) -> dict:
        return {
            "box_min": self.box_min.tolist(),
            "box_max": self.box_max.tolist(),
            "resolution": self.resolution.tolist(),
        }

    @classmethod
    def from_json(cls, record: dict, where: str = "grid record") -> "Grid":
        with named(where):
            return cls(*require_keys(record, ("box_min", "box_max", "resolution")))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "Grid":
        with named(where := f"the grid record in {path}"):
            record = json.loads(Path(path).read_text())
        return cls.from_json(record, where)


class Polyline:
    """Rectifiable curve given by an ordered vertex chain in R^N."""

    def __init__(self, vertices):
        v = require_real_array(vertices, "vertices")
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

    @functools.cached_property  # computed once and shared: the vertices never change
    def segment_lengths(self) -> np.ndarray:
        d = np.diff(self.vertices, axis=0)
        return np.sqrt(np.sum(d * d, axis=1))

    @functools.cached_property
    def cumulative_arclength(self) -> np.ndarray:
        """Nondecreasing arc positions of the vertices; starts at 0."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    @functools.cached_property
    def length(self) -> float:
        return float(np.sum(self.segment_lengths))

    def points_at(self, ts) -> np.ndarray:
        """Points at arc-length parameters ``ts`` along the chain."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        seg_len, cum = self.segment_lengths, self.cumulative_arclength
        total = cum[-1]
        # written so that NaN, which fails every comparison, fails the test
        if not np.all((ts >= -BOX_TOL * (1 + total)) & (ts <= total * (1 + BOX_TOL) + BOX_TOL)):
            raise ValueError("arc-length parameter out of [0, length]")
        ts = np.clip(ts, 0.0, total)
        if self.vertices.shape[0] == 1:
            return np.repeat(self.vertices, len(ts), axis=0)
        seg = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0, len(cum) - 2)
        width = seg_len[seg]
        frac = np.where(width > 0, (ts - cum[seg]) / np.where(width > 0, width, 1.0), 0.0)
        p0, p1 = self.vertices[seg], self.vertices[seg + 1]
        return p0 + frac[:, None] * (p1 - p0)

    def __repr__(self):
        return f"Polyline({self.vertices.shape[0]} vertices, length={self.length:.6g})"


def _cut_packed(c: Polyline, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of ``c`` at sorted arc-length parameters ``ts`` in
    [0, length] (up to BOX_TOL beyond it taken as the length) and the packed
    pieces between them: piece k runs from the point at ts[k] through the
    vertices strictly between ts[k] and ts[k + 1] in arc position to the
    point at ts[k + 1]. One search of the cumulative arc length finds the
    vertex ranges, and one gather stacks every piece."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    total = c.length
    if ts.ndim != 1 or not (ts.size and 0.0 <= ts[0] and ts[-1] <= total * (1 + BOX_TOL) + BOX_TOL):
        raise ValueError(f"arc-length parameters must lie in [0, length = {total}]")
    if not np.all(ts[:-1] <= ts[1:]):
        raise ValueError("arc-length parameters must be sorted")
    ts = np.minimum(ts, total)
    points = c.points_at(ts)
    cum = c.cumulative_arclength
    # vertices[lo:hi] are those with ts[k] < cum < ts[k + 1]; lo >= hi when none is
    lo = np.searchsorted(cum, ts[:-1], side="right")
    counts = np.maximum(np.searchsorted(cum, ts[1:], side="left") - lo, 0) + 2
    ends = np.cumsum(counts)
    # rows of [points; vertices]: vertex j of piece k is vertex lo[k] - 1 + j,
    # but the first and last, which are points k and k + 1
    rows = np.repeat(len(ts) + lo - 1 - (ends - counts), counts) + np.arange(counts.sum())
    rows[ends - counts], rows[ends - 1] = np.arange(len(ts) - 1), np.arange(1, len(ts))
    return points, np.take(np.concatenate([points, c.vertices]), rows, axis=0), counts


def cut(c: Polyline, ts) -> list:
    """The consecutive sub-curves of ``c`` between sorted arc-length
    parameters ``ts``, one Polyline per pair of neighbours (``_cut_packed``)."""
    _, verts, counts = _cut_packed(c, ts)
    return [Polyline(verts[end - n : end]) for n, end in zip(counts, np.cumsum(counts))]


def restrict(c: Polyline, s: float, t: float) -> Polyline:
    """Subcurve of ``c`` between arc-length parameters s <= t."""
    return cut(c, [s, t])[0]


@dataclass
class CurveFamily:
    """Finite family of nonconstant curves indexing a modulus problem."""

    curves: list
    label: str = ""

    def __post_init__(self):
        verts = [c.vertices for c in self.curves]
        if len({v.shape[1] for v in verts}) > 1:
            nonconstant = all(c.length > 0.0 for c in self.curves)
        elif verts:
            # a curve has positive length exactly when one of its segments has
            # d.d > 0 (a d.d that underflows to 0 gives length 0 too); moving
            # counts such segments, and the segment joining two curves is
            # counted in neither
            d = np.diff(np.concatenate(verts), axis=0)
            moving = np.concatenate([[0], np.cumsum(np.sum(d * d, axis=1) > 0.0)])
            ends = np.cumsum([v.shape[0] for v in verts])
            starts = np.concatenate([[0], ends[:-1]])
            nonconstant = bool(np.all(moving[ends - 1] > moving[starts]))
        else:
            nonconstant = True
        if not nonconstant:
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
        self.values = require_real_array(self.values, "values").reshape(-1)
        if self.values.shape[0] != self.grid.num_cells:
            raise ValueError("values must carry one entry per grid cell")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def _breakpoints(g: Grid, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends t = 0 and t = 1 of the segments p[s] -> q[s] and their interior
    cell-plane crossings, all at once, as segment indices and parameters t
    sorted by segment and then by t. A crossing of several planes at one
    point (a grid vertex or edge) appears once per plane.
    """
    d = q - p
    h = g.spacing
    kmin = np.maximum(1, np.floor((np.minimum(p, q) - g.box_min) / h).astype(np.int64) + 1)
    kmax = np.minimum(g.resolution - 1, np.ceil((np.maximum(p, q) - g.box_min) / h).astype(np.int64) - 1)
    count = np.where(d != 0.0, np.maximum(kmax - kmin + 1, 0), 0).ravel()
    # one entry per (segment, axis, plane k), enumerating k = kmin..kmax
    # where d > 0 and k = kmax..kmin where d < 0, so that t ascends within
    # each run and the sort below finds runs already in order; owner is the
    # flat index of (segment, axis) in p and d
    owner = np.repeat(np.arange(count.size), count)
    start = np.cumsum(count) - count
    down = (d < 0.0).ravel()
    base = np.where(down, kmax.ravel() + start, kmin.ravel() - start)
    k = np.repeat(base, count) + np.repeat(np.where(down, -1, 1), count) * np.arange(owner.size)
    axis = owner % g.ndim
    t = (g.box_min[axis] + k * h[axis] - p.reshape(-1)[owner]) / d.reshape(-1)[owner]
    inside = (t > 0.0) & (t < 1.0)
    ends = np.arange(len(p))
    seg = np.concatenate([ends, owner[inside] // g.ndim, ends])
    t = np.concatenate([np.zeros(len(p)), t[inside], np.ones(len(p))])
    # order by segment, then t: complex numbers sort by real part, then
    # imaginary part, and seg is exact as a double; crossings lie strictly
    # inside (0, 1), so no end ties with one
    order = np.argsort(seg + 1j * t, kind="stable")
    return seg[order], t[order]


def _pack(curves, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of ``curves`` stacked and the vertex count of each, once
    every curve is checked to have g's dimension and to stay in its box."""
    for c in curves:
        if c.ndim != g.ndim:
            raise ValueError(f"the curve has {c.ndim} coordinates per vertex but the grid has {g.ndim} axes")
    verts = np.concatenate([c.vertices for c in curves]) if curves else np.zeros((0, g.ndim))
    if not g.contains(verts):
        raise DomainError("curve exits the grid box")
    return verts, np.array([c.vertices.shape[0] for c in curves], dtype=np.intp)


def _split_segments(verts: np.ndarray, counts: np.ndarray, g: Grid) -> tuple:
    """The nonconstant segments of packed curves (``counts[j]`` rows of ``verts``) cut at g's interior cell planes.

    Returns six arrays with one entry per piece, in curve, segment and then
    parameter order: the curve, the start p, difference d and length of the
    piece's segment, and the parameters t0 <= t1 of the piece on it, which
    spans p + t0 d to p + t1 d. Neighbouring breakpoints of a segment
    (``_breakpoints``) bound its pieces, which tile [0, 1].
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    p, q = verts[:-1], verts[1:]
    d = q - p
    seg_len = np.sqrt(np.sum(d * d, axis=1))
    live = (owner[:-1] == owner[1:]) & (seg_len > 0.0)
    p, q, d, seg_len, seg_curve = p[live], q[live], d[live], seg_len[live], owner[:-1][live]
    seg, t = _breakpoints(g, p, q)
    left = np.flatnonzero(seg[1:] == seg[:-1])
    seg = seg[left]
    # np.take gathers the rows of a narrow 2-D array far faster than p[seg]
    return seg_curve[seg], np.take(p, seg, axis=0), np.take(d, seg, axis=0), seg_len[seg], t[left], t[left + 1]


def _cell_length_entries(verts: np.ndarray, counts: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc length of each curve packed by ``_pack`` inside each cell, as (row, cell, length) entries.

    Every segment of every curve is split at the interior cell planes it
    crosses; the cell owning each piece is the one holding the piece
    midpoint, so the lengths of row j sum to the length of curve j (up to
    roundoff). The pieces a row gathers in one cell are summed in curve
    order. The entries are sorted by row and then cell, and cells the curve
    only touches (zero-width pieces at grid vertices) hold none, so a
    constant curve has no entry.
    """
    n = g.num_cells
    curve, p, d, seg_len, a, b = _split_segments(verts, counts, g)
    widths = (b - a) * seg_len
    mids = p + (0.5 * (a + b))[:, None] * d
    del p, d, seg_len, a, b  # free the pieces before np.unique sorts the keys

    # sum each (row, cell) and drop cells with zero total: bincount adds
    # each key's pieces in piece order
    keys, inverse = np.unique(curve * n + g.locate(mids), return_inverse=True)
    data = np.bincount(inverse, weights=widths)
    keep = data != 0.0
    row, cell = np.divmod(keys[keep], n)
    return row, cell, data[keep]


def cell_length_rows(curves, g: Grid) -> sp.csr_matrix:
    """Arc length of each curve inside each cell, as a len(curves) x num_cells
    sparse matrix holding the entries of ``_cell_length_entries``. A constant
    curve gives an all-zero row."""
    import scipy.sparse as sp

    curves = list(curves)
    row, cell, length = _cell_length_entries(*_pack(curves, g), g)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=len(curves)))])
    return sp.csr_matrix((length, cell, indptr), shape=(len(curves), g.num_cells))


def cell_lengths(c: Polyline, g: Grid) -> sp.csr_matrix:
    """Arc length of ``c`` inside each cell, as a sparse 1 x num_cells row."""
    return cell_length_rows([c], g)


def _packed_integrals(rho: ScalarField, verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``curve_integrals`` of packed curves checked by ``_pack``."""
    row, cell, length = _cell_length_entries(verts, counts, rho.grid)
    # an overflow gives inf without a warning, in the products as in the sums
    with np.errstate(over="ignore"):
        products = length * rho.values[cell]
    return np.bincount(row, weights=products, minlength=len(counts))


def curve_integrals(rho: ScalarField, curves) -> np.ndarray:
    """Integral of ``rho`` along each arc-length parametrized curve.

    Exact for the piecewise-constant field model: each integral sums its
    curve's cell lengths times the cell values in (row, cell) order, the
    order in which the sparse product adds them, so the result is
    bit-identical to ``cell_length_rows(curves, rho.grid) @ rho.values``.
    """
    return _packed_integrals(rho, *_pack(list(curves), rho.grid))


def curve_integral(rho: ScalarField, c: Polyline) -> float:
    """Integral of ``rho`` along the arc-length parametrized curve ``c``: the
    one-curve case of ``curve_integrals``, for a nonnegative density."""
    value = curve_integrals(rho, [c])
    if np.any(rho.values < 0.0):
        raise ValueError("curve_integral expects a nonnegative density")
    return float(value[0])


# ---------------------------------------------------------------------------
# File formats: polylines as plain CSV (one vertex per line), families as a
# JSON manifest listing CSV paths, grids as a JSON record.

def save_polyline_csv(c: Polyline, path) -> None:
    lines = [",".join(format(x, ".17g") for x in v) for v in c.vertices]
    Path(path).write_text("\n".join(lines) + "\n")


def load_polyline_csv(path) -> Polyline:
    """Read a polyline CSV, one vertex per line, by ``errors.read_csv``."""
    _, vertices, _ = read_csv(path, noun="coordinate")
    if not len(vertices):
        raise ValueError(f"empty polyline file: {path}")
    return Polyline(vertices)


def save_family(fam: CurveFamily, manifest_path) -> None:
    manifest_path = Path(manifest_path)
    paths = []
    for i, c in enumerate(fam.curves):
        rel = f"curve_{i:04d}.csv"
        save_polyline_csv(c, manifest_path.parent / rel)
        paths.append(rel)
    manifest_path.write_text(json.dumps({"label": fam.label, "curves": paths}, indent=2) + "\n")


def load_family(manifest_path) -> CurveFamily:
    manifest_path = Path(manifest_path)
    with named(f"the family manifest {manifest_path}"):
        record = json.loads(manifest_path.read_text())
        (rels,) = require_keys(record, ("curves",))
        if not isinstance(rels, list) or not all(isinstance(rel, str) for rel in rels):
            raise ValueError("'curves' must be a list of path strings")
        if not isinstance(label := record.get("label", ""), str):
            raise ValueError(f"'label' must be a string, got {type(label).__name__}")
    curves = [load_polyline_csv(manifest_path.parent / rel) for rel in rels]
    return CurveFamily(curves=curves, label=label)
