"""Independent oracles used to freeze expected values.

Everything here is deliberately written against the raw formulas (plain
loops, closed forms, brute-force sweeps) rather than through the library
paths it is used to check.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from modlab.errors import require_count, require_keys
from modlab.geometry import BOX_TOL, Grid, Polyline
from modlab.vectorvalues import NormTag, VectorField, _sidecar_path


def kkt_single_row(a: np.ndarray, w: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Closed-form optimum of min sum w rho^p s.t. a . rho >= 1, rho >= 0.

    Stationarity gives rho_c = (a_c / (p w_c))^(1/(p-1)) lam^(1/(p-1)) with
    the multiplier scaled so the single constraint is tight.
    """
    base = (a / (p * w)) ** (1.0 / (p - 1.0))
    lam_pow = 1.0 / float(np.dot(a, base))
    rho = base * lam_pow
    return rho, float(np.sum(w * rho**p))


def regular_polygon_length(k: int, radius: float = 1.0) -> float:
    """Perimeter of the regular k-gon inscribed in a circle."""
    return 2.0 * k * radius * math.sin(math.pi / k)


def brute_force_quotient_gap(t: float, h: float, hprime: float, M: int) -> float:
    """Sup-norm gap between sin-family difference quotients, plain-math sweep."""
    worst = 0.0
    for n in range(1, M + 1):
        a = (math.sin(n * (t + h)) - math.sin(n * t)) / (n * h)
        b = (math.sin(n * (t + hprime)) - math.sin(n * t)) / (n * hprime)
        worst = max(worst, abs(a - b))
    return worst


def enumerated_l1_gstar(J: np.ndarray) -> np.ndarray:
    """Per cell, max over all s in {-1, 1}^M with s_1 = +1 of ||J s||, for J of shape (cells, N, M).

    The brute-force sweep, 2^10 sign vectors at a time.
    """
    M = J.shape[2]
    low = min(M - 1, 10)
    tail = np.array(list(itertools.product((1.0, -1.0), repeat=low))).reshape(2**low, low)
    best = np.zeros(J.shape[0])
    for head in itertools.product((1.0, -1.0), repeat=M - 1 - low):
        signs = np.hstack([np.tile([1.0, *head], (2**low, 1)), tail])
        sums = np.einsum("cnm,sm->cns", J, signs)
        best = np.maximum(best, np.sqrt(np.sum(sums * sums, axis=1)).max(axis=1))
    return best


# Equal values of shape (num_cells, M) in four memory layouts. np.gradient
# keeps its input's memory order, so a Fortran-ordered field reaches J's
# assembly, and every sum over J, with other strides.
LAYOUTS = {
    "c-order": lambda v: v,
    "flipped": lambda v: np.ascontiguousarray(v[::-1, ::-1])[::-1, ::-1],
    "fortran": np.asfortranarray,
    "column-sliced": lambda v: np.repeat(v, 2, axis=1)[:, ::2],
}


def stacked_jacobian(f: VectorField) -> np.ndarray:
    """The finite-difference Jacobian, shape (num_cells, N, M): np.gradient
    along each grid axis, stacked on a new axis before the values."""
    g = f.grid
    cube = f.values.reshape(*g.shape, f.dim_M)
    parts = [np.gradient(cube, g.spacing[axis], axis=axis) for axis in range(g.ndim)]
    return np.stack(parts, axis=-2).reshape(g.num_cells, g.ndim, f.dim_M)


def ray_l1_gstar(J: np.ndarray) -> np.ndarray:
    """Per cell, max over s in {-1, 1}^M of ||J s|| for N = 3 columns in general position.

    Each vertex of the zonotope sum_i [-j_i, j_i] is J sign(J^T u) for u
    inside a region of the arrangement of the planes j_i^perp. In general
    position every region is a pointed cone whose extreme rays are the lines
    j_a^perp & j_b^perp, on which every other column has a nonzero sign;
    the region takes one of the 4 sign pairs on (a, b). So the sign vectors
    at the rays u = j_a x j_b, completed by those 4 pairs, meet every
    vertex. O(M^3) per cell.
    """
    M = J.shape[2]
    best = np.zeros(J.shape[0])
    for a, b in itertools.combinations(range(M), 2):
        s = np.sign(np.einsum("cnm,cn->cm", J, np.cross(J[:, :, a], J[:, :, b])))
        for sa, sb in itertools.product((1.0, -1.0), repeat=2):
            s[:, a], s[:, b] = sa, sb
            v = np.einsum("cnm,cm->cn", J, s)
            best = np.maximum(best, np.sqrt(np.sum(v * v, axis=1)))
    return best


def dual_ball_extreme_points(tag: NormTag, M: int) -> np.ndarray:
    """Extreme points of the dual unit ball for values in (R^M, tag), one per row.

    linf values pair with the l1 ball: the 2M signed coordinate functionals
    e_0, -e_0, e_1, .... l1 values pair with the linf ball: the 2^M sign
    vectors in itertools.product order. The l2 ball has no finite extreme
    set, so l2 gives no rows.
    """
    if tag is NormTag.LINF:
        return np.repeat(np.eye(M), 2, axis=0) * np.tile([1.0, -1.0], M)[:, None]
    if tag is NormTag.L1:
        return np.array(list(itertools.product((1.0, -1.0), repeat=M)))
    return np.empty((0, M))


def sampled_dual_functionals(tag: NormTag, M: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` points of the dual unit sphere, one per row, drawn in sequence
    from one seeded generator: sign vectors for l1 values, and otherwise a
    standard normal draw scaled to unit l2 (l2 values) or l1 (linf values)
    norm. A field f pairs with them as ``f.values @ v``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, M))
    for k in range(count):
        if tag is NormTag.L1:
            out[k] = rng.choice([-1.0, 1.0], size=M)
        else:
            v = rng.standard_normal(M)
            out[k] = v / (np.sqrt(np.sum(v * v)) if tag is NormTag.L2 else np.sum(np.abs(v)))
    return out


def midpoint_quadrature(fn, a: float, b: float, n: int = 4096) -> float:
    """Composite midpoint rule for a scalar function on [a, b]."""
    xs = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(fn(xs)) * (b - a) / n)


def dense_cell_length_rows(curves, g) -> np.ndarray:
    """Per-cell arc lengths of each curve, one dense row per curve.

    The per-segment algorithm written out with scalar loops: split each
    segment at every interior cell plane it crosses, give each piece to the
    cell holding its midpoint, and add the piece widths into the row in
    segment order. The float expressions are the library's, so the result
    is meant to match it bit for bit.
    """
    box_min = [float(x) for x in g.box_min]
    h = [float(x) for x in g.spacing]
    res = [int(r) for r in g.resolution]
    rows = np.zeros((len(curves), g.num_cells))
    for j, c in enumerate(curves):
        verts = c.vertices.tolist()
        for p, q in zip(verts[:-1], verts[1:]):
            d = [b - a for a, b in zip(p, q)]
            sq = 0.0
            for x in d:
                sq += x * x
            seg_len = math.sqrt(sq)
            if seg_len == 0.0:
                continue
            ts = []
            for i in range(len(d)):
                if d[i] == 0.0:
                    continue
                lo, hi = min(p[i], q[i]), max(p[i], q[i])
                kmin = max(1, math.floor((lo - box_min[i]) / h[i]) + 1)
                kmax = min(res[i] - 1, math.ceil((hi - box_min[i]) / h[i]) - 1)
                for k in range(kmin, kmax + 1):
                    t = (box_min[i] + k * h[i] - p[i]) / d[i]
                    if 0.0 < t < 1.0:
                        ts.append(t)
            ts = [0.0] + sorted(ts) + [1.0]
            for a, b in zip(ts[:-1], ts[1:]):
                frac = 0.5 * (a + b)
                flat = 0
                for i in range(len(d)):
                    idx = math.floor((p[i] + frac * d[i] - box_min[i]) / h[i])
                    flat = flat * res[i] + min(max(idx, 0), res[i] - 1)
                rows[j, flat] += (b - a) * seg_len
    return rows


def lexsort_plane_crossings(g: Grid, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment index and parameter of every interior cell-plane crossing
    of the segments p[s] -> q[s], ordered by one np.lexsort on (seg, t).

    The enumeration and its float expressions are the library's; only the
    ordering differs, so seg and t are meant to match it bit for bit.
    """
    d = q - p
    h = g.spacing
    kmin = np.maximum(1, np.floor((np.minimum(p, q) - g.box_min) / h).astype(np.int64) + 1)
    kmax = np.minimum(g.resolution - 1, np.ceil((np.maximum(p, q) - g.box_min) / h).astype(np.int64) - 1)
    count = np.where(d != 0.0, np.maximum(kmax - kmin + 1, 0), 0).ravel()
    owner = np.repeat(np.arange(count.size), count)
    first = np.repeat(np.cumsum(count) - count, count)
    k = kmin.ravel()[owner] + (np.arange(owner.size) - first)
    seg, axis = np.divmod(owner, g.ndim)
    t = (g.box_min[axis] + k * h[axis] - p[seg, axis]) / d[seg, axis]
    inside = (t > 0.0) & (t < 1.0)
    seg, t = seg[inside], t[inside]
    order = np.lexsort((t, seg))
    return seg[order], t[order]


def bincount_normal_matrix(C, d: np.ndarray) -> np.ndarray:
    """The upper triangle of C diag(d) C^T, as a flat m x m Fortran-order array.

    Every pair of entries i <= j of a column of the CSC matrix C adds
    C[i, c] C[j, c] d[c] into bin j m + i, all in one np.bincount over the
    pairs in column, then entry order; the sum order is meant to match the
    library's pair operator bit for bit.
    """
    m = C.shape[0]
    r, v = C.indices, C.data
    k = np.diff(C.indptr)
    later = np.repeat(C.indptr[1:], k) - np.arange(r.size)
    first = np.repeat(np.arange(r.size), later)
    second = first + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    col = np.repeat(np.arange(k.size), k)[first]
    return np.bincount(r[second] * m + r[first], v[first] * v[second] * d[col], minlength=m * m)


def mask_restrict(c: Polyline, s: float, t: float) -> Polyline:
    """Subcurve of ``c`` between arc-length parameters s <= t, one pair at a
    time: the points at s and t around the vertices whose arc position lies
    strictly between them, picked by a boolean mask."""
    total = c.length
    if not (0.0 <= s <= t <= total * (1 + BOX_TOL) + BOX_TOL):
        raise ValueError(f"need 0 <= s <= t <= length, got s={s}, t={t}, length={total}")
    s = min(s, total)
    t = min(t, total)
    cum = c.cumulative_arclength
    inner = (cum > s) & (cum < t)
    return Polyline(np.vstack([c.points_at([s]), c.vertices[inner], c.points_at([t])]))


def scipy_interpolator(g: Grid, values: np.ndarray):
    """scipy's multilinear interpolant of cell-centred (num_cells, M) values,
    extended linearly into the boundary half-cells (fill_value=None)."""
    from scipy.interpolate import RegularGridInterpolator

    axes = [g.axis_centers(i) for i in range(g.ndim)]
    cube = values.reshape(*g.shape, -1)
    return RegularGridInterpolator(axes, cube, method="linear", bounds_error=False, fill_value=None)


def ftc_residuals(f, G, c, num_params: int) -> list:
    """Per parameter pair s < t, ||f(c(t)) - f(c(s)) - int_s^t grad f . c'||.

    The plain per-pair loop: build fresh scipy interpolators, restrict the
    curve to [s, t], cut each of its segments where it crosses a plane of
    interior cell centres, found one axis at a time, and apply
    Gauss-Legendre with ndim // 2 + 1 nodes to each piece, on which the
    interpolated gradient is a polynomial of degree <= ndim. f is evaluated
    at the two endpoints one point at a time.
    """
    g = f.grid
    axes = [g.axis_centers(i) for i in range(g.ndim)]

    norms = {
        "l1": lambda v: np.sum(np.abs(v)),
        "l2": lambda v: np.sqrt(np.sum(v * v)),
        "linf": lambda v: np.max(np.abs(v)),
    }
    norm = norms[f.norm.value]
    x, w = np.polynomial.legendre.leggauss(g.ndim // 2 + 1)
    params = np.linspace(0.0, c.length, num_params)
    out = []
    for a in range(num_params):
        for b in range(a + 1, num_params):
            s, t = float(params[a]), float(params[b])
            f_interp = scipy_interpolator(g, f.values)
            grads = [scipy_interpolator(g, G[:, i, :]) for i in range(g.ndim)]
            sub = mask_restrict(c, s, t)
            path = np.zeros(f.dim_M)
            for p, q in zip(sub.vertices[:-1], sub.vertices[1:]):
                d = q - p
                cuts = [0.0, 1.0]
                for i in range(g.ndim):
                    for centre in axes[i][1:-1]:
                        if d[i] != 0.0 and 0.0 < (centre - p[i]) / d[i] < 1.0:
                            cuts.append((centre - p[i]) / d[i])
                cuts.sort()
                for u0, u1 in zip(cuts[:-1], cuts[1:]):
                    for xj, wj in zip(x, w):
                        point = p + (u0 + (u1 - u0) * (1.0 + xj) / 2.0) * d
                        for i, interp in enumerate(grads):
                            path += (u1 - u0) * wj / 2.0 * d[i] * interp(point[None])[0]
            increment = f_interp(c.points_at([t]))[0] - f_interp(c.points_at([s]))[0]
            out.append(float(norm(increment - path)))
    return out


def load_field_csv_rows(path) -> VectorField:
    """The field-CSV reader as one numpy call per row, kept as the loader's oracle."""
    path = Path(path)
    record, M, tag = require_keys(json.loads(_sidecar_path(path).read_text()), ("grid", "dim_M", "norm_tag"))
    grid, M, tag = Grid.from_json(record), require_count(M, "dim_M", whole_floats=True), NormTag(tag)
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
