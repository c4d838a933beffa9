"""Classical W^{1,p} side: discrete gradients, weak-derivative verification,
the W-norm, and fundamental-theorem checks along curves.

The weak-derivative checker is a verifier, not a solver: it certifies a
candidate field against the integration-by-parts identity over a battery of
smooth compactly supported bumps. Point evaluation along curves uses
multilinear interpolation of the cell-centered samples so that the
fundamental-theorem residuals shrink at second order under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import DomainError
from .geometry import Grid, Polyline, ScalarField, restrict
from .report import CheckRecord, Report
from .vectorvalues import VectorField, lp_norm, scalar_lp_norm, value_norm


@dataclass
class GradientField:
    """Per-axis partial derivatives of a vector field, on the same grid."""

    components: tuple
    source: VectorField

    def __post_init__(self):
        self.components = tuple(self.components)
        for comp in self.components:
            if comp.grid is not self.source.grid and comp.grid.shape != self.source.grid.shape:
                raise ValueError("gradient components must live on the source grid")
            if comp.norm is not self.source.norm:
                raise ValueError("gradient components must carry the source norm tag")

    @property
    def grid(self) -> Grid:
        return self.source.grid


@dataclass
class TestFunction:
    """Smooth bump supported on a ball: phi = exp(1 - 1/(1 - |x-c|^2/r^2)).

    Identically zero outside the ball and infinitely differentiable, with
    analytic partial derivatives.
    """

    center: np.ndarray
    radius: float

    __test__ = False  # not a pytest class despite the Test* name

    def __post_init__(self):
        try:
            self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bump center must be numeric: {exc}") from None
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("bump center must be a finite point")
        if isinstance(self.radius, bool) or not isinstance(self.radius, Real) or not 0.0 < self.radius < np.inf:
            raise ValueError("bump radius must be a positive real number")

    def _u(self, points: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(points) - self.center
        return np.sum(d * d, axis=-1) / self.radius**2

    def phi(self, points: np.ndarray) -> np.ndarray:
        u = self._u(points)
        out = np.zeros(u.shape)
        m = u < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m]))
        return out

    def dphi(self, points: np.ndarray, axis: int) -> np.ndarray:
        pts = np.atleast_2d(points)
        u = self._u(pts)
        out = np.zeros(u.shape)
        m = u < 1.0
        um = u[m]
        phi = np.exp(1.0 - 1.0 / (1.0 - um))
        out[m] = phi * (-2.0 * (pts[m][:, axis] - self.center[axis]) / self.radius**2) / (1.0 - um) ** 2
        return out

    def supported_inside(self, g: Grid) -> bool:
        return bool(
            np.all(self.center - self.radius > g.box_min)
            and np.all(self.center + self.radius < g.box_max)
        )


def finite_diff_gradient(f: VectorField) -> GradientField:
    """Finite-difference gradient: central in the interior, one-sided at the
    boundary; exact for componentwise-affine fields in the interior."""
    g = f.grid
    if np.any(g.resolution < 3):
        raise ValueError("finite differences need resolution >= 3 per axis")
    cube = f.values.reshape(*g.shape, f.dim_M)
    comps = []
    for axis in range(g.ndim):
        d = np.gradient(cube, g.spacing[axis], axis=axis)
        comps.append(VectorField(grid=g, values=d.reshape(-1, f.dim_M), norm=f.norm))
    return GradientField(components=tuple(comps), source=f)


def gradient_length(G: GradientField) -> ScalarField:
    """Pointwise (sum_i ||df/dx_i||^2)^(1/2) with the field's value norm."""
    tag = G.source.norm
    sq = np.zeros(G.grid.num_cells)
    for comp in G.components:
        sq += value_norm(comp.values, tag) ** 2
    return ScalarField(grid=G.grid, values=np.sqrt(sq))


def w_norm(f: VectorField, p: float) -> float:
    """Sobolev norm ||f||_p + || |grad f| ||_p with the discrete gradient."""
    if p < 1.0:
        raise ValueError("w_norm requires p >= 1")
    return lp_norm(f, p) + scalar_lp_norm(gradient_length(finite_diff_gradient(f)), p)


def _interior_mask(g: Grid) -> np.ndarray:
    mask = np.ones(g.shape, dtype=bool)
    for axis in range(g.ndim):
        sl = [slice(None)] * g.ndim
        sl[axis] = 0
        mask[tuple(sl)] = False
        sl[axis] = -1
        mask[tuple(sl)] = False
    return mask.ravel()


def weak_derivative_check(
    f: VectorField,
    cand: VectorField,
    axis: int,
    tests: list,
    tol: float,
) -> Report:
    """Verify the integration-by-parts identity for a candidate derivative.

    For each bump phi the two vector-valued integrals
    int dphi/dx_axis * f  and  -int phi * cand  are formed by cell quadrature
    (boundary cells excluded, which the compactly supported bumps never see)
    and the check passes when every residual norm is <= tol * (1 + scale).
    """
    g = f.grid
    if cand.grid.shape != g.shape or cand.norm is not f.norm or cand.dim_M != f.dim_M:
        raise ValueError("candidate must match the field's grid, norm tag and dimension")
    if not 0 <= axis < g.ndim:
        raise ValueError("axis out of range")
    for t in tests:
        if t.center.shape != (g.ndim,):
            raise ValueError(f"bump center {t.center.tolist()} must have one coordinate per grid axis ({g.ndim})")
        if not t.supported_inside(g):
            raise ValueError("test-function support touches the grid boundary")
    centers = g.cell_centers()
    interior = _interior_mask(g)
    vol = g.cell_volume
    checks = []
    for i, t in enumerate(tests):
        dphi = t.dphi(centers, axis)[interior]
        phi = t.phi(centers)[interior]
        lhs = vol * (dphi @ f.values[interior])
        rhs = vol * (phi @ cand.values[interior])
        residual = value_norm(lhs + rhs, f.norm)
        scale = max(value_norm(lhs, f.norm), value_norm(rhs, f.norm))
        bound = tol * (1.0 + scale)
        checks.append(
            CheckRecord(
                name=f"bump_{i:02d}",
                value=float(residual),
                bound=float(bound),
                margin=float(bound - residual),
                passed=bool(residual <= bound),
            )
        )
    return Report(command="weak_derivative_check", checks=checks)


def _interpolators(g: Grid, fields: list) -> list:
    axes = [g.axis_centers(i) for i in range(g.ndim)]
    out = []
    for values in fields:
        cube = values.reshape(*g.shape, -1)
        out.append(
            RegularGridInterpolator(axes, cube, method="linear", bounds_error=False, fill_value=None)
        )
    return out


def _segment_midpoints(c: Polyline, step: float):
    """Per nonconstant segment of ``c``: its unit tangent, and the midpoints and
    common width of its ceil(length / step) equal subdivisions."""
    for p, q, seg_len in zip(c.vertices[:-1], c.vertices[1:], c.segment_lengths):
        if seg_len == 0.0:
            continue
        n = max(1, int(np.ceil(seg_len / step)))
        tt = np.linspace(0.0, 1.0, n + 1)
        mids = p + (0.5 * (tt[:-1] + tt[1:]))[:, None] * (q - p)
        yield (q - p) / seg_len, mids, seg_len / n


def ftc_along_curve_check(
    f: VectorField,
    G: GradientField,
    c: Polyline,
    tol: float,
    num_params: int = 8,
    step: float | None = None,
) -> Report:
    """Check f(c(t)) - f(c(s)) = int_s^t (grad f . tangent) along the curve.

    Also asserts the chain-rule bound ||(grad f . tangent)|| <= |grad f| at
    the quadrature samples, which holds for the interpolated values exactly.
    """
    g = f.grid
    if not g.contains(c.vertices):
        raise DomainError("curve exits the grid box")
    if step is None:
        step = float(np.min(g.spacing)) / 2.0
    tag = f.norm
    f_interp, *interps = _interpolators(g, [f.values] + [comp.values for comp in G.components])
    params = np.linspace(0.0, c.length, num_params)
    values = f_interp(c.points_at(params))
    pairs = [(a, b) for a in range(num_params) for b in range(a + 1, num_params)]
    # the quadrature midpoints of every pair's sub-curve, then of the whole
    # curve for the chain-rule bound, interpolated in one call per axis
    curves = [restrict(c, params[a], params[b]) for a, b in pairs] + [c]
    segments = [list(_segment_midpoints(sub, step)) for sub in curves]
    mids = [m for segs in segments for _, m, _ in segs]
    grads = [interp(np.concatenate([np.empty((0, g.ndim))] + mids)) for interp in interps]
    # split back per segment: summing each segment's slice on its own keeps
    # every residual bit-identical to a quadrature run pair by pair
    offsets = np.cumsum([0] + [len(m) for m in mids])
    samples = iter([[comp[lo:hi] for comp in grads] for lo, hi in zip(offsets[:-1], offsets[1:])])
    checks = []
    for (a, b), segs in zip(pairs, segments):
        path = np.zeros(f.dim_M)
        for tangent, _, width in segs:
            for axis, comp in enumerate(next(samples)):
                path += width * tangent[axis] * np.sum(comp, axis=0)
        s, t = float(params[a]), float(params[b])
        residual = value_norm(values[b] - values[a] - path, tag)
        checks.append(
            CheckRecord(
                name=f"ftc[{s:.4g},{t:.4g}]",
                value=float(residual),
                bound=float(tol),
                margin=float(tol - residual),
                passed=bool(residual <= tol),
            )
        )
    # chain-rule bound at the samples along the full curve
    worst = 0.0
    for tangent, _, _ in segments[-1]:
        comps = next(samples)
        directional = sum(tangent[axis] * comps[axis] for axis in range(g.ndim))
        lhs = value_norm(directional, tag)
        rhs = np.sqrt(sum(value_norm(comp, tag) ** 2 for comp in comps))
        worst = max(worst, float(np.max(lhs - rhs)))
    chain_bound = 1e-12 * (1.0 + max(abs(ck.value) for ck in checks))
    checks.append(
        CheckRecord(
            name="chain_rule_bound",
            value=worst,
            bound=chain_bound,
            margin=float(chain_bound - worst),
            passed=bool(worst <= chain_bound),
        )
    )
    return Report(command="ftc_along_curve_check", checks=checks)
