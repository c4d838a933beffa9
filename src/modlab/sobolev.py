"""Classical W^{1,p} side: discrete gradients, weak-derivative verification,
the W-norm, and fundamental-theorem checks along curves.

The discrete derivative is one Jacobian array J, shape (num_cells, N, M),
which the W-norm and g* read; gradient_length(J, tag) is |grad f| for any
stack (..., N, M), and the FTC check takes a candidate gradient of J's shape.

The weak-derivative checker is a verifier, not a solver: it certifies a
candidate field against the integration-by-parts identity over a battery of
smooth compactly supported bumps. Point evaluation along curves uses
multilinear interpolation of the cell-centered samples so that the
fundamental-theorem residuals shrink at second order under refinement. The
interpolant is computed here, not by scipy: on the lattice of cell centres it
is the usual tensor-product formula, and in the half-cells along the box
faces each axis extends its first or last interval's linear formula. The
interpolated gradient is integrated along the curve exactly: segments are cut
at the planes of cell centres, where the interpolant changes formula, and
each piece takes Gauss-Legendre nodes, so there is no quadrature step to set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import overflow_as_value_error, require_check_tolerance, require_count, require_exponent, require_reals
from .geometry import Grid, Polyline, ScalarField, _cut_packed, _pack, _split_segments
from .report import Report, bounded_check, bounded_checks
from .vectorvalues import NormTag, VectorField, lp_norm, scalar_lp_norm, value_norm


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
        self.center = np.array(require_reals(self.center, "bump center"), dtype=float)
        (self.radius,) = require_reals([self.radius], "bump radius")  # a radius given as a list is nested here
        if self.radius <= 0.0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")

    def _u(self, points: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(points) - self.center
        return np.sum(d * d, axis=-1) / self.radius**2

    def phi(self, points: np.ndarray) -> np.ndarray:
        return self.phi_dphi(points, 0)[0]  # phi is the same for every axis

    def dphi(self, points: np.ndarray, axis: int) -> np.ndarray:
        return self.phi_dphi(points, axis)[1]

    def phi_dphi(self, points: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """phi and dphi/dx_axis at ``points``, sharing u, the support and the exponential."""
        pts = np.atleast_2d(points)
        u = self._u(pts)
        phi, dphi = np.zeros(u.shape), np.zeros(u.shape)
        m = u < 1.0
        um = u[m]
        phi[m] = e = np.exp(1.0 - 1.0 / (1.0 - um))
        dphi[m] = e * (-2.0 * (pts[m][:, axis] - self.center[axis]) / self.radius**2) / (1.0 - um) ** 2
        return phi, dphi

    def supported_inside(self, g: Grid) -> bool:
        return bool(
            np.all(self.center - self.radius > g.box_min)
            and np.all(self.center + self.radius < g.box_max)
        )


def finite_diff_gradient(f: VectorField) -> np.ndarray:
    """Finite-difference Jacobian, shape (num_cells, N, M): row i of a cell
    is df/dx_i there, central in the interior and one-sided at the boundary,
    so exact for componentwise-affine fields in the interior.

    Row i is np.gradient along axis i, written into J one cell's M values at
    a time as a single 8 M-byte item: np.stack(parts, axis=-2) gives the same
    bits but walks the short M axis element by element."""
    g = f.grid
    if g.ndim == 0:
        raise ValueError("finite differences need a grid with at least one axis")
    if np.any(g.resolution < 3):
        raise ValueError("finite differences need resolution >= 3 per axis")
    cube = f.values.reshape(*g.shape, f.dim_M)
    row = np.dtype((np.void, cube.itemsize * f.dim_M))

    def part(axis):
        with overflow_as_value_error(f"the field's finite differences along axis {axis} overflow float64"):
            d = np.gradient(cube, g.spacing[axis], axis=axis)
        # np.gradient keeps its input's memory order, so a Fortran-ordered
        # field gives a d whose M values per cell are not adjacent
        return np.ascontiguousarray(d).view(row).reshape(g.num_cells)

    # J is allocated after the first part, so memory never peaks above
    # stacking the parts; on a 1-D grid, J beside np.gradient's temporaries
    # added one J to the peak
    first = part(0)
    J = np.empty((g.num_cells, g.ndim, f.dim_M))
    rows = J.view(row)[..., 0]
    rows[:, 0] = first
    del first
    for axis in range(1, g.ndim):
        rows[:, axis] = part(axis)
    return J


def gradient_length(J: np.ndarray, tag: NormTag) -> np.ndarray:
    """(sum_i ||J[..., i, :]||^2)^(1/2) with value norm ``tag``, summed in axis
    order, for a Jacobian stack J of shape (..., N, M)."""
    sq = np.zeros(J.shape[:-2])
    with overflow_as_value_error("the gradient length of the field overflows float64"):
        norms = value_norm(J, tag)
        for i in range(J.shape[-2]):
            sq += norms[..., i] ** 2
    return np.sqrt(sq)


def w_norm(f: VectorField, p: float, J: np.ndarray | None = None, lp: float | None = None) -> float:
    """Sobolev norm ||f||_p + || |grad f| ||_p with the discrete gradient.

    J and lp are f's finite_diff_gradient and lp_norm(f, p), when the caller
    already has them; the result is the same bits either way.
    """
    require_exponent(p)
    length = gradient_length(finite_diff_gradient(f) if J is None else J, f.norm)
    return (lp_norm(f, p) if lp is None else lp) + scalar_lp_norm(ScalarField(grid=f.grid, values=length), p)


def _interior_mask(g: Grid) -> np.ndarray:
    """Flat mask of the cells that touch no face of the box."""
    mask = np.zeros(g.shape, dtype=bool)
    mask[(slice(1, -1),) * g.ndim] = True
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
    An empty battery is rejected: it would pass with no check at all.
    """
    require_check_tolerance(tol)
    g = f.grid
    if not all(np.array_equal(getattr(cand.grid, k), getattr(g, k)) for k in ("box_min", "box_max", "resolution")):
        raise ValueError("the candidate's grid (box_min, box_max, resolution) must equal the field's")
    if cand.norm is not f.norm or cand.dim_M != f.dim_M:
        raise ValueError("candidate must match the field's norm tag and dimension")
    if not 0 <= axis < g.ndim:
        raise ValueError("axis out of range")
    if not tests:
        raise ValueError("the bump battery must hold at least one bump")
    for t in tests:
        if t.center.shape != (g.ndim,):
            raise ValueError(f"bump center {t.center.tolist()} must have one coordinate per grid axis ({g.ndim})")
        if not t.supported_inside(g):
            raise ValueError("test-function support touches the grid boundary")
    # phi and dphi act cell by cell, so restricting their points to the
    # interior once gives the same bits as restricting every bump's values
    interior = _interior_mask(g)
    centers, fvals, cvals = g.cell_centers()[interior], f.values[interior], cand.values[interior]
    vol = g.cell_volume
    residuals, bounds = [], []
    for t in tests:
        phi, dphi = t.phi_dphi(centers, axis)
        lhs, rhs = vol * (dphi @ fvals), vol * (phi @ cvals)
        residuals.append(value_norm(lhs + rhs, f.norm))
        bounds.append(tol * (1.0 + max(value_norm(lhs, f.norm), value_norm(rhs, f.norm))))
    names = [f"bump_{i:02d}" for i in range(len(tests))]
    return Report(command="weak_derivative_check", checks=bounded_checks(names, residuals, bounds))


def _interpolate(g: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A cell-centred (num_cells, C) array interpolated multilinearly at (k, N)
    points, as a (k, C) array; C columns at once give the bits of C apart.

    Along an axis with centres c_0 < ... < c_{n-1}, a point x takes the
    interval [c_j, c_{j+1}] that holds it, clipped to the first or last, and
    the weight t = (x - c_j) / (c_{j+1} - c_j), left unclipped: in the
    half-cells along the box faces the neighbouring interval's linear formula
    extends to the face. An axis with a single cell is dropped, so the value
    does not depend on that coordinate. The 2^N corner terms are formed and
    summed in the order scipy's RegularGridInterpolator (linear,
    fill_value=None) uses, with the same arithmetic.
    """
    axes = [i for i in range(g.ndim) if g.resolution[i] > 1]
    cube = values.reshape(*(g.shape[i] for i in axes), values.shape[-1])
    ends = []  # per axis, the lower and the upper (index, weight)
    for c, x in zip((g.axis_centers(i) for i in axes), points[:, axes].T):
        j = np.clip(np.searchsorted(c, x, side="right") - 1, 0, len(c) - 2)
        t = (x - c[j]) / (c[j + 1] - c[j])
        ends.append([(j, 1 - t), (j + 1, t)])
    value = np.zeros((len(points), cube.shape[-1]))
    for corner in itertools.product(*ends):
        weight = np.ones(len(points))
        for _, w in corner:
            weight = weight * w
        value = value + cube[tuple(j for j, _ in corner)] * weight[:, None]
    return value


def _sample_curve(f: VectorField, c: Polyline, num_params: int) -> tuple:
    """The start both curve checks share: check that c has one coordinate per
    grid axis and stays in the box and that num_params >= 2, then return the
    num_params equispaced arc-length parameters, f interpolated at their
    points, which end the pieces, and the num_params - 1 consecutive pieces
    of c between them, packed by ``_cut_packed``; they stay in the box too."""
    _pack([c], f.grid)
    num_params = require_count(num_params, "num_params", 2)
    params = np.linspace(0.0, c.length, num_params)
    points, verts, counts = _cut_packed(c, params)
    return params, _interpolate(f.grid, f.values, points), verts, counts


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """The n Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=8)
def _pairs(n: int, k: int) -> tuple:
    """np.triu_indices(n, k), read-only."""
    a, b = np.triu_indices(n, k)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def ftc_along_curve_check(
    f: VectorField,
    G: np.ndarray,
    c: Polyline,
    tol: float,
    num_params: int = 8,
) -> Report:
    """Check f(c(t)) - f(c(s)) = int_s^t (G . tangent) along the curve, for a
    candidate gradient G of shape (num_cells, N, M), such as
    finite_diff_gradient(f).

    The integrals are exact for the interpolated gradient. Inside one cell
    of the lattice of cell centres, the multilinear interpolant restricted
    to a line is a polynomial of degree <= N, and in the half-cells along
    the box faces the interpolator extends the neighbouring cell's formula.
    So the num_params - 1 consecutive pieces of the curve are cut at the
    centre planes, each cut piece is integrated by Gauss-Legendre with
    N // 2 + 1 nodes, exact up to degree 2 (N // 2) + 1 >= N, and the
    integral over a pair's sub-curve is a difference of prefix sums.

    Also asserts the chain-rule bound ||(G . tangent)|| <= |G| at the
    quadrature nodes, which holds for the interpolated values exactly.
    Raises ValueError when an intermediate overflows float64.
    """
    require_check_tolerance(tol)
    g = f.grid
    shape = (g.num_cells, g.ndim, f.dim_M)
    if np.shape(G) != shape:
        raise ValueError(f"the gradient must have shape (num_cells, N, M) = {shape}, got {np.shape(G)}")
    if not np.all(np.isfinite(G)):
        raise ValueError("the gradient must be finite")
    # einsum ignores np.errstate; its sums overflow only where the squares
    # in gradient_length do, and invalid="raise" stops their NaNs first
    with overflow_as_value_error("the FTC check along the curve overflows float64", invalid="raise"):
        params, values, verts, counts = _sample_curve(f, c, num_params)
        piece, p, d, seg_len, t0, t1 = _split_segments(verts, counts, g.centre_planes)
        x, w = _gauss_legendre(g.ndim // 2 + 1)
        nodes = p[:, None, :] + (t0[:, None] + np.outer(t1 - t0, (1.0 + x) / 2))[:, :, None] * d[:, None, :]
        grads = _interpolate(g, np.reshape(G, (g.num_cells, -1)), nodes.reshape(-1, g.ndim)).reshape(*nodes.shape[:2], *shape[1:])
        tangent = d / seg_len[:, None]
        directional = sum(tangent[:, i, None, None] * grads[:, :, i] for i in range(g.ndim))
        integrals = np.zeros((num_params - 1, f.dim_M))
        np.add.at(integrals, piece, ((t1 - t0) * seg_len)[:, None] * np.einsum("j,kjm->km", w / 2, directional))
        prefix = np.concatenate([np.zeros((1, f.dim_M)), np.cumsum(integrals, axis=0)])
        a, b = _pairs(num_params, 1)
        residuals = value_norm(values[b] - values[a] - (prefix[b] - prefix[a]), f.norm)
        worst = float(np.max(value_norm(directional, f.norm) - gradient_length(grads, f.norm), initial=0.0))
    labels = [format(t, ".4g") for t in params.tolist()]
    names = [f"ftc[{labels[i]},{labels[j]}]" for i, j in zip(a.tolist(), b.tolist())]
    checks = bounded_checks(names, residuals, tol)
    chain_bound = 1e-12 * (1.0 + max(ck["value"] for ck in checks))
    checks.append(bounded_check("chain_rule_bound", worst, chain_bound))
    return Report(command="ftc_along_curve_check", checks=checks)
