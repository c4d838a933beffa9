"""Sobolev-Reshetnyak side: the minimal upper-bound function g*, the
R-norm, the sqrt(N) norm equivalence, and the absolute-continuity bound
along curves.

g* is defined as the pointwise supremum of |grad <v, f>| over the dual unit
ball, and it is computed from the Jacobian alone, with no functional
formed. The gradients of the pairings are linear in v, so the supremum of
their Euclidean lengths is convex and attained at extreme points. For linf
values these are the signed coordinate functionals and g* is the largest
column length; for l2 values it is the Jacobian's dominant singular value,
in closed form when min(N, M) = 2 and from eigvalsh above that.
For l1 values g* is the largest norm on the zonotope sum_i [-j_i, j_i] of
the Jacobian's columns, exact for every M and every grid dimension:
sum_i |j_i| on 1-D grids, a walk over the zonotope's vertices on 2-D grids,
and that walk recursed onto the facet hyperplanes of the columns'
arrangement on grids with N >= 3 axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import overflow_as_value_error, require_check_tolerance, require_exponent
from .geometry import Polyline, ScalarField, _pack, _packed_integrals
from .report import Report, bounded_check, bounded_checks
from .sobolev import _pairs, _sample_curve, finite_diff_gradient, w_norm
from .vectorvalues import NormTag, VectorField, _max_last_axis, lp_norm, scalar_lp_norm, value_norm

# A column whose projection onto a facet hyperplane is at most this times n
# of its length counts as parallel to the facet's normal (n the dimension).
_PARALLEL_TOL = 8 * np.finfo(float).eps

# How each value norm's dual supremum is realized, as reports name it.
_GSTAR_MODE = {NormTag.L1: "exact-extreme-points", NormTag.L2: "spectral", NormTag.LINF: "exact-extreme-points"}


@dataclass
class UpperBoundField:
    """g* >= 0 together with how the dual supremum was realized."""

    gstar: ScalarField
    dual_set_descriptor: str
    exact: bool


def _spectral_norms(J: np.ndarray) -> np.ndarray:
    """Dominant singular value per cell: the root of the largest eigenvalue
    of the min(N, M) x min(N, M) Gram matrix.

    A 2 x 2 Gram matrix [[a, b], [b, c]] of two vectors x, y (J's rows for
    N = 2, its columns for M = 2) has the largest eigenvalue
    (a + c)/2 + hypot((a - c)/2, b), taken in closed form. a and c are
    halved before they are added, so nothing overflows unless that eigenvalue
    or a squared entry does, and hypot keeps ((a - c)/2)^2 + b^2 from
    underflowing, which at Jacobians of 1e-100 left g* 29 % low. Larger Gram
    matrices go to eigvalsh.
    """
    _, n, m = J.shape
    if min(n, m) == 1:
        return np.sqrt(np.sum(J * J, axis=(1, 2)))
    if min(n, m) == 2:
        # the two vectors first and the cells last, so each sum runs over rows
        x, y = np.ascontiguousarray(J.transpose(1, 2, 0) if n == 2 else J.transpose(2, 1, 0))
        a = np.add.reduce(x * x, axis=0) / 2.0
        c = np.add.reduce(y * y, axis=0) / 2.0
        return np.sqrt(a + c + np.hypot(a - c, np.add.reduce(x * y, axis=0)))
    if m <= n:
        G = np.einsum("cim,cin->cmn", J, J)
    else:
        G = np.einsum("cim,cjm->cij", J, J)
    if not np.all(np.isfinite(G)):
        # einsum ignores np.errstate, so its overflow is raised here
        raise FloatingPointError("overflow in the Gram matrix")
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0))


def _walk(P: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The planar walk: per cell, vertices v_0..v_{M-1} of the zonotope
    sum_i [-j_i, j_i] whose +-v_k include every vertex, shape (N, cells, M).

    P, shape (2, cells, M), holds the columns' plane coordinates p_i, and
    J, shape (N, cells, M), the columns j_i themselves.
    The vertex exposed by a direction u (no column orthogonal to u) is sum_i
    sign(<p_i, u>) j_i. Flip each column so that its p_i lies in the upper
    half-plane, w_i = sigma_i j_i with angle in [0, pi), and sort by that
    angle. For u at angle phi in [0, pi), <sigma_i p_i, u> > 0 exactly for
    the angles below phi + pi/2 when phi < pi/2 and for those above
    phi - pi/2 otherwise: a prefix or a suffix of the sorted order. So every
    vertex is +-v_k with v_k = sum_{i<=k} w_i - sum_{i>k} w_i, k = 0..M
    (directions in [pi, 2 pi) negate these), and v_M = -v_0. Tied or zero
    columns (a zero column may sort anywhere) only add splits inside a tie
    group; each such v_k is still J s for a sign vector s, so it is a lower
    bound and removes no vertex. The walk is O(M log M) per cell. With
    P = J its roundoff is about 3 M eps sum_i ||j_i|| against the exact
    maximum, and it differs from the sign-vector enumeration, which sums in
    another order, by at most 4 (M + 2) eps sum_i ||j_i||.
    """
    x, y = P[0], P[1]
    sigma = np.where((y < 0.0) | ((y == 0.0) & (x < 0.0)), -1.0, 1.0)
    w = P * sigma
    order = np.argsort(np.arctan2(w[1], w[0]), axis=1, kind="stable")
    w = np.take_along_axis(J * sigma, order[None], axis=2)
    start = -w.sum(axis=2, keepdims=True)
    return np.concatenate([start, start + 2.0 * np.cumsum(w[:, :, :-1], axis=2)], axis=2)


def _facet_l1_gstar(P: np.ndarray, J: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per cell, max over s in {-1, 1}^M of ||J s||, for columns in n >= 2 dimensions.

    P, shape (n, cells, M), holds the columns' coordinates in the subspace
    the recursion has reached; J, shape (N, cells, M), the columns they sum;
    offsets, shape (K, N, cells), the sums fixed on the way down, a set
    closed under negation.

    The vertices of Z = sum_i [-j_i, j_i] are sum_i s_i j_i, with s the sign
    vector of a region of the arrangement of the hyperplanes p_i^perp. Every
    region has a facet on some p_a^perp. Just beside a point x inside that
    facet, the columns parallel to p_a take the signs +-sign(<p_i, p_a>), by
    the side, and the others take the signs of <q_i, x> for their
    projections q_i onto p_a^perp: a region of that arrangement, one
    dimension lower. So for each column a, a Householder reflection of p_a
    gives coordinates in p_a^perp, the columns parallel to p_a are masked,
    their sum g = sum_i sign(<p_i, p_a>) j_i joins the offsets as +-g, and
    the recursion reaches the plane, whose walk lists every region as
    +-v_k. Every candidate o + v_k is J s for some s in {-1, 0, 1}^M, at
    most g* by convexity, so the maximum is g*: O(M^(N-1) log M) per cell.

    A column counts as parallel when its projection is at most
    _PARALLEL_TOL n of its length, the size of the errors a reflection
    leaves in the coordinates; with an exact zero test those errors would
    set the signs of near-parallel columns, p_a's own included, and random
    3-D columns came out up to 14 % low. The reflections are backward stable
    column by column, so the signs are exact for columns moved by O(N eps)
    of their lengths, which moves g* by O(N eps) sum_i ||j_i|| per level;
    the sums run over the unmoved columns. Against the enumeration the
    result stays within the planar walk's 4 (M + 2) eps sum_i ||j_i||.
    """
    n = P.shape[0]
    if n == 2:
        v = _walk(P, J)
        best = np.zeros(J.shape[1])
        for o in offsets:
            d = o[:, :, None] + v
            best = np.maximum(best, _max_last_axis(np.sum(d * d, axis=0)))
        return np.sqrt(best)
    lengths = np.sqrt(np.sum(P * P, axis=0))
    best = np.zeros(J.shape[1])
    for a in range(P.shape[2]):
        p = P[:, :, a]
        # H = I - 2 u u^T / u^T u maps p onto the first axis, so rows 1..n-1
        # of H P are coordinates in p^perp; H = I where p is a masked column
        u = p.copy()
        u[0] += np.copysign(lengths[:, a], p[0])
        uu = np.sum(u * u, axis=0)
        scale = np.divide(2.0, uu, out=np.zeros_like(uu), where=uu > 0.0)
        Q = (P - u[:, :, None] * (scale[:, None] * np.einsum("nc,ncm->cm", u, P)))[1:]
        parallel = np.sqrt(np.sum(Q * Q, axis=0)) <= _PARALLEL_TOL * n * lengths
        g = np.einsum("ncm,cm->nc", J, np.where(parallel, np.sign(np.einsum("nc,ncm->cm", p, P)), 0.0))
        below = _facet_l1_gstar(
            np.where(parallel, 0.0, Q), np.where(parallel, 0.0, J), np.concatenate([offsets + g, offsets - g])
        )
        best = np.maximum(best, below)
    return best


def _l1_gstar(J: np.ndarray) -> np.ndarray:
    """Per cell, max over s in {-1, 1}^M of ||J s|| for J of shape (cells, N, M):
    sum_i |j_i| for N = 1, and for N >= 2 _facet_l1_gstar from one zero
    offset, which is the walk's largest vertex for N = 2."""
    if J.shape[1] == 1:
        return np.sum(np.abs(J[:, 0, :]), axis=1)
    J = J.transpose(1, 0, 2)
    return _facet_l1_gstar(J, J, np.zeros((1, *J.shape[:2])))


def upper_gradient_star(f: VectorField, J: np.ndarray | None = None) -> UpperBoundField:
    """Pointwise sup over the dual ball of |grad <v, f>|, exact in every mode.

    linf values: the signed coordinate functionals. l2 values: the Jacobian
    spectral norm. l1 values: sum_i |J_i| on 1-D grids, the zonotope vertex
    walk on 2-D grids and its facet recursion for N >= 3. J is f's
    finite_diff_gradient, when the caller already has it. Raises ValueError
    when an intermediate, such as a squared Jacobian entry, overflows float64.
    """
    if J is None:
        J = finite_diff_gradient(f)
    with overflow_as_value_error(f"computing the {f.norm.value} g* of the field overflows float64"):
        if f.norm is NormTag.L2:
            gstar = _spectral_norms(J)
        elif f.norm is NormTag.L1:
            gstar = _l1_gstar(J)
        elif f.grid.ndim == 1:
            # sqrt(fl(x * x)) == |x| in binary64 unless x * x under- or overflows
            gstar = _max_last_axis(np.abs(J[:, 0, :]))
        else:
            gstar = _max_last_axis(np.sqrt(np.sum(J * J, axis=1)))
    return UpperBoundField(
        gstar=ScalarField(grid=f.grid, values=gstar),
        dual_set_descriptor=_GSTAR_MODE[f.norm],
        exact=True,
    )


def r_norm(f: VectorField, p: float) -> float:
    """Reshetnyak norm ||f||_p + ||g*||_p.

    g* is pointwise minimal, so this realizes the infimum over admissible
    majorants of the discrete model. g* is computed before the L^p norm, so
    when both overflow, g*'s overflow is the one reported.
    """
    require_exponent(p)
    gstar = upper_gradient_star(f).gstar
    return lp_norm(f, p) + scalar_lp_norm(gstar, p)


def norm_equivalence_check(f: VectorField, p: float, tol: float = 1e-9) -> Report:
    """Check ||f||_R <= ||f||_W <= sqrt(N) ||f||_R on the discrete model.

    Both inequalities are checked for every value norm, M and N, since g* is
    exact in every mode. The Jacobian and ||f||_p are computed once and
    handed to both sides, in the order J, g*, ||f||_p, R, W, so an overflow
    is reported as r_norm and w_norm would report it. The meta records
    ||f||_p as ``lp``.
    """
    require_exponent(p)
    require_check_tolerance(tol)
    J = finite_diff_gradient(f)
    gstar = upper_gradient_star(f, J).gstar
    lp = lp_norm(f, p)
    r = lp + scalar_lp_norm(gstar, p)
    w = w_norm(f, p, J, lp)
    sqrt_n = float(np.sqrt(f.grid.ndim))
    return Report(
        command="norm_equivalence_check",
        checks=[bounded_check("r_le_w", r, w + tol), bounded_check("w_le_sqrtN_r", w, sqrt_n * r + tol)],
        meta={
            "w_norm": w,
            "r_norm": r,
            "ratio": w / r if r > 0 else float("nan"),
            "sqrtN": sqrt_n,
            "gstar_mode": _GSTAR_MODE[f.norm],
            "one_sided": False,
            "lp": lp,
        },
    )


def ac_bound_check(
    f: VectorField,
    g: ScalarField,
    c: Polyline,
    tol: float,
    num_params: int = 12,
) -> Report:
    """Check ||f(c(t)) - f(c(s))|| <= int over c|[s,t] of g, for sampled pairs.

    This is the computable face of absolute continuity along the curve: the
    increments of f are dominated by the integral of the fixed majorant g.
    Raises ValueError when an intermediate overflows float64.
    """
    require_check_tolerance(tol)
    if np.any(g.values < 0.0):
        raise ValueError("the majorant g must be nonnegative")
    # f and g are finite; an inf from the integrals, which overflow
    # without raising, turns into a NaN in the pairs (a, a)
    with overflow_as_value_error("the AC bound check along the curve overflows float64", invalid="raise"):
        params, values, verts, counts = _sample_curve(f, c, num_params)
        if g.grid is not f.grid:  # the pieces lie in c's hull, so c is checked in g's box
            _pack([c], g.grid)
        # integral of g over c|[params[a], params[b]] is prefix[b] - prefix[a]
        prefix = np.concatenate([[0.0], np.cumsum(_packed_integrals(g, verts, counts))])
        a, b = _pairs(num_params, 0)
        increments = value_norm(values[b] - values[a], f.norm)
        bounds = prefix[b] - prefix[a] + tol
    labels = [format(t, ".4g") for t in params.tolist()]
    names = [f"ac[{labels[i]},{labels[j]}]" for i, j in zip(a.tolist(), b.tolist())]
    return Report(command="ac_bound_check", checks=bounded_checks(names, increments, bounds))
