"""Sobolev-Reshetnyak side: scalarizations over the dual ball, the minimal
upper-bound function g*, the R-norm, the sqrt(N) norm equivalence, and the
absolute-continuity bound along curves.

g* is the pointwise supremum of |grad <v, f>| over the dual unit ball. The
gradients of scalarizations are linear in the functional, so the supremum of
their Euclidean lengths is convex and attained at extreme points; for linf
and l1 values (small M) the extreme sets are finite and g* is exact, for l2
values it is the Jacobian's dominant singular value. When no exact mode
applies, a sampled dual set yields a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Polyline, ScalarField, cell_length_rows, restrict
from .report import CheckRecord, Report
from .sobolev import _interpolators, finite_diff_gradient, w_norm
from .vectorvalues import (
    L1_EXACT_MAX_DIM,
    NormTag,
    VectorField,
    lp_norm,
    sampled_dual_functionals,
    scalar_lp_norm,
    value_norm,
)

_DIRECTION_BLOCK = 1024
DEFAULT_SAMPLE_COUNT = 256


@dataclass
class UpperBoundField:
    """g* >= 0 together with how the dual supremum was realized."""

    gstar: ScalarField
    dual_set_descriptor: str
    exact: bool


def _jacobian(f: VectorField) -> np.ndarray:
    """Stacked finite-difference Jacobian, shape (num_cells, N, M)."""
    G = finite_diff_gradient(f)
    return np.stack([comp.values for comp in G.components], axis=1)


def _spectral_norms(J: np.ndarray) -> np.ndarray:
    """Dominant singular value per cell: the root of the largest eigenvalue
    of the min(N, M) x min(N, M) Gram matrix."""
    _, n, m = J.shape
    if min(n, m) == 1:
        return np.sqrt(np.sum(J * J, axis=(1, 2)))
    if m <= n:
        G = np.einsum("cim,cin->cmn", J, J)
    else:
        G = np.einsum("cim,cjm->cij", J, J)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0))


def _sup_over_directions(J: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per cell, max over the columns v of ``directions`` of ||J v||.

    Columns are taken in blocks of _DIRECTION_BLOCK so the (cells, N, block)
    temporary stays bounded however many directions there are.
    """
    gstar = np.zeros(J.shape[0])
    for lo in range(0, directions.shape[1], _DIRECTION_BLOCK):
        directional = np.einsum("cim,ms->cis", J, directions[:, lo : lo + _DIRECTION_BLOCK])
        gstar = np.maximum(gstar, np.sqrt(np.sum(directional**2, axis=1)).max(axis=1))
    return gstar


def upper_gradient_star(
    f: VectorField,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> UpperBoundField:
    """Pointwise sup over the dual ball of |grad <v, f>|.

    linf values: exact via the signed coordinate functionals. l2 values:
    exact via the Jacobian spectral norm. l1 values with M <= 16: exact via
    sign vectors; larger M falls back to a sampled lower bound, recorded in
    the descriptor.
    """
    J = _jacobian(f)
    if f.norm is NormTag.LINF:
        gstar = np.max(np.sqrt(np.sum(J * J, axis=1)), axis=1)
        return UpperBoundField(
            gstar=ScalarField(grid=f.grid, values=gstar),
            dual_set_descriptor="exact-extreme-points",
            exact=True,
        )
    if f.norm is NormTag.L2:
        return UpperBoundField(
            gstar=ScalarField(grid=f.grid, values=_spectral_norms(J)),
            dual_set_descriptor="spectral",
            exact=True,
        )
    if f.dim_M <= L1_EXACT_MAX_DIM:
        signs = np.array(
            np.meshgrid(*([[1.0, -1.0]] * (f.dim_M - 1)), indexing="ij")
        ).reshape(f.dim_M - 1, -1) if f.dim_M > 1 else np.empty((0, 1))
        # fix the first coordinate at +1; the sup is sign-symmetric
        S = np.vstack([np.ones(signs.shape[1]), signs])
        return UpperBoundField(
            gstar=ScalarField(grid=f.grid, values=_sup_over_directions(J, S)),
            dual_set_descriptor="exact-extreme-points",
            exact=True,
        )
    return sampled_upper_gradient(f, sample_count=sample_count, seed=seed, fallback=True)


def sampled_upper_gradient(
    f: VectorField,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    fallback: bool = False,
) -> UpperBoundField:
    """Certified lower bound of g* from a sampled dual set."""
    sample = sampled_dual_functionals(f.norm, f.dim_M, sample_count, seed=seed)
    # a transposed view keeps each direction contiguous, so every ||J v|| sums
    # in the same order as for the lone vector v
    directions = np.stack([v.coeffs for v in sample]).T
    gstar = _sup_over_directions(_jacobian(f), directions)
    tagline = f"sampled(count={sample_count},seed={seed})"
    if fallback:
        tagline += " [warning: exact mode unsupported, lower bound only]"
    return UpperBoundField(
        gstar=ScalarField(grid=f.grid, values=gstar),
        dual_set_descriptor=tagline,
        exact=False,
    )


def r_norm(f: VectorField, p: float, gstar: UpperBoundField | None = None) -> float:
    """Reshetnyak norm ||f||_p + ||g*||_p.

    In exact g* modes this realizes the infimum over admissible majorants of
    the discrete model (g* is pointwise minimal); in sampled mode the result
    is a lower bound of the true norm.
    """
    if p < 1.0:
        raise ValueError("r_norm requires p >= 1")
    if gstar is None:
        gstar = upper_gradient_star(f)
    return lp_norm(f, p) + scalar_lp_norm(gstar.gstar, p)


def norm_equivalence_check(
    f: VectorField,
    p: float,
    tol: float = 1e-9,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> Report:
    """Check ||f||_R <= ||f||_W <= sqrt(N) ||f||_R on the discrete model.

    With a sampled (lower bound) g* the second inequality is not decidable
    and the check downgrades to the one-sided r_lower <= w with a flag;
    ``sample_count`` and ``seed`` steer that fallback mode only.
    """
    ub = upper_gradient_star(f, sample_count=sample_count, seed=seed)
    w = w_norm(f, p)
    r = r_norm(f, p, gstar=ub)
    sqrt_n = float(np.sqrt(f.grid.ndim))
    checks = [
        CheckRecord(
            name="r_le_w" if ub.exact else "r_lower_le_w",
            value=r,
            bound=w + tol,
            margin=float(w + tol - r),
            passed=bool(r <= w + tol),
        )
    ]
    if ub.exact:
        checks.append(
            CheckRecord(
                name="w_le_sqrtN_r",
                value=w,
                bound=sqrt_n * r + tol,
                margin=float(sqrt_n * r + tol - w),
                passed=bool(w <= sqrt_n * r + tol),
            )
        )
    return Report(
        command="norm_equivalence_check",
        checks=checks,
        meta={
            "w_norm": w,
            "r_norm": r,
            "ratio": w / r if r > 0 else float("nan"),
            "sqrtN": sqrt_n,
            "gstar_mode": ub.dual_set_descriptor,
            "one_sided": not ub.exact,
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
    """
    grid = f.grid
    if not grid.contains(c.vertices):
        raise DomainError("curve exits the grid box")
    if np.any(g.values < 0.0):
        raise ValueError("the majorant g must be nonnegative")
    (interp,) = _interpolators(grid, [f.values])
    params = np.linspace(0.0, c.length, num_params)
    values = interp(c.points_at(params))
    # integral of g over c|[params[a], params[b]] is prefix[b] - prefix[a]
    pieces = [restrict(c, s, t) for s, t in zip(params[:-1], params[1:])]
    prefix = np.concatenate([[0.0], np.cumsum(cell_length_rows(pieces, g.grid) @ g.values)])
    checks = []
    for a in range(len(params)):
        for b in range(a, len(params)):
            s, t = float(params[a]), float(params[b])
            increment = value_norm(values[b] - values[a], f.norm)
            bound = prefix[b] - prefix[a] + tol
            checks.append(
                CheckRecord(
                    name=f"ac[{s:.4g},{t:.4g}]",
                    value=float(increment),
                    bound=float(bound),
                    margin=float(bound - increment),
                    passed=bool(increment <= bound),
                )
            )
    return Report(command="ac_bound_check", checks=checks)
