"""Desk-scale witness of the Radon-Nikodym dichotomy.

The truncated family f(t) = (sin(nt)/n)_{n<=M} with sup-norm values is
1-Lipschitz for every M, so its R-norm stays uniformly bounded, while its
difference quotients develop a persistent sup-norm gap once the truncation
keeps pace with the step size: the finite-scale shadow of a Lipschitz curve
with no derivative.

``sin_family`` samples the family at the cell centres of a 1-D grid as a
linf ``VectorField`` whose ``dim_M`` is the truncation M; the Lipschitz
certificate reads those samples and ``noncauchy_gap`` reads M from them.
The quotients and their gaps are evaluated analytically rather than from
grid samples: the non-Cauchy phenomenon lives below any fixed grid scale
and sampling would alias it. The ladder's R-norm column is the library's
r_norm with the exact linf g* of the sampled family, cut at
min(M, 4 * resolution) coordinates. The cut changes no bit (proof above
_sin_family_r_norm), a rung holds resolution * min(M, 4 * resolution)
values, and rungs with the same cut share one computation.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .errors import require_exponent
from .geometry import Grid
from .report import Report, Series, bounded_check
from .reshetnyak import r_norm
from .vectorvalues import NormTag, VectorField, lp_norm

# Verdict lines emitted by dichotomy_report.
VERDICT_NON_CAUCHY = "R-side bounded, W-side quotients non-Cauchy"
VERDICT_RNP_LIKE = "RNP-like: quotients converge"
VERDICT_INCONCLUSIVE = "inconclusive"


def sin_family(M: int, resolution: int) -> VectorField:
    """Sample the truncated sin family at cell centers, sup-norm values; the
    field's dim_M is the truncation M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[resolution])
    t = grid.axis_centers(0)
    n = np.arange(1, M + 1, dtype=float)
    values = np.sin(np.outer(t, n)) / n
    return VectorField(grid=grid, values=values, norm=NormTag.LINF)


def lipschitz_certificate(f: VectorField) -> Report:
    """Largest sampled slope max |f(t)-f(s)| / |t-s| over grid-point pairs.

    On the uniform grid a chord slope is an average of the adjacent slopes it
    spans, so the maximum is attained by adjacent pairs and only those are
    formed. Each coordinate sin(nt)/n is 1-Lipschitz, so the certificate
    never exceeds 1; for M >= 8 the bound is close to attained.
    """
    if f.grid.ndim != 1:
        raise ValueError(f"the Lipschitz certificate needs a field on a 1-D grid, got {f.grid.ndim}-D")
    t = f.grid.axis_centers(0)
    slopes = np.abs(np.diff(f.values, axis=0)) * (1.0 / np.abs(np.diff(t)))[:, None]
    cert = float(np.max(slopes))
    checks = [bounded_check("lipschitz_upper", cert, 1.0 + 1e-9)]
    if f.dim_M >= 8:
        checks.append(bounded_check("lipschitz_attained", cert, 0.9, lower=True))
    return Report(command="lipschitz_certificate", checks=checks, meta={"M": f.dim_M})


def _quotient(M: int, t: float, h: float) -> np.ndarray:
    """(f(t+h) - f(t)) / h of the first M coordinates, evaluated analytically."""
    n = np.arange(1, M + 1, dtype=float)
    return (np.sin(n * (t + h)) - np.sin(n * t)) / (n * h)


def _quotient_gap(M: int, t: float, h: float, hprime: float) -> float:
    """max_n |q_n(h) - q_n(hprime)| over the first M coordinates, for
    0 < hprime < h; t + hprime lies between t and t + h, so checking the
    window of h covers both."""
    if not (0.0 < t < 1.0 and 0.0 < t + h < 1.0):
        raise ValueError("need t and t+h inside (0, 1)")
    return float(np.max(np.abs(_quotient(M, t, h) - _quotient(M, t, hprime))))


def noncauchy_gap(f: VectorField, t: float, h: float, hprime: float) -> float:
    """Sup-norm distance between the quotients at steps h and hprime of the
    sin family truncated at f.dim_M coordinates.

    With hprime = h/2 and M >= ceil(10/hprime) the tail coordinates are
    represented and the gap stays bounded away from zero as h decreases:
    the witness that the quotient limit does not exist in the sup norm.
    For fixed M the gap vanishes with h (finite dimension has the
    Radon-Nikodym property).
    """
    if not (0.0 < hprime < h):
        raise ValueError("need 0 < hprime < h")
    return _quotient_gap(f.dim_M, t, h, hprime)


# Cutting the family at 4 * resolution coordinates changes no bit of the
# R-norm. Let R = resolution >= 16, h = 1/R and n > 4R; cell centers lie in
# [h/2, 1 - h/2], inside (0, pi/2).
# - Values: |sin(nt)/n| <= 1/n < 1/(4R), while the n = 1 value is
#   sin t >= sin(h/2) > 1/(4R) in every cell.
# - Stencils: every np.gradient stencil of coordinate n (central or
#   one-sided) is at most 2/(n h) = 2R/n < 1/2. The n = 1 stencil is
#   cos(t) sin(h)/h in the interior and cos(h) sin(h/2)/(h/2) and
#   cos(1 - h) sin(h/2)/(h/2) at the two ends, so at least
#   cos(1) sin(h)/h > 0.539 in every cell.
# Both gaps dwarf rounding error, so every per-cell maximum of |f| and of
# the stencils is attained by a kept coordinate, and lp_norm, g* and the
# R-norm are bit-identical to those of the uncut family.
def _sin_family_r_norm(M: int, resolution: int, p: float) -> tuple[float, float]:
    """(lp_norm, r_norm) of the truncated family, through the exact linf g*
    of its first min(M, 4 * resolution) coordinates."""
    f = sin_family(min(M, 4 * resolution), resolution)
    return lp_norm(f, p), r_norm(f, p)


def dichotomy_gap_floor() -> dict:
    """Bundled fixture: per-rung gaps measured by the brute-force coordinate
    sweep before the build, and the recorded floor c0."""
    text = resources.files("modlab").joinpath("fixtures/dichotomy_c0.json").read_text()
    return json.loads(text)


def dichotomy_report(
    t: float,
    h_ladder,
    p: float = 2.0,
    resolution: int = 512,
    fixed_M: int | None = None,
    gap_floor: float | None = None,
) -> Report:
    """Per-rung R-norms and quotient gaps of the sin family, with a verdict.

    Scaled mode (default) grows the truncation as M = ceil(10/hprime) with
    hprime = h/2, so every rung represents the quotient tail; ``fixed_M``
    freezes the truncation instead (the finite-dimensional control). The
    verdict reads "R-side bounded, W-side quotients non-Cauchy" when the
    R-norm column stays within 5% and below ||f||_p + 1 while the gap column
    does not decay; strong gap decay yields "RNP-like: quotients converge".
    """
    require_exponent(p)
    ladder = [float(h) for h in h_ladder]
    if not ladder:
        raise ValueError("h_ladder must hold at least one step")
    if fixed_M is not None and fixed_M < 1:
        raise ValueError(f"fixed_M must be >= 1, got {fixed_M}")
    if any(not h > 0.0 for h in ladder):
        raise ValueError("every step h of h_ladder must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    rows = []
    norms = {}  # rungs with the same cut sample the same family: one computation per cut
    for h in ladder:
        hprime = h / 2.0
        M = fixed_M if fixed_M is not None else math.ceil(10.0 / hprime)
        gap = _quotient_gap(M, t, h, hprime)
        cut = min(M, 4 * resolution)
        if cut not in norms:
            norms[cut] = _sin_family_r_norm(cut, resolution, p)
        lp, r = norms[cut]
        rows.append([h, hprime, float(M), gap, r, lp])
    gaps = [row[3] for row in rows]
    rvals = [row[4] for row in rows]
    lpvals = [row[5] for row in rows]
    r_bounded = all(r <= lp + 1.0 + 1e-6 for r, lp in zip(rvals, lpvals))
    r_constant = max(rvals) <= 1.05 * min(rvals)
    decayed = gaps[-1] <= 0.1 * gaps[0]
    persistent = gaps[-1] >= 0.5 * gaps[0]
    if r_bounded and r_constant and persistent:
        verdict = VERDICT_NON_CAUCHY
    elif decayed:
        verdict = VERDICT_RNP_LIKE
    else:
        verdict = VERDICT_INCONCLUSIVE
    # both R-norm verdicts are the ladder's own tests: rung by rung, and
    # max <= 1.05 * min rather than max / min <= 1.05
    checks = [
        bounded_check("r_norm_bounded", max(rvals), max(lp + 1.0 + 1e-6 for lp in lpvals), passed=r_bounded),
        bounded_check("r_norm_constant_5pct", max(rvals) / min(rvals), 1.05, passed=r_constant),
    ]
    if gap_floor is not None:
        checks.append(bounded_check("gap_floor", min(gaps), gap_floor, lower=True))
    return Report(
        command="dichotomy_report",
        checks=checks,
        series=[
            Series(
                name="dichotomy",
                columns=["h", "hprime", "M", "gap", "r_norm", "lp_norm"],
                rows=rows,
            )
        ],
        meta={"t": t, "p": p, "resolution": resolution, "fixed_M": fixed_M, "verdict": verdict},
    )
