"""Desk-scale witness of the Radon-Nikodym dichotomy.

The truncated family f(t) = (sin(nt)/n)_{n<=M} with sup-norm values is
1-Lipschitz for every M, so its R-norm stays uniformly bounded, while its
difference quotients develop a persistent sup-norm gap once the truncation
keeps pace with the step size: the finite-scale shadow of a Lipschitz curve
with no derivative. Everything here is evaluated analytically rather than
from grid samples; the non-Cauchy phenomenon lives below any fixed grid
scale and sampling would alias it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .geometry import Grid
from .report import CheckRecord, Report, Series
from .vectorvalues import NormTag, VectorField, scalar_lp_norm
from .geometry import ScalarField

# coordinates per chunk in _sin_family_r_norm, so its temporaries stay in warm memory
_COORD_CHUNK = 2048

# Verdict lines emitted by dichotomy_report.
VERDICT_NON_CAUCHY = "R-side bounded, W-side quotients non-Cauchy"
VERDICT_RNP_LIKE = "RNP-like: quotients converge"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass
class SinFamilyField:
    """Truncation of t -> (sin(nt)/n)_n on (0,1), carried with its samples."""

    M: int
    field: VectorField

    @property
    def grid(self) -> Grid:
        return self.field.grid


def sin_family(M: int, resolution: int) -> SinFamilyField:
    """Sample the truncated sin family at cell centers, sup-norm values."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[resolution])
    t = grid.axis_centers(0)
    n = np.arange(1, M + 1, dtype=float)
    values = np.sin(np.outer(t, n)) / n
    return SinFamilyField(M=M, field=VectorField(grid=grid, values=values, norm=NormTag.LINF))


def lipschitz_certificate(f: SinFamilyField, tol: float = 1e-9) -> Report:
    """Largest sampled slope max |f(t)-f(s)| / |t-s| over grid-point pairs.

    On the uniform grid a chord slope is an average of the adjacent slopes it
    spans, so the maximum is attained by adjacent pairs and only those are
    formed. Each coordinate sin(nt)/n is 1-Lipschitz, so the certificate
    never exceeds 1; for M >= 8 the bound is close to attained.
    """
    t = f.grid.axis_centers(0)
    slopes = np.abs(np.diff(f.field.values, axis=0)) * (1.0 / np.abs(np.diff(t)))[:, None]
    cert = float(np.max(slopes))
    checks = [
        CheckRecord(
            name="lipschitz_upper",
            value=cert,
            bound=1.0 + tol,
            margin=float(1.0 + tol - cert),
            passed=bool(cert <= 1.0 + tol),
        )
    ]
    if f.M >= 8:
        checks.append(
            CheckRecord(
                name="lipschitz_attained",
                value=cert,
                bound=0.9,
                margin=float(cert - 0.9),
                passed=bool(cert >= 0.9),
            )
        )
    return Report(command="lipschitz_certificate", checks=checks, meta={"M": f.M})


def _quotient(M: int, t: float, h: float) -> np.ndarray:
    n = np.arange(1, M + 1, dtype=float)
    return (np.sin(n * (t + h)) - np.sin(n * t)) / (n * h)


def _check_window(t: float, h: float) -> None:
    if not (0.0 < t < 1.0 and 0.0 < t + h < 1.0):
        raise ValueError("need t and t+h inside (0, 1)")
    if h == 0.0:
        raise ValueError("step h must be nonzero")


def _quotient_gap(M: int, t: float, h: float, hprime: float) -> float:
    """max_n |q_n(h) - q_n(hprime)| over the first M coordinates; t + hprime
    lies between t and t + h, so checking the window of h covers both."""
    _check_window(t, h)
    return float(np.max(np.abs(_quotient(M, t, h) - _quotient(M, t, hprime))))


def difference_quotient(f: SinFamilyField, t: float, h: float) -> np.ndarray:
    """(f(t+h) - f(t)) / h evaluated analytically, coordinate n = cos-like."""
    _check_window(t, h)
    return _quotient(f.M, t, h)


def noncauchy_gap(f: SinFamilyField, t: float, h: float, hprime: float) -> float:
    """Sup-norm distance between the quotients at steps h and hprime.

    With hprime = h/2 and M >= ceil(10/hprime) the tail coordinates are
    represented and the gap stays bounded away from zero as h decreases:
    the witness that the quotient limit does not exist in the sup norm.
    For fixed M the gap vanishes with h (finite dimension has the
    Radon-Nikodym property).
    """
    if not (0.0 < hprime < h):
        raise ValueError("need 0 < hprime < h")
    return _quotient_gap(f.M, t, h, hprime)


def _sin_family_r_norm(M: int, resolution: int, p: float) -> tuple[float, float]:
    """(lp_norm, r_norm) of the truncated family, chunked over coordinates.

    Matches r_norm(upper_gradient_star) on the sampled field bit for bit
    (same centered/one-sided difference stencils, same sup over the signed
    coordinate functionals) without materializing resolution x M values.
    """
    grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[resolution])
    t = grid.axis_centers(0)
    h = grid.spacing[0]
    fnorm = np.zeros(resolution)
    gstar = np.zeros(resolution)
    for lo in range(1, M + 1, _COORD_CHUNK):
        hi = min(M, lo + _COORD_CHUNK - 1)
        n = np.arange(lo, hi + 1, dtype=float)
        vals = np.sin(np.outer(t, n)) / n
        fnorm = np.maximum(fnorm, np.max(np.abs(vals), axis=1))
        deriv = np.gradient(vals, h, axis=0)
        gstar = np.maximum(gstar, np.max(np.abs(deriv), axis=1))
    lp = scalar_lp_norm(ScalarField(grid=grid, values=fnorm), p)
    glp = scalar_lp_norm(ScalarField(grid=grid, values=gstar), p)
    return lp, lp + glp


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
    ladder = [float(h) for h in h_ladder]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    if 0.0 in ladder:
        raise ValueError("step h must be nonzero")
    if not ladder:
        return Report(command="dichotomy_report", meta={"verdict": "empty ladder"})
    rows = []
    for h in ladder:
        hprime = h / 2.0
        M = fixed_M if fixed_M is not None else math.ceil(10.0 / hprime)
        gap = _quotient_gap(M, t, h, hprime)
        lp, r = _sin_family_r_norm(M, resolution, p)
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
    checks = [
        CheckRecord(
            name="r_norm_bounded",
            value=max(rvals),
            bound=max(lp + 1.0 + 1e-6 for lp in lpvals),
            margin=float(max(lp + 1.0 + 1e-6 for lp in lpvals) - max(rvals)),
            passed=r_bounded,
        ),
        CheckRecord(
            name="r_norm_constant_5pct",
            value=max(rvals) / min(rvals),
            bound=1.05,
            margin=float(1.05 - max(rvals) / min(rvals)),
            passed=r_constant,
        ),
    ]
    if gap_floor is not None:
        checks.append(
            CheckRecord(
                name="gap_floor",
                value=min(gaps),
                bound=gap_floor,
                margin=float(min(gaps) - gap_floor),
                passed=bool(min(gaps) >= gap_floor),
            )
        )
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
