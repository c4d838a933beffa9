"""Desk-scale witness of the Radon-Nikodym dichotomy.

The truncated family f(t) = (sin(nt)/n)_{n<=M} with sup-norm values is
1-Lipschitz for every M, so its R-norm stays uniformly bounded, while its
difference quotients develop a persistent sup-norm gap once the truncation
keeps pace with the step size: the finite-scale shadow of a Lipschitz curve
with no derivative.

``sin_family`` samples the family at the cell centres of a 1-D grid as a
linf ``VectorField`` whose ``dim_M`` is the truncation M, and the Lipschitz
certificate reads those samples; ``noncauchy_gap`` takes the truncation M
itself, since it samples nothing.
The quotients and their gaps are evaluated analytically rather than from
grid samples: the non-Cauchy phenomenon lives below any fixed grid scale
and sampling would alias it; the gap is a maximum taken block by block over
at most 2^16 coordinates at a time. The ladder's R-norm column is the
library's r_norm with the exact linf g* of the sampled family, taken for
every rung from one enumeration of the coordinates in blocks of at most
2^16 samples: each cell keeps the running maximum of |f_n| and of its
np.gradient stencil, each rung reads them at its M, and the enumeration
stops once a rigorous bound shows that no remaining coordinate reaches any
cell's maximum. The bound is the envelope of sinc: |f_n(t)| = t |sinc(nt)|,
and the stencils are cos(.) sinc(nh) inside and cos(.) sinc(nh/2) at the
two end cells, so the maxima are final after the first block up to
resolution 512 and after about 128 coordinates above it. Both norms are
then bit-identical to those of the whole sampled family, and a ladder
holds one block at a time whatever M is. The witness that the battery and
``modlab counterexample`` run is stated once, here: the point ``T_STAR``,
the step ladder ``LADDER`` and the gap floor ``GAP_FLOOR``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require_count, require_exponent, require_reals
from .geometry import Grid, ScalarField
from .report import Report, bounded_check
from .reshetnyak import upper_gradient_star
from .vectorvalues import NormTag, VectorField, scalar_lp_norm

# Verdict lines emitted by dichotomy_report.
VERDICT_NON_CAUCHY = "R-side bounded, W-side quotients non-Cauchy"
VERDICT_RNP_LIKE = "RNP-like: quotients converge"
VERDICT_INCONCLUSIVE = "inconclusive"

# The witness: its point, its steps and c0, a floor under the gaps that a brute-force sweep
# over n <= M measured on this ladder before the build: 0.7106, 0.7244, 0.7245 and 0.7246.
T_STAR = 0.7071067811865476
LADDER = (0.1, 0.01, 0.001, 0.0001)
GAP_FLOOR = 0.7


# The R column and the quotient gap visit at most this many samples at a time.
_BLOCK_SAMPLES = 2**16
# One rung enumerates at most this many coordinates: some 15 s of quotient gap on 2 cores.
_MAX_COORDS = 2**28

# Slack factors of the stop bounds; _tail_bounds derives the roundoff.
_EPS = np.finfo(float).eps
# fl(fl(k x) * _BELOW) < k x for k x > 0 in the normal range, so the
# nonincreasing sinc envelope taken there is at least B(k x).
_BELOW = 1.0 - 4.0 * _EPS
# The computed envelope is at least B (1 - 5 eps); scaled by this and
# rounded twice more it stays above B (1 + 5 eps).
_ENVELOPE_SLACK = 1.0 + 16.0 * _EPS


def _sin_samples(t: np.ndarray, first: int, last: int) -> np.ndarray:
    """sin(n t)/n at the points t for the coordinates n = first..last, one column each."""
    n = np.arange(first, last + 1, dtype=float)
    return np.sin(np.outer(t, n)) / n


def sin_family(M: int, resolution: int) -> VectorField:
    """Sample the truncated sin family at cell centers, sup-norm values; the
    field's dim_M is the truncation M."""
    M, resolution = require_count(M, "M"), require_count(resolution, "resolution", 16)
    grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[resolution])
    return VectorField(grid=grid, values=_sin_samples(grid.axis_centers(0), 1, M), norm=NormTag.LINF)


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


def _quotient(M: int, t: float, h: float, first: int = 1) -> np.ndarray:
    """(f(t+h) - f(t)) / h of the coordinates first..M, evaluated analytically."""
    n = np.arange(first, M + 1, dtype=float)
    return (np.sin(n * (t + h)) - np.sin(n * t)) / (n * h)


def _require_step(t: float, h: float, hprime: float) -> None:
    """Reject a step pair whose quotients float64 cannot tell apart.

    Besides t and t + h inside (0, 1), the computed points must keep
    t < t + hprime < t + h: where hprime rounds to 0 or t + hprime onto t,
    the quotient at hprime is 0/0 or 0, and where t + hprime rounds onto
    t + h both quotients share one numerator, so the gap is an artefact.
    """
    if not (0.0 < t < 1.0 and 0.0 < t + h < 1.0):
        raise ValueError("need t and t+h inside (0, 1)")
    if not t < t + hprime < t + h:
        raise ValueError(
            f"the step h = {h!r} is below float64's resolution at t = {t!r}: "
            f"t + hprime must lie strictly between t and t + h (hprime = {hprime!r})"
        )


def _quotient_gap(M: int, t: float, h: float, hprime: float) -> float:
    """max_n |q_n(h) - q_n(hprime)| over the first M coordinates, for a
    step pair that passed ``_require_step``, taken block by block; t + hprime
    lies between t and t + h, so the window of h covers both."""
    gap = 0.0
    for first in range(1, M + 1, _BLOCK_SAMPLES):
        last = min(first + _BLOCK_SAMPLES - 1, M)
        gap = max(gap, float(np.max(np.abs(_quotient(last, t, h, first) - _quotient(last, t, hprime, first)))))
    return gap


def _require_enumerable(M, what: str):
    if not M <= _MAX_COORDS:  # inf and NaN too
        raise ValueError(f"{what} asks for {M:.4g} coordinates in one rung, over the cap of {_MAX_COORDS}")
    return M


def noncauchy_gap(M: int, t: float, h: float, hprime: float) -> float:
    """Sup-norm distance between the quotients at steps h and hprime of the
    sin family truncated at M coordinates.

    With hprime = h/2 and M >= ceil(10/hprime) the tail coordinates are
    represented and the gap stays bounded away from zero as h decreases:
    the witness that the quotient limit does not exist in the sup norm.
    For fixed M the gap vanishes with h (finite dimension has the
    Radon-Nikodym property).
    """
    M = _require_enumerable(require_count(M, "M"), "M")
    if not (0.0 < hprime < h):
        raise ValueError("need 0 < hprime < h")
    _require_step(t, h, hprime)
    return _quotient_gap(M, t, h, hprime)


def _sinc_envelope(x: np.ndarray) -> np.ndarray:
    """B(x) for x > 0: an envelope of |sin y / y| over y >= x, nonincreasing in x.

    sin y / y decreases on (0, pi) and |sin y / y| <= 1/y < 1/pi past pi, so
    B(x) = max(sin x / x, 1/pi) below pi and 1/x from pi on; B(x) <= 1/x.
    Computed, it is at least B(x)(1 - 5 eps): np.sin's 4 ulp and one
    rounding of the division, or one rounding of 1/pi or of 1/x (np.pi < pi,
    so the branch taken at np.pi <= x < pi gives 1/x > 1/pi = B(x)).
    """
    return np.where(x < np.pi, np.maximum(np.sin(x) / x, 1.0 / np.pi), 1.0 / x)


def _tail_bounds(done: int, t: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell bounds on the computed |f_n| and on its np.gradient stencil
    over every coordinate n > done, at the cell centres t of a grid of
    spacing h.

    Exact bounds, for n >= k = done + 1 and B = _sinc_envelope: a value is
    |sin(nt)/n| = t |sinc(nt)| <= t B(kt); the central stencil over 2h is
    cos(nt) sinc(nh), at most B(kh); the one-sided stencil over h at the two
    end cells is cos(n(t + h/2)) sinc(nh/2), at most B(kh/2).

    Roundoff, with u = eps/2. A value is fl(fl(sin(fl(n t)))/n): the angle
    is within u n t of n t, which moves sin(nt)/n by at most u t; np.sin's
    4 ulp and the division add 4.5 eps relative, so it is at most
    t B(kt)(1 + 5 eps) + eps t. For the stencils, the stored centre
    t_j = fl((j + 1/2) h) is within u of (j + 1/2) h, so every computed
    sample is within eps + 4.5 eps/n <= 6 eps of sin(n (j + 1/2) h)/n, whose
    differences obey the exact identities above. A difference of two
    samples is then off by at most 12 eps, and the difference and the
    division by 2h (or h) each round once more: a computed stencil is at
    most (B(kh) + 6 eps/h)(1 + eps) inside and (B(kh/2) + 12 eps/h)(1 + eps)
    at the ends. The returned bounds evaluate B just below its argument
    (_BELOW), scale it by _ENVELOPE_SLACK and add 2 eps, 8 eps/h and
    16 eps/h, which covers those and the bounds' own roundings. Since
    B(x) <= 1/x they are 1/k, 1/(kh) and 2/(kh) at most, plus that slack,
    which the n = 1 coordinate alone exceeds in every cell once k >
    4 * resolution (|f_1| >= sin(h/2), stencils >= cos(1) sin(h)/h > 0.539),
    so the stop comes by the first block end at or past 4 * resolution.
    """
    k = done + 1
    value = t * _sinc_envelope(k * t * _BELOW) * _ENVELOPE_SLACK + 2.0 * _EPS
    inner, end = _sinc_envelope(np.array([k * h * _BELOW, k * h / 2.0 * _BELOW])) * _ENVELOPE_SLACK
    stencil = np.full(t.size, inner + 8.0 * _EPS / h)
    stencil[[0, -1]] = end + 16.0 * _EPS / h
    return value, stencil


def _sin_family_r_norms(Ms, resolution: int, p: float) -> list[tuple[float, float]]:
    """(lp_norm, r_norm) of sin_family(M, resolution) for each M of the
    nondecreasing Ms, bit for bit.

    The coordinates are enumerated once, in blocks of at most _BLOCK_SAMPLES
    samples (one coordinate above that resolution) and 4 * resolution, each
    ending at the next M if that comes first. Each cell keeps the running
    maximum of the blocks' linf value norms and linf g*, the largest |stencil|
    of the same finite_diff_gradient path; each M takes both L^p norms from
    those maxima as lp_norm and r_norm take them. Once every maximum reaches
    its _tail_bounds, by 4 * resolution coordinates, no more are sampled.
    """
    grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[resolution])
    t, h = grid.axis_centers(0), grid.spacing[0]
    block = max(1, min(_BLOCK_SAMPLES // resolution, 4 * resolution))
    fmax = np.zeros(resolution)
    gmax = np.zeros(resolution)
    done, final = 0, False
    norms = []
    for M in Ms:
        while done < M and not final:
            last = min(done + block, M)
            f = VectorField(grid=grid, values=_sin_samples(t, done + 1, last), norm=NormTag.LINF)
            fmax = np.maximum(fmax, f.norms())
            gmax = np.maximum(gmax, upper_gradient_star(f).gstar.values)
            done = last
            value, stencil = _tail_bounds(done, t, h)
            final = np.all(fmax >= value) and np.all(gmax >= stencil)
        lp = scalar_lp_norm(ScalarField(grid=grid, values=fmax), p)
        norms.append((lp, lp + scalar_lp_norm(ScalarField(grid=grid, values=gmax), p)))
    return norms


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
    resolution = require_count(resolution, "resolution", 16)
    ladder = [float(h) for h in require_reals(h_ladder, "h_ladder")]
    if not ladder:
        raise ValueError("h_ladder must hold at least one step")
    if fixed_M is not None:
        fixed_M = _require_enumerable(require_count(fixed_M, "fixed_M"), "fixed_M")
    if any(not h > 0.0 for h in ladder):
        raise ValueError("every step h of h_ladder must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    # a strictly decreasing ladder gives nondecreasing truncations, the last the largest
    if fixed_M is None:  # h / 2 may round to 0, and 10 / (h / 2) to inf
        _require_enumerable(10.0 / (ladder[-1] / 2.0) if ladder[-1] / 2.0 > 0.0 else math.inf, f"the step h = {ladder[-1]!r}")
    Ms = [fixed_M if fixed_M is not None else math.ceil(10.0 / (h / 2.0)) for h in ladder]
    for h in ladder:  # before any coordinate is sampled
        _require_step(t, h, h / 2.0)
    gaps = [_quotient_gap(M, t, h, h / 2.0) for h, M in zip(ladder, Ms)]
    lpvals, rvals = zip(*_sin_family_r_norms(Ms, resolution, p))
    rows = [[h, h / 2.0, float(M), gap, r, lp] for h, M, gap, r, lp in zip(ladder, Ms, gaps, rvals, lpvals)]
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
        series=[{"name": "dichotomy", "columns": ["h", "hprime", "M", "gap", "r_norm", "lp_norm"], "rows": rows}],
        meta={"t": t, "p": p, "resolution": resolution, "fixed_M": fixed_M, "verdict": verdict},
    )
