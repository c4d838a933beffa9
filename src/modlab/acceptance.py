"""The acceptance battery: every exit criterion as a reproducible check.

Each criterion function builds its own fixtures (deterministic seeds),
computes the published analytic values or pre-measured oracle constants it
is compared against, and returns a Report whose checks carry the stated
tolerances. ``run_all`` powers both the test suite and the ``modlab suite``
command.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .geometry import CurveFamily, Grid, Polyline, ScalarField
from .modulus import (
    analytic_parallel_segments,
    assemble_problem,
    chebyshev_modulus_bound,
    fuglede_schedule,
    solve_modulus,
)
from .report import Report, bounded_check
from .reshetnyak import ac_bound_check, norm_equivalence_check, r_norm
from .rnp_lab import (
    GAP_FLOOR,
    LADDER,
    T_STAR,
    VERDICT_NON_CAUCHY,
    dichotomy_report,
    noncauchy_gap,
)
from .sobolev import TestFunction, finite_diff_gradient, ftc_along_curve_check, w_norm, weak_derivative_check
from .vectorvalues import NormTag, VectorField


def unit_square_grid(res: int) -> Grid:
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[res, res])


def horizontal_segment_family(res: int, count: int) -> CurveFamily:
    """Unit-length horizontal segments at the first ``count`` cell-row centers."""
    h = 1.0 / res  # (j + 0.5) * h, not (j + 0.5) / res: the two differ in the last bit
    return CurveFamily(curves=[Polyline([[0.0, (j + 0.5) * h], [1.0, (j + 0.5) * h]]) for j in range(count)])


def random_polyline(rng, num_vertices: int = 3, lo: float = 0.05, hi: float = 0.95) -> Polyline:
    return Polyline(rng.uniform(lo, hi, size=(num_vertices, 2)))


def _random_curves(rng, fewer_than: int, lo: float = 0.05, hi: float = 0.95) -> list:
    """1 to ``fewer_than`` - 1 random polylines of 2 to 4 vertices each, the
    count drawn first and then each curve's vertex count and vertices."""
    return [random_polyline(rng, rng.integers(2, 5), lo, hi) for _ in range(rng.integers(1, fewer_than))]


def _modulus(curves: list, g: Grid, p: float, tol: float = 1e-8) -> float:
    """The solved p-modulus of the family ``curves`` on ``g``."""
    return solve_modulus(assemble_problem(CurveFamily(curves=curves), g, p), tol=tol).value


def _flag(name: str, holds: bool) -> dict:
    """The check that ``holds`` is true, recorded as the value 1.0 >= 1.0."""
    return bounded_check(name, float(holds), 1.0, lower=True)


def _runtime(name: str, seconds: float, bound: float) -> dict:
    """The check that a stage took strictly less than ``bound`` seconds."""
    return bounded_check(name, seconds, bound, passed=seconds < bound)


# ---------------------------------------------------------------------------
# 1. Segment-family modulus against the analytic parallel-segment value.

def criterion_segment_families() -> Report:
    def solved_value(res: int, count: int, p: float):
        t0 = time.perf_counter()
        value = _modulus(horizontal_segment_family(res, count).curves, unit_square_grid(res), p, tol=1e-9)
        return value, time.perf_counter() - t0

    exact = analytic_parallel_segments(1.0, 1.0, 2.0)
    v64, t64 = solved_value(64, 64, 2.0)
    v128, t128 = solved_value(128, 128, 2.0)
    err64 = abs(v64 - exact) / exact
    checks = [
        bounded_check("full_square_p2_res64_within_5pct", err64, 0.05),
        _runtime("full_square_res64_runtime_s", t64, 30.0),
        bounded_check("refinement_res128_error_not_worse", abs(v128 - exact) / exact, err64 + 1e-6),
        _runtime("full_square_res128_runtime_s", t128, 30.0),
    ]

    half = analytic_parallel_segments(0.5, 1.0, 2.0)
    for p in (1.5, 2.0, 3.0):
        v_h, t_h = solved_value(64, 32, p)
        checks.append(bounded_check(f"half_square_p{p}_within_5pct", abs(v_h - half) / half, 0.05))
        checks.append(_runtime(f"half_square_p{p}_runtime_s", t_h, 30.0))

    return Report(
        command="criterion_1_segment_families",
        checks=checks,
        series=[{"name": "modulus_refinement", "columns": ["resolution", "value"], "rows": [[64.0, v64], [128.0, v128]]}],
        meta={"analytic_full": exact, "analytic_half": half},
    )


# ---------------------------------------------------------------------------
# 2. Outer-measure axioms on randomized families.

def criterion_outer_measure() -> Report:
    g = unit_square_grid(32)
    p = 2.0
    rng = np.random.default_rng(20260809)
    empty = _modulus([], g, p)
    checks = [bounded_check("empty_family_modulus_zero", empty, 0.0, passed=empty == 0.0)]

    worst_mono = math.inf
    worst_subadd = math.inf
    for _ in range(50):
        base = _random_curves(rng, 4)
        extra = _random_curves(rng, 3)
        other = _random_curves(rng, 4)
        v_base = _modulus(base, g, p)
        v_other = _modulus(other, g, p)
        worst_mono = min(worst_mono, _modulus(base + extra, g, p) - v_base)
        worst_subadd = min(worst_subadd, v_base + v_other - _modulus(base + other, g, p))
    checks.append(bounded_check("monotonicity_margin", worst_mono, -1e-4, lower=True))
    checks.append(bounded_check("subadditivity_margin", worst_subadd, -1e-4, lower=True))

    worst_rel = 0.0
    for _ in range(10):
        left = _random_curves(rng, 4, 0.03, 0.45)
        right = _random_curves(rng, 4, 0.55, 0.97)
        v_l = _modulus(left, g, p)
        v_r = _modulus(right, g, p)
        worst_rel = max(worst_rel, abs(_modulus(left + right, g, p) - (v_l + v_r)) / (v_l + v_r))
    checks.append(bounded_check("disjoint_additivity_rel_error", worst_rel, 1e-3))

    return Report(command="criterion_2_outer_measure", checks=checks)


# ---------------------------------------------------------------------------
# 3. Chebyshev bounds dominate solved moduli of certified families.

def _smooth_positive_field(g: Grid, rng) -> ScalarField:
    centers = g.cell_centers()
    vals = np.full(g.num_cells, 0.2)
    for _ in range(3):
        k = rng.integers(1, 4, size=g.ndim)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.2, 1.0)
        vals += amp * (1.0 + np.sin(2 * np.pi * centers @ k + phase))
    return ScalarField(grid=g, values=vals)


def criterion_chebyshev_bounds() -> Report:
    g = unit_square_grid(32)
    rng = np.random.default_rng(1723)
    checks = []
    worst_excess = -math.inf
    for i in range(20):
        p = (1.5, 2.0, 3.0)[i % 3]
        h = _smooth_positive_field(g, rng)
        curves = [random_polyline(rng, rng.integers(2, 5)) for _ in range(5)]
        prob = assemble_problem(CurveFamily(curves=curves), g, p)
        eps = float(np.min(prob.constraint_rows @ h.values))  # every curve satisfies int_c h >= eps
        bound = chebyshev_modulus_bound(h, eps, p)
        value = solve_modulus(prob, tol=1e-10).value
        worst_excess = max(worst_excess, value - bound)
        checks.append(bounded_check(f"triple_{i:02d}_value_le_bound", value, bound + 1e-6))
    checks.append(bounded_check("worst_excess_over_bound", worst_excess, 1e-6))

    # strip family: E one cell row of a 100-grid (measure 1e-2), delta = 0.1
    res = 100
    g2 = unit_square_grid(res)
    delta = 0.1
    row = 49
    vals = np.zeros(g2.shape)
    vals[:, row] = 1.0 / delta  # chi_E / delta as a cell field
    h2 = ScalarField(grid=g2, values=vals.ravel())
    measure_E = res * g2.cell_volume
    bound2 = chebyshev_modulus_bound(h2, 1.0, 2.0)
    y = (row + 0.5) / res
    # 0.05 + 0.08 * j + 0.3, not 0.35 + 0.08 * j: the two differ in the last bit for j = 6, 7
    strip = [Polyline([[0.05 + 0.08 * j, y], [0.05 + 0.08 * j + 0.3, y]]) for j in range(8)]
    value2 = _modulus(strip, g2, 2.0, tol=1e-10)
    checks.append(bounded_check("strip_bound_matches_measure_formula", abs(bound2 - measure_E / delta**2), 1e-12))
    checks.append(bounded_check("strip_value_le_bound", value2, bound2))
    return Report(command="criterion_3_chebyshev", checks=checks)


# ---------------------------------------------------------------------------
# 4. Weak-derivative verifier on f(x) = x^2 and on constants.

def criterion_weak_derivative() -> Report:
    res = 256
    g = Grid(box_min=[0.0], box_max=[1.0], resolution=[res])
    x = g.axis_centers(0)
    f = VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2)
    cand = VectorField(grid=g, values=(2 * x)[:, None], norm=NormTag.L2)
    zero = VectorField(grid=g, values=np.zeros((res, 1)), norm=NormTag.L2)
    rng = np.random.default_rng(42)
    bumps = [TestFunction(center=[rng.uniform(0.3, 0.7)], radius=rng.uniform(0.1, 0.25)) for _ in range(20)]

    good = weak_derivative_check(f, cand, axis=0, tests=bumps, tol=5e-3)
    bad = weak_derivative_check(f, zero, axis=0, tests=bumps, tol=5e-3)
    const = VectorField(grid=g, values=np.tile([1.0, -2.0], (res, 1)), norm=NormTag.L2)
    zero2 = VectorField(grid=g, values=np.zeros((res, 2)), norm=NormTag.L2)
    # lattice-symmetric centers: the discrete sum of dphi cancels exactly
    sym_bumps = [TestFunction(center=[0.5], radius=0.3), TestFunction(center=[0.25], radius=0.2)]
    exact = weak_derivative_check(const, zero2, axis=0, tests=sym_bumps, tol=1e-12)

    checks = [
        bounded_check("x2_candidate_2x_passes", float(sum(c["pass"] for c in good.checks)), float(len(good.checks)), lower=True),
        bounded_check("x2_candidate_zero_fails_every_bump", float(sum(not c["pass"] for c in bad.checks)), float(len(bad.checks)), lower=True),
        bounded_check("constant_candidate_zero_exact", float(sum(c["pass"] for c in exact.checks)), float(len(exact.checks)), lower=True),
    ]
    return Report(command="criterion_4_weak_derivative", checks=checks)


# ---------------------------------------------------------------------------
# 5. The sqrt(N) norm equivalence over a randomized sweep.

def _random_smooth_vector_field(g: Grid, M: int, tag: NormTag, rng) -> VectorField:
    centers = g.cell_centers()
    values = np.zeros((g.num_cells, M))
    for m in range(M):
        for _ in range(2):
            k = rng.integers(1, 4, size=g.ndim)
            phase = rng.uniform(0, 2 * np.pi)
            values[:, m] += rng.uniform(-1, 1) * np.sin(2 * np.pi * centers @ k + phase)
    return VectorField(grid=g, values=values, norm=tag)


def criterion_norm_equivalence() -> Report:
    g = unit_square_grid(16)
    rng = np.random.default_rng(99)
    tags = [NormTag.L1, NormTag.L2, NormTag.LINF]
    dims = [1, 2, 4]
    ps = [1.0, 2.0]
    worst_r_w = -math.inf
    worst_w_sqrt = -math.inf
    worst_scalar = 0.0
    for i in range(500):
        tag = tags[i % 3]
        M = dims[(i // 3) % 3]
        p = ps[(i // 9) % 2]
        f = _random_smooth_vector_field(g, M, tag, rng)
        rep = norm_equivalence_check(f, p, tol=1e-6)
        w = rep.meta["w_norm"]
        r = rep.meta["r_norm"]
        worst_r_w = max(worst_r_w, r - w)
        worst_w_sqrt = max(worst_w_sqrt, w - math.sqrt(2.0) * r)
        if M == 1:
            worst_scalar = max(worst_scalar, abs(r - w) / (1.0 + w))
    checks = [
        bounded_check("sweep_r_minus_w_max", worst_r_w, 1e-6),
        bounded_check("sweep_w_minus_sqrtN_r_max", worst_w_sqrt, 1e-6),
        bounded_check("scalar_fields_r_equals_w", worst_scalar, 1e-9),
    ]

    # the identity map with sup-norm values: ratio strictly inside (1, sqrt 2)
    g64 = unit_square_grid(64)
    ident = VectorField(grid=g64, values=g64.cell_centers().copy(), norm=NormTag.LINF)
    ratio = w_norm(ident, 2.0) / r_norm(ident, 2.0)
    checks.append(bounded_check("identity_linf_ratio_above_1", ratio, 1.0, lower=True, passed=ratio > 1.0))
    checks.append(bounded_check("identity_linf_ratio_below_sqrt2", ratio, math.sqrt(2.0), passed=ratio < math.sqrt(2.0)))
    return Report(command="criterion_5_norm_equivalence", checks=checks, meta={"identity_ratio": ratio})


# ---------------------------------------------------------------------------
# 6. Fundamental-theorem and absolute-continuity bounds along curves.

def _sin_cos_field(g: Grid) -> VectorField:
    """The smooth field (sin x, cos y) at the cell centres of ``g``."""
    centers = g.cell_centers()
    return VectorField(grid=g, values=np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 1])], axis=-1), norm=NormTag.L2)


def criterion_ftc_ac() -> Report:
    f = _sin_cos_field(unit_square_grid(256))
    ftc = ftc_along_curve_check(f, finite_diff_gradient(f), Polyline([[0.02, 0.02], [0.98, 0.98]]), tol=1e-3)
    worst = max(c["value"] for c in ftc.checks if c["name"].startswith("ftc"))
    # the verdict also carries the report's chain-rule check
    checks = [bounded_check("ftc_smooth_residual", worst, 1e-3, passed=ftc.passed)]

    g2 = unit_square_grid(128)
    f2 = _sin_cos_field(g2)
    ones = ScalarField(grid=g2, values=np.ones(g2.num_cells))
    rng = np.random.default_rng(7)
    reps = [ac_bound_check(f2, ones, random_polyline(rng, rng.integers(2, 5)), tol=1e-3, num_params=6) for _ in range(100)]
    checks.append(_flag("ac_lipschitz_100_random_polylines", all(rep.passed for rep in reps)))

    jump_vals = np.zeros((g2.num_cells, 2))
    jump_vals[g2.cell_centers()[:, 0] >= 0.5, 0] = 1.0
    f_jump = VectorField(grid=g2, values=jump_vals, norm=NormTag.L2)
    rep_jump = ac_bound_check(f_jump, ones, Polyline([[0.3, 0.5], [0.7, 0.5]]), tol=1e-6, num_params=12)
    checks.append(_flag("ac_discontinuous_fixture_fails", not rep_jump.passed))
    return Report(command="criterion_6_ftc_ac", checks=checks)


# ---------------------------------------------------------------------------
# 7. The RNP dichotomy ladder.

def criterion_rnp_dichotomy() -> Report:
    t0 = time.perf_counter()
    rep = dichotomy_report(t=T_STAR, h_ladder=LADDER, p=2.0, resolution=512, gap_floor=GAP_FLOOR)
    g_small = noncauchy_gap(1, T_STAR, 1e-6, 5e-7)
    g_big = noncauchy_gap(1, T_STAR, 1e-3, 5e-4)
    elapsed = time.perf_counter() - t0

    checks = list(rep.checks)
    checks.append(_flag("verdict_non_cauchy", rep.meta["verdict"] == VERDICT_NON_CAUCHY))
    checks.append(bounded_check("fixed_M1_control_gap_decays", g_small, 10.0 * g_big))
    checks.append(_runtime("runtime_s", elapsed, 10.0))
    return Report(command="criterion_7_rnp_dichotomy", checks=checks, series=rep.series, meta=rep.meta)


# ---------------------------------------------------------------------------
# 8. The Fuglede schedule on the synthetic geometric sequence.

def criterion_fuglede() -> Report:
    norms = [2.0**-n for n in range(1, 41)]
    schedule = fuglede_schedule(norms, p=2.0, eps=0.5)
    bounds = [b for _, b in schedule]
    decreasing = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    total = float(sum(bounds))
    checks = [
        _flag("bounds_strictly_decreasing", decreasing),
        # Known red: the selection rule pins n_1 = 2 for this sequence, so
        # the leading bound is (1/4)^2 / (1/2)^2 = 0.25 and the sum is
        # 4/15 ~ 0.2667; the 1e-2 target is unreachable. Kept as stated.
        bounded_check("bounds_sum_below_1e-2", total, 1e-2, passed=total < 1e-2),
    ]
    return Report(
        command="criterion_8_fuglede",
        checks=checks,
        series=[{"name": "fuglede_schedule", "columns": ["k", "index", "bound"], "rows": [[float(k + 1), float(i), b] for k, (i, b) in enumerate(schedule)]}],
        meta={"sum": total},
    )


CRITERIA = [
    criterion_segment_families,
    criterion_outer_measure,
    criterion_chebyshev_bounds,
    criterion_weak_derivative,
    criterion_norm_equivalence,
    criterion_ftc_ac,
    criterion_rnp_dichotomy,
    criterion_fuglede,
]


def run_all() -> list[Report]:
    return [fn() for fn in CRITERIA]
