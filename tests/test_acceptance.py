"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line and is checked against its pinned
command and ordered check names, so a change to the battery that drops,
renames or reorders a check fails here; the names depend on no BLAS kernel.
Criterion 8 is split: its monotonicity clause holds, while its sum clause
contradicts the schedule's own selection rule (the leading bound is already
0.25, so the emitted bounds sum to 4/15); that single sub-assertion is kept
as written and marked strict-xfail rather than weakened.
"""

import hashlib

import numpy as np
import pytest

from modlab import acceptance

# (command, ordered check names) of each criterion, in the order of acceptance.CRITERIA
PINNED = [
    ("criterion_1_segment_families", [
        "full_square_p2_res64_within_5pct", "full_square_res64_runtime_s",
        "refinement_res128_error_not_worse", "full_square_res128_runtime_s",
        "half_square_p1.5_within_5pct", "half_square_p1.5_runtime_s",
        "half_square_p2.0_within_5pct", "half_square_p2.0_runtime_s",
        "half_square_p3.0_within_5pct", "half_square_p3.0_runtime_s",
    ]),
    ("criterion_2_outer_measure", [
        "empty_family_modulus_zero", "monotonicity_margin", "subadditivity_margin", "disjoint_additivity_rel_error",
    ]),
    ("criterion_3_chebyshev", [
        *(f"triple_{i:02d}_value_le_bound" for i in range(20)),
        "worst_excess_over_bound", "strip_bound_matches_measure_formula", "strip_value_le_bound",
    ]),
    ("criterion_4_weak_derivative", [
        "x2_candidate_2x_passes", "x2_candidate_zero_fails_every_bump", "constant_candidate_zero_exact",
    ]),
    ("criterion_5_norm_equivalence", [
        "sweep_r_minus_w_max", "sweep_w_minus_sqrtN_r_max", "scalar_fields_r_equals_w",
        "identity_linf_ratio_above_1", "identity_linf_ratio_below_sqrt2",
    ]),
    ("criterion_6_ftc_ac", ["ftc_smooth_residual", "ac_lipschitz_100_random_polylines", "ac_discontinuous_fixture_fails"]),
    ("criterion_7_rnp_dichotomy", [
        "r_norm_bounded", "r_norm_constant_5pct", "gap_floor", "verdict_non_cauchy", "fixed_M1_control_gap_decays",
        "runtime_s",
    ]),
    ("criterion_8_fuglede", ["bounds_strictly_decreasing", "bounds_sum_below_1e-2"]),
]

# the meta value each PASS/FAIL line carries
EXTRA = {
    "criterion_5_norm_equivalence": lambda meta: f" ratio={meta['identity_ratio']:.4f}",
    "criterion_7_rnp_dichotomy": lambda meta: f" verdict={meta['verdict']!r}",
    "criterion_8_fuglede": lambda meta: f" sum={meta['sum']:.6f}",
}


def test_the_battery_is_the_pinned_list():
    assert len(acceptance.CRITERIA) == len(PINNED)


def test_criterion_2_draws_from_the_default_box():
    # the box [0.05, 0.95] of criterion 2's curves: either end moved by a
    # factor of 1.001 moves criterion 2's values, and no check notices
    curves = acceptance._random_curves(np.random.default_rng(20260809), 4)
    digest = hashlib.sha256(np.vstack([c.vertices for c in curves]).tobytes()).hexdigest()
    assert digest == "a5e95c69acd623a9eaf6c3053182bd7ca06066ede975f156e72aca48bd8c230c"


@pytest.mark.parametrize(
    "criterion,command,names", [pytest.param(fn, *pin, id=pin[0]) for fn, pin in zip(acceptance.CRITERIA, PINNED)]
)
def test_criterion(criterion, command, names):
    report = criterion()
    extra = EXTRA.get(report.command, lambda meta: "")(report.meta)
    print(f"[acceptance] {report.command}: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(c['pass'] for c in report.checks)}/{len(report.checks)} checks){extra}")
    assert report.command == command
    assert [c["name"] for c in report.checks] == names
    # criterion 8's sum clause is the strict xfail below
    gated = [c for c in report.checks if c["name"] != "bounds_sum_below_1e-2"]
    for check in gated:
        assert check["pass"], f"{check['name']}: value={check['value']} bound={check['bound']}"
        # a margin is nonnegative exactly on the passing side of its bound
        assert (check["margin"] >= 0) == check["pass"], f"{check['name']}: margin={check['margin']}"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "internally inconsistent target: the selection rule picks n_k = 2k "
        "for the 2^-n sequence, making the k=1 bound (2^-2)^2/0.5^2 = 0.25, "
        "so the emitted bounds sum to 4/15 ~ 0.2667 and can never drop "
        "below 1e-2"
    ),
)
def test_criterion_8_fuglede_schedule_sum():
    report = acceptance.criterion_fuglede()
    total = report.meta["sum"]
    assert total < 1e-2, f"sum of emitted bounds = {total}"
