"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Each test prints a PASS/FAIL line for its criterion. Criterion 8 is split:
its monotonicity clause holds, while its sum clause contradicts the
schedule's own selection rule (the leading bound is already 0.25, so the
emitted bounds sum to 4/15); that single sub-assertion is kept as written
and marked strict-xfail rather than weakened.
"""

import pytest

from modlab import acceptance


def _emit(report, extra=""):
    flag = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] {report.command}: {flag} "
          f"({sum(c['pass'] for c in report.checks)}/{len(report.checks)} checks){extra}")


def _assert_every_check_passes(report):
    for check in report.checks:
        assert check["pass"], f"{check['name']}: value={check['value']} bound={check['bound']}"
        # a margin is nonnegative exactly on the passing side of its bound
        if check["margin"] is not None:
            assert (check["margin"] >= 0) == check["pass"], f"{check['name']}: margin={check['margin']}"


def test_criterion_1_segment_family_modulus():
    report = acceptance.criterion_segment_families()
    _emit(report)
    _assert_every_check_passes(report)


def test_criterion_2_outer_measure_suite():
    report = acceptance.criterion_outer_measure()
    _emit(report)
    _assert_every_check_passes(report)


def test_criterion_3_chebyshev_bounds():
    report = acceptance.criterion_chebyshev_bounds()
    _emit(report)
    _assert_every_check_passes(report)


def test_criterion_4_weak_derivative_verifier():
    report = acceptance.criterion_weak_derivative()
    _emit(report)
    _assert_every_check_passes(report)


def test_criterion_5_norm_equivalence():
    report = acceptance.criterion_norm_equivalence()
    _emit(report, extra=f" ratio={report.meta['identity_ratio']:.4f}")
    _assert_every_check_passes(report)


def test_criterion_6_ftc_and_ac_bounds():
    report = acceptance.criterion_ftc_ac()
    _emit(report)
    _assert_every_check_passes(report)


def test_criterion_7_rnp_dichotomy():
    report = acceptance.criterion_rnp_dichotomy()
    _emit(report, extra=f" verdict={report.meta['verdict']!r}")
    _assert_every_check_passes(report)


def test_criterion_8_fuglede_schedule_decreasing():
    report = acceptance.criterion_fuglede()
    decreasing = [c for c in report.checks if c["name"] == "bounds_strictly_decreasing"][0]
    _emit(report, extra=f" sum={report.meta['sum']:.6f}")
    assert decreasing["pass"]


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
