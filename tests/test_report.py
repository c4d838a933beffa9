import json
import math

from modlab.report import CheckRecord, Report, Series, bounded_check, format_float, report_to_json


def sample_report():
    return Report(
        command="demo",
        checks=[CheckRecord(name="a", value=1.0 / 3.0, bound=0.5, margin=0.5 - 1.0 / 3.0, passed=True)],
        series=[Series(name="s", columns=["x", "y"], rows=[[1.0, 2.0], [0.5, 0.25]])],
        meta={"p": 2.0, "note": "x"},
    )


class TestFloatFormat:
    def test_17_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(2.0) == "2"

    def test_round_trip_losslessness(self):
        for x in (1.0 / 3.0, 1e-300, 123456.789e10, 5e-324):
            assert float(format_float(x)) == x


class TestReportSerialization:
    def test_emits_valid_json(self):
        text = report_to_json(sample_report())
        parsed = json.loads(text)
        assert parsed["command"] == "demo"
        assert parsed["checks"][0]["pass"] is True
        assert parsed["passed"] is True

    def test_byte_stability_apart_from_wall_time(self):
        a, b = sample_report(), sample_report()
        a.wall_time_s, b.wall_time_s = 0.123, 9.876
        lines_a = [ln for ln in report_to_json(a).splitlines() if "wall_time" not in ln]
        lines_b = [ln for ln in report_to_json(b).splitlines() if "wall_time" not in ln]
        assert lines_a == lines_b

    def test_pass_flag_is_function_of_checks(self):
        r = sample_report()
        assert r.passed
        r.checks.append(CheckRecord(name="bad", value=2.0, bound=1.0, margin=-1.0, passed=False))
        assert not r.passed
        assert json.loads(report_to_json(r))["passed"] is False

    def test_control_characters_are_escaped(self):
        text = "tab\t, cr\r, \u0001, quote \", backslash \\ and \u00e9"
        r = Report(command="x", meta={text: text}, checks=[CheckRecord(name=text)])
        out = report_to_json(r)
        parsed = json.loads(out)
        assert parsed["meta"] == {text: text} and parsed["checks"][0]["name"] == text
        assert "\\t" in out and "\\r" in out and "\\u0001" in out and "\u00e9" in out

    def test_nan_and_inf_render(self):
        r = Report(command="x", checks=[CheckRecord(name="n", value=float("nan"), passed=True)])
        assert "NaN" in report_to_json(r)


class TestBoundedCheck:
    def test_value_at_the_bound_passes_with_zero_margin(self):
        for lower in (False, True):
            c = bounded_check("eq", 0.25, 0.25, lower=lower)
            assert c.passed and c.margin == 0.0

    def test_upper_bound_margin_is_bound_minus_value(self):
        ok, bad = bounded_check("ok", 0.5, 0.75), bounded_check("bad", 1.0, 0.75)
        assert (ok.margin, ok.passed) == (0.25, True)
        assert (bad.margin, bad.passed) == (-0.25, False)

    def test_lower_bound_margin_is_value_minus_bound(self):
        ok, bad = bounded_check("ok", 1.0, 0.75, lower=True), bounded_check("bad", 0.5, 0.75, lower=True)
        assert (ok.margin, ok.passed) == (0.25, True)
        assert (bad.margin, bad.passed) == (-0.25, False)

    def test_nan_value_fails_on_either_side(self):
        for lower in (False, True):
            c = bounded_check("nan", float("nan"), 1.0, lower=lower)
            assert not c.passed and math.isnan(c.margin)
            assert (c.margin >= 0) == c.passed

    def test_given_verdict_overrides_the_comparison(self):
        strict = bounded_check("strict", 1.0, 1.0, passed=1.0 < 1.0)
        assert strict.margin == 0.0 and strict.passed is False
        assert bounded_check("b", 2.0, 1.0, passed=True).passed is True

    def test_to_dict_carries_the_derived_fields(self):
        d = bounded_check("x", 0.5, 1.0).to_dict()
        assert d == {"name": "x", "value": 0.5, "bound": 1.0, "margin": 0.5, "pass": True}
