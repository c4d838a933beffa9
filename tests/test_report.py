import json
import math

import numpy as np
import pytest

from modlab.report import Report, bounded_check, bounded_checks, format_float, report_to_json


def sample_report():
    return Report(
        command="demo",
        checks=[{"name": "a", "value": 1.0 / 3.0, "bound": 0.5, "margin": 0.5 - 1.0 / 3.0, "pass": True}],
        series=[{"name": "s", "columns": ["x", "y"], "rows": [[1.0, 2.0], [0.5, 0.25]]}],
        meta={"p": 2.0, "note": "x"},
    )


def hand_built_report():
    """Every JSON type and every way a check record is made: an upper, a lower
    and an overridden bound, an array of pairs with a NaN and a broadcast
    bound, the ``converged`` record with no margin and a suite-prefixed name."""
    nan, inf = float("nan"), float("inf")
    checks = [
        bounded_check("upper", 0.5, 0.75),
        bounded_check("lower", 1.0 / 3.0, 0.25, lower=True),
        bounded_check("strict", 1.0, 1.0, passed=False),
        *bounded_checks(["pair[0]", "pair[1]", "pair[2]"], np.array([0.1, nan, 2.0]), 1.0),
        {"name": "converged", "value": 1.0, "bound": 1.0, "margin": None, "pass": True},
    ]
    checks += [dict(c, name=f"criterion.{c['name']}") for c in [bounded_check("x", 0.2, 0.3)]]
    return Report(
        command="writer",
        checks=checks,
        series=[{"name": "s", "columns": ["x", "y"], "rows": [[1.0, 2.0], [0.5, 0.25]]}],
        meta={"nan": nan, "inf": inf, "-inf": -inf, "nested": [[1, [2.5, []]], {}, {"k": [None, True]}],
              "esc\"aped\tkey\u0001\u00e9": "tab\t", "count": 3},
        inputs={"b": "digest-b", "a": "digest-a"},
        wall_time_s=0.125,
    )


# report_to_json(hand_built_report()), recorded when checks and series were
# still classes copied into dicts for the writer; the dict records must keep
# every byte of it
HAND_BUILT_TEXT = r'''{
  "command": "writer",
  "version": "0.1.0",
  "inputs": {
    "a": "digest-a",
    "b": "digest-b"
  },
  "checks": [
    {
      "name": "upper",
      "value": 0.5,
      "bound": 0.75,
      "margin": 0.25,
      "pass": true
    },
    {
      "name": "lower",
      "value": 0.33333333333333331,
      "bound": 0.25,
      "margin": 0.083333333333333315,
      "pass": true
    },
    {
      "name": "strict",
      "value": 1,
      "bound": 1,
      "margin": 0,
      "pass": false
    },
    {
      "name": "pair[0]",
      "value": 0.10000000000000001,
      "bound": 1,
      "margin": 0.90000000000000002,
      "pass": true
    },
    {
      "name": "pair[1]",
      "value": NaN,
      "bound": 1,
      "margin": NaN,
      "pass": false
    },
    {
      "name": "pair[2]",
      "value": 2,
      "bound": 1,
      "margin": -1,
      "pass": false
    },
    {
      "name": "converged",
      "value": 1,
      "bound": 1,
      "margin": null,
      "pass": true
    },
    {
      "name": "criterion.x",
      "value": 0.20000000000000001,
      "bound": 0.29999999999999999,
      "margin": 0.099999999999999978,
      "pass": true
    }
  ],
  "series": [
    {
      "name": "s",
      "columns": [
        "x",
        "y"
      ],
      "rows": [
        [
          1,
          2
        ],
        [
          0.5,
          0.25
        ]
      ]
    }
  ],
  "meta": {
    "nan": NaN,
    "inf": Infinity,
    "-inf": -Infinity,
    "nested": [
      [
        1,
        [
          2.5,
          []
        ]
      ],
      {},
      {
        "k": [
          null,
          true
        ]
      }
    ],
    "esc\"aped\tkey\u0001é": "tab\t",
    "count": 3
  },
  "passed": false,
  "wall_time_s": 0.125
}
'''


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
        r.checks.append({"name": "bad", "value": 2.0, "bound": 1.0, "margin": -1.0, "pass": False})
        assert not r.passed
        assert json.loads(report_to_json(r))["passed"] is False

    def test_control_characters_are_escaped(self):
        text = "tab\t, cr\r, \u0001, quote \", backslash \\ and \u00e9"
        check = {"name": text, "value": None, "bound": None, "margin": None, "pass": True}
        r = Report(command="x", meta={text: text}, checks=[check])
        out = report_to_json(r)
        parsed = json.loads(out)
        assert parsed["meta"] == {text: text} and parsed["checks"][0]["name"] == text
        assert "\\t" in out and "\\r" in out and "\\u0001" in out and "\u00e9" in out

    def test_nan_and_inf_render(self):
        r = Report(command="x", checks=[{"name": "n", "value": float("nan"), "bound": None, "margin": None, "pass": True}])
        assert "NaN" in report_to_json(r)

    def test_hand_built_report_text_is_pinned(self):
        assert report_to_json(hand_built_report()) == HAND_BUILT_TEXT

    @pytest.mark.parametrize("value", [np.bool_(True), object(), np.int64(3), (1.0, 2.0)],
                             ids=["numpy-bool", "object", "numpy-int", "tuple"])
    def test_a_value_of_no_json_type_raises(self, value):
        with pytest.raises(TypeError, match="JSON types only"):
            report_to_json(Report(command="x", meta={"v": value}))


class TestBoundedCheck:
    def test_value_at_the_bound_passes_with_zero_margin(self):
        for lower in (False, True):
            c = bounded_check("eq", 0.25, 0.25, lower=lower)
            assert c["pass"] and c["margin"] == 0.0

    def test_upper_bound_margin_is_bound_minus_value(self):
        ok, bad = bounded_check("ok", 0.5, 0.75), bounded_check("bad", 1.0, 0.75)
        assert (ok["margin"], ok["pass"]) == (0.25, True)
        assert (bad["margin"], bad["pass"]) == (-0.25, False)

    def test_lower_bound_margin_is_value_minus_bound(self):
        ok, bad = bounded_check("ok", 1.0, 0.75, lower=True), bounded_check("bad", 0.5, 0.75, lower=True)
        assert (ok["margin"], ok["pass"]) == (0.25, True)
        assert (bad["margin"], bad["pass"]) == (-0.25, False)

    def test_nan_value_fails_on_either_side(self):
        for lower in (False, True):
            c = bounded_check("nan", float("nan"), 1.0, lower=lower)
            assert not c["pass"] and math.isnan(c["margin"])
            assert (c["margin"] >= 0) == c["pass"]

    def test_given_verdict_overrides_the_comparison(self):
        strict = bounded_check("strict", 1.0, 1.0, passed=1.0 < 1.0)
        assert strict["margin"] == 0.0 and strict["pass"] is False
        assert bounded_check("b", 2.0, 1.0, passed=True)["pass"] is True

    def test_the_record_carries_the_derived_fields(self):
        d = bounded_check("x", 0.5, 1.0)
        assert d == {"name": "x", "value": 0.5, "bound": 1.0, "margin": 0.5, "pass": True}


class TestBoundedChecks:
    def test_each_record_is_the_bounded_check_of_its_entry(self, rng):
        values = rng.uniform(0.0, 2.0, size=40)
        bounds = rng.uniform(0.0, 2.0, size=40)
        names = [f"c{i}" for i in range(40)]
        expected = [bounded_check(n, v, b) for n, v, b in zip(names, values.tolist(), bounds.tolist())]
        assert bounded_checks(names, values, bounds) == expected
        assert {c["pass"] for c in expected} == {True, False}

    def test_a_scalar_bound_is_broadcast(self):
        records = bounded_checks(["a", "b"], [0.25, 0.75], 0.5)
        assert [(c["bound"], c["margin"], c["pass"]) for c in records] == [(0.5, 0.25, True), (0.5, -0.25, False)]

    def test_the_fields_are_python_scalars(self):
        (record,) = bounded_checks(["a"], np.array([np.float32(0.5)]), np.int64(1))
        assert [type(record[k]) for k in ("value", "bound", "margin", "pass")] == [float, float, float, bool]

    def test_a_nan_value_fails_with_a_nan_margin(self):
        (record,) = bounded_checks(["nan"], [float("nan")], 1.0)
        assert record["pass"] is False and math.isnan(record["margin"])
