import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from modlab import (
    CurveFamily,
    Grid,
    NormTag,
    Polyline,
    Report,
    VectorField,
    save_family,
)
from modlab import cli as cli_mod
from modlab import rnp_lab
from modlab.cli import main, plot_files
from modlab.vectorvalues import load_field_csv, save_field_csv
from modlab.geometry import ScalarField, save_polyline_csv


def write_row_family(directory):
    """A 16^2 unit-square grid and its 16 horizontal cell-row segments."""
    g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
    g.save(directory / "grid.json")
    h = 1.0 / 16
    fam = CurveFamily(
        curves=[Polyline([[0.0, (j + 0.5) * h], [1.0, (j + 0.5) * h]]) for j in range(16)],
        label="rows",
    )
    save_family(fam, directory / "fam.json")
    return directory


@pytest.fixture
def modulus_inputs(tmp_path):
    return write_row_family(tmp_path)


class TestModulusCommand:
    def test_solves_and_reports(self, modulus_inputs, capsys):
        out = modulus_inputs / "result.json"
        status = main([
            "modulus",
            "--family", str(modulus_inputs / "fam.json"),
            "--grid", str(modulus_inputs / "grid.json"),
            "--p", "2", "--tol", "1e-8",
            "--out", str(out),
            "--rho-out", str(modulus_inputs / "rho.csv"),
        ])
        assert status == 0
        record = json.loads(out.read_text())
        assert record["meta"]["value"] == pytest.approx(1.0, rel=1e-6)
        assert {"value", "violation", "iterations", "gap"} <= set(record["meta"])
        assert (modulus_inputs / "rho.csv").exists()
        assert record["inputs"]  # digests recorded

    def test_rho_out_is_a_field_csv_with_its_header(self, modulus_inputs):
        rho = modulus_inputs / "rho.csv"
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json")]
        assert main(argv + ["--out", str(modulus_inputs / "r.json"), "--rho-out", str(rho)]) == 0
        assert rho.read_text().splitlines()[0] == "i1,i2,v1"

    def test_empty_family_on_a_zero_dimensional_grid_writes_its_density(self, tmp_path, capsys):
        Grid(box_min=[], box_max=[], resolution=[]).save(tmp_path / "grid.json")
        save_family(CurveFamily(curves=[], label="empty"), tmp_path / "fam.json")
        status = main([
            "modulus",
            "--family", str(tmp_path / "fam.json"),
            "--grid", str(tmp_path / "grid.json"),
            "--out", str(tmp_path / "result.json"),
            "--rho-out", str(tmp_path / "rho.csv"),
        ])
        assert status == 0
        rho = load_field_csv(tmp_path / "rho.csv")
        assert rho.grid.ndim == 0
        assert rho.values.tolist() == [[0.0]]

    def test_malformed_grid_json_exits_2(self, modulus_inputs):
        bad = modulus_inputs / "bad.json"
        bad.write_text("{not json")
        status = main([
            "modulus",
            "--family", str(modulus_inputs / "fam.json"),
            "--grid", str(bad),
            "--out", str(modulus_inputs / "r.json"),
        ])
        assert status == 2

    @pytest.mark.parametrize("record", ["[0, 1]", '{"box_min": [0], "box_max": [1], "resolution": [4.5]}'])
    def test_invalid_grid_record_exits_2_with_one_line(self, modulus_inputs, capsys, record):
        bad = modulus_inputs / "g.json"
        bad.write_text(record)
        status = main(["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(bad)])
        err = capsys.readouterr().err
        assert status == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "box_min", ['{"a": 1}', '["x", 0]', "[1" + "0" * 400 + ", 0]"], ids=["object", "string", "overflow"]
    )
    def test_non_numeric_grid_value_exits_2_without_report(self, modulus_inputs, capsys, box_min):
        bad = modulus_inputs / "g.json"
        bad.write_text('{"box_min": %s, "box_max": [1, 1], "resolution": [4, 4]}' % box_min)
        out = modulus_inputs / "r.json"
        status = main([
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(bad), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1
        assert not out.exists() and captured.out == ""

    def test_control_characters_in_the_family_label_stay_valid_json(self, modulus_inputs):
        label = "tab\there, cr\rthere, \u0001 and \u00e9"
        fam = CurveFamily(curves=[Polyline([[0.0, 0.5], [1.0, 0.5]])], label=label)
        save_family(fam, modulus_inputs / "labelled.json")
        out = modulus_inputs / "r.json"
        family, grid = modulus_inputs / "labelled.json", modulus_inputs / "grid.json"
        assert main(["modulus", "--family", str(family), "--grid", str(grid), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["meta"]["label"] == label

    def test_meta_names_the_solver_and_a_max_iter_stop(self, modulus_inputs, capsys, rng):
        # one interior-point step cannot certify these oblique curves
        fam = CurveFamily(curves=[Polyline(rng.uniform(0.05, 0.95, size=(3, 2))) for _ in range(12)])
        save_family(fam, modulus_inputs / "oblique.json")
        main([
            "modulus", "--family", str(modulus_inputs / "oblique.json"), "--grid", str(modulus_inputs / "grid.json"),
            "--p", "3", "--max-iter", "1",
        ])
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["solver"] == "primal-dual-ipm" and meta["max_iter_hit"] is True

    def test_an_exponent_overflowing_the_energy_exits_2(self, modulus_inputs, capsys):
        # once 11 lines of numpy warnings, then "field values must be finite"
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv + ["--p", "1e308"], modulus_inputs / "r.json", capsys, "p = 1e+308", "overflows float64")

    def test_report_meta_is_machine_independent(self, modulus_inputs, capsys):
        status = main([
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json"),
        ])
        assert status == 0
        assert "threads_cap" not in json.loads(capsys.readouterr().out)["meta"]

    def test_missing_file_exits_2(self, modulus_inputs):
        status = main([
            "modulus",
            "--family", str(modulus_inputs / "nope.json"),
            "--grid", str(modulus_inputs / "grid.json"),
        ])
        assert status == 2


class TestNormsCommand:
    def test_norms_report(self, tmp_path):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
        f = VectorField(grid=g, values=g.cell_centers().copy(), norm=NormTag.LINF)
        save_field_csv(f, tmp_path / "f.csv")
        out = tmp_path / "norms.json"
        status = main(["norms", "--f", str(tmp_path / "f.csv"), "--p", "2", "--out", str(out)])
        assert status == 0
        record = json.loads(out.read_text())
        for key in ("lp", "w_norm", "r_norm", "ratio", "sqrtN_margin", "gstar_mode"):
            assert key in record["meta"]
        assert 1.0 < record["meta"]["ratio"] < math.sqrt(2.0)

    def test_three_axes_l1_with_twenty_columns_is_two_sided(self, tmp_path):
        g = Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 1.0], resolution=[4, 4, 4])
        f = VectorField(grid=g, values=np.random.default_rng(3).normal(size=(64, 20)), norm=NormTag.L1)
        save_field_csv(f, tmp_path / "f.csv")
        out = tmp_path / "norms.json"
        assert main(["norms", "--f", str(tmp_path / "f.csv"), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert [c["name"] for c in record["checks"]] == ["r_le_w", "w_le_sqrtN_r"]
        assert record["meta"]["one_sided"] is False
        assert record["meta"]["gstar_mode"] == "exact-extreme-points"

    def test_invalid_p_exits_2(self, tmp_path):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[16])
        f = VectorField(grid=g, values=np.zeros((16, 1)), norm=NormTag.L2)
        save_field_csv(f, tmp_path / "f.csv")
        status = main(["norms", "--f", str(tmp_path / "f.csv"), "--p", "0.5"])
        assert status == 2


class TestWeakcheckCommand:
    def test_pass_and_fail_paths(self, tmp_path):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[256])
        x = g.cell_centers()[:, 0]
        save_field_csv(VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2), tmp_path / "f.csv")
        save_field_csv(VectorField(grid=g, values=(2 * x)[:, None], norm=NormTag.L2), tmp_path / "cand.csv")
        save_field_csv(VectorField(grid=g, values=np.zeros((256, 1)), norm=NormTag.L2), tmp_path / "zero.csv")
        bumps = [{"center": [0.5], "radius": 0.25}, {"center": [0.35], "radius": 0.15}]
        (tmp_path / "bumps.json").write_text(json.dumps(bumps))
        ok = main([
            "weakcheck", "--f", str(tmp_path / "f.csv"), "--cand", str(tmp_path / "cand.csv"),
            "--axis", "0", "--bumps", str(tmp_path / "bumps.json"), "--tol", "5e-3",
            "--out", str(tmp_path / "ok.json"),
        ])
        assert ok == 0
        bad = main([
            "weakcheck", "--f", str(tmp_path / "f.csv"), "--cand", str(tmp_path / "zero.csv"),
            "--axis", "0", "--bumps", str(tmp_path / "bumps.json"), "--tol", "5e-3",
            "--out", str(tmp_path / "bad.json"),
        ])
        assert bad == 1  # report still written on failure
        record = json.loads((tmp_path / "bad.json").read_text())
        assert record["passed"] is False
        assert len(record["checks"]) == 2


class TestAcboundCommand:
    def test_round_trip(self, tmp_path):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[32, 32])
        centers = g.cell_centers()
        f = VectorField(
            grid=g,
            values=np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 1])], axis=-1),
            norm=NormTag.L2,
        )
        save_field_csv(f, tmp_path / "f.csv")
        save_field_csv(ScalarField(grid=g, values=np.ones(g.num_cells)), tmp_path / "g.csv")
        save_polyline_csv(Polyline([[0.1, 0.1], [0.8, 0.6]]), tmp_path / "c.csv")
        status = main([
            "acbound", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
            "--curve", str(tmp_path / "c.csv"), "--tol", "1e-3",
            "--out", str(tmp_path / "ac.json"),
        ])
        assert status == 0


class TestCounterexampleCommand:
    def test_short_ladder(self, tmp_path):
        out = tmp_path / "dichotomy.json"
        status = main([
            "counterexample", "--t", "0.7071067811865476",
            "--ladder", "1e-1,1e-2", "--resolution", "128",
            "--out", str(out),
        ])
        assert status == 0
        record = json.loads(out.read_text())
        assert record["meta"]["verdict"] == "R-side bounded, W-side quotients non-Cauchy"
        series = record["series"][0]
        assert series["columns"][:4] == ["h", "hprime", "M", "gap"]

    def test_plot_export(self, tmp_path):
        plots = tmp_path / "plots"
        status = main([
            "counterexample", "--ladder", "1e-1,1e-2", "--resolution", "128",
            "--out", str(tmp_path / "d.json"), "--export-plots", str(plots),
        ])
        assert status == 0
        csv = (plots / "dichotomy.csv").read_text().splitlines()
        assert csv[0] == "h,hprime,M,gap,r_norm,lp_norm"
        assert len(csv) == 3
        # sorted by abscissa
        assert float(csv[1].split(",")[0]) <= float(csv[2].split(",")[0])


class TestSuiteCommand:
    def test_exit_contract_follows_check_flags(self, monkeypatch, tmp_path):
        from modlab import cli as cli_mod

        def fake_all_pass():
            return [Report(command="c", checks=[{"name": "x", "value": 0.0, "bound": None, "margin": None, "pass": True}])]

        def fake_one_fail():
            return [Report(command="c", checks=[{"name": "x", "value": 2.0, "bound": 1.0, "margin": None, "pass": False}])]

        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_all_pass)
        assert main(["suite", "--out", str(tmp_path / "s1.json")]) == 0
        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_one_fail)
        assert main(["suite", "--out", str(tmp_path / "s2.json")]) == 1
        assert json.loads((tmp_path / "s2.json").read_text())["passed"] is False


class TestParser:
    def test_built_once_and_each_parse_starts_from_the_defaults(self, monkeypatch, tmp_path):
        seen = []

        def fake_ladder(**kwargs):
            seen.append(kwargs)
            return Report(command="dichotomy_report")

        monkeypatch.setattr(cli_mod, "dichotomy_report", fake_ladder)
        assert cli_mod._build_parser() is cli_mod._build_parser()
        main(["counterexample", "--fixed-m", "8", "--p", "3", "--out", str(tmp_path / "a.json")])
        main(["counterexample", "--out", str(tmp_path / "b.json")])
        assert [(k["fixed_M"], k["p"]) for k in seen] == [(8, 3.0), (None, 2.0)]


class TestPlotExport:
    def test_empty_report_is_a_notice_noop(self, tmp_path, capsys):
        assert plot_files(Report(command="none"), tmp_path / "plots") == {}
        assert "no series" in capsys.readouterr().out

    def test_series_sorted_and_headered(self, tmp_path):
        rep = Report(
            command="study",
            series=[{"name": "refine", "columns": ["resolution", "value"], "rows": [[128.0, 1.0], [64.0, 0.9]]}],
        )
        files = plot_files(rep, tmp_path)
        assert list(files) == [tmp_path / "refine.csv"]
        text = files[tmp_path / "refine.csv"].splitlines()
        assert text[0] == "resolution,value"
        assert text[1].startswith("64")


def _modulus_argv(p):
    def build(d):
        write_row_family(d)
        return ["modulus", "--family", str(d / "fam.json"), "--grid", str(d / "grid.json"), "--p", p], 0
    return build


def _norms_argv(tag):
    def build(d):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
        c = g.cell_centers()
        values = np.stack([np.sin(3.0 * c[:, 0]) * np.cos(c[:, 1]), c[:, 0] * c[:, 1]], axis=-1)
        save_field_csv(VectorField(grid=g, values=values, norm=tag), d / "f.csv")
        return ["norms", "--f", str(d / "f.csv")], 0
    return build


def _weakcheck_argv(cand, code):
    def build(d):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[256])
        x = g.cell_centers()[:, 0]
        save_field_csv(VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2), d / "f.csv")
        save_field_csv(VectorField(grid=g, values=cand(x)[:, None], norm=NormTag.L2), d / "cand.csv")
        (d / "bumps.json").write_text(json.dumps([{"center": [0.5], "radius": 0.25}, {"center": [0.35], "radius": 0.15}]))
        argv = ["weakcheck", "--f", str(d / "f.csv"), "--cand", str(d / "cand.csv"), "--axis", "0"]
        return argv + ["--bumps", str(d / "bumps.json")], code
    return build


def _acbound_argv(jump):
    def build(d):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[32, 32])
        c = g.cell_centers()
        if jump:  # a unit jump across x = 0.5, which the majorant 1 cannot dominate
            values = np.stack([(c[:, 0] >= 0.5).astype(float), np.zeros(g.num_cells)], axis=-1)
            curve = [[0.3, 0.5], [0.7, 0.5]]
        else:
            values = np.stack([np.sin(c[:, 0]), np.cos(c[:, 1])], axis=-1)
            curve = [[0.1, 0.1], [0.8, 0.6]]
        save_field_csv(VectorField(grid=g, values=values, norm=NormTag.L2), d / "f.csv")
        save_field_csv(ScalarField(grid=g, values=np.ones(g.num_cells)), d / "g.csv")
        save_polyline_csv(Polyline(curve), d / "c.csv")
        return ["acbound", "--f", str(d / "f.csv"), "--g", str(d / "g.csv"), "--curve", str(d / "c.csv")], int(jump)
    return build


CHECK_RULE_CASES = {
    "modulus-p1": _modulus_argv("1"),
    "modulus-p2": _modulus_argv("2"),
    "norms-l1": _norms_argv(NormTag.L1),
    "norms-l2": _norms_argv(NormTag.L2),
    "norms-linf": _norms_argv(NormTag.LINF),
    "weakcheck-exit0": _weakcheck_argv(lambda x: 2.0 * x, 0),
    "weakcheck-exit1": _weakcheck_argv(np.zeros_like, 1),
    "acbound-exit0": _acbound_argv(jump=False),
    "acbound-exit1": _acbound_argv(jump=True),
    "counterexample": lambda d: (["counterexample", "--ladder", "1e-1,1e-2", "--resolution", "128"], 0),
}


@pytest.mark.parametrize("case", sorted(CHECK_RULE_CASES))
def test_every_margin_is_nonnegative_exactly_when_its_check_passes(tmp_path, case):
    argv, code = CHECK_RULE_CASES[case](tmp_path)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    bounded = [c for c in json.loads(out.read_text())["checks"] if c["margin"] is not None]
    assert bounded
    for check in bounded:
        assert (check["margin"] >= 0) == check["pass"], check


# The file flags of each command: every one is required, and a report's
# ``inputs`` holds the SHA-256 digest of each, keyed by the flag name.
FILE_FLAGS = {
    "modulus": ("family", "grid"),
    "norms": ("f",),
    "weakcheck": ("f", "cand", "bumps"),
    "acbound": ("f", "g", "curve"),
    "counterexample": (),
}


@pytest.mark.parametrize("case", sorted(CHECK_RULE_CASES))
def test_report_inputs_are_the_digests_of_the_file_flags(tmp_path, case):
    argv, code = CHECK_RULE_CASES[case](tmp_path)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    expected = {
        flag: hashlib.sha256(Path(argv[argv.index(f"--{flag}") + 1]).read_bytes()).hexdigest()
        for flag in FILE_FLAGS[argv[0]]
    }
    assert json.loads(out.read_text())["inputs"] == expected


@pytest.mark.parametrize("case", sorted(CHECK_RULE_CASES))
def test_identical_runs_give_identical_reports_apart_from_wall_time(tmp_path, case):
    argv, code = CHECK_RULE_CASES[case](tmp_path)
    texts = []
    for name in ("first.json", "second.json"):
        assert main(argv + ["--out", str(tmp_path / name)]) == code
        lines = (tmp_path / name).read_text().splitlines()
        texts.append([line for line in lines if '"wall_time_s"' not in line])
        assert len(texts[-1]) == len(lines) - 1
    assert texts[0] == texts[1]


def assert_exit_2_without_report(argv, out, capsys, *names):
    """Exit 2 with one error line that mentions every one of ``names``."""
    status = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert all(name in err for name in names), err
    assert not out.exists()


def assert_exit_2_writing_nothing(argv, directory, capsys, flag):
    """Exit 2 with one error line naming ``flag``; no file under ``directory`` appears or goes."""
    before = sorted(directory.rglob("*"))
    status = main(argv)
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert flag in err, err
    assert sorted(directory.rglob("*")) == before


@pytest.fixture
def no_computation(monkeypatch):
    """Make every command's computation fail the test if it starts."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the computation started")

    for name in ("solve_modulus", "dichotomy_report"):
        monkeypatch.setattr(cli_mod, name, unreachable)
    monkeypatch.setattr(cli_mod.acceptance, "run_all", unreachable)


class TestMalformedInputsExit2:
    @pytest.mark.parametrize("record", ["[1, 2]", '{"curves": 5}', '{"curves": [5]}', '{"label": "x"}'])
    def test_family_manifest(self, modulus_inputs, capsys, record):
        manifest = modulus_inputs / "bad_fam.json"
        manifest.write_text(record)
        argv = ["modulus", "--family", str(manifest), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys)

    def test_unparsable_family_manifest_is_named(self, modulus_inputs, capsys):
        manifest = modulus_inputs / "bad_fam.json"
        manifest.write_text("{not json")
        argv = ["modulus", "--family", str(manifest), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(manifest))

    def test_unparsable_grid_record_is_named(self, modulus_inputs, capsys):
        grid = modulus_inputs / "bad_grid.json"
        grid.write_text("{not json")
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(grid)]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(grid))

    def test_unparsable_bump_battery_is_named(self, tmp_path, capsys):
        argv, _ = _weakcheck_argv(lambda x: 2.0 * x, 0)(tmp_path)
        (tmp_path / "bumps.json").write_text("{not json")
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "bumps.json"))

    @pytest.mark.parametrize("label", ['{"x": [1, NaN]}', "5", "null", '["rows"]'])
    def test_family_label_that_is_not_a_string(self, modulus_inputs, capsys, label):
        # a dict label, NaN and all, was once copied into the report's meta
        manifest = modulus_inputs / "bad_fam.json"
        manifest.write_text('{"label": %s, "curves": []}' % label)
        argv = ["modulus", "--family", str(manifest), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(manifest), "'label'")

    @pytest.mark.parametrize(
        "record,named",
        [({"box_min": ["0", "0"], "box_max": [True, 1], "resolution": ["4", 4]}, "box_min"),
         ({"box_min": [0, 0], "box_max": [True, 1], "resolution": [4, 4]}, "box_max"),
         ({"box_min": [0, 0], "box_max": [1, 1], "resolution": ["4", 4]}, "resolution"),
         ({"box_min": [[0, 0]], "box_max": [[1, 1]], "resolution": [[4, 4]]}, "box_min")],
        ids=["quoted", "bool", "quoted-resolution", "nested"],
    )
    def test_grid_record_with_entries_that_are_not_numbers(self, modulus_inputs, capsys, record, named):
        grid = modulus_inputs / "g.json"
        grid.write_text(json.dumps(record))
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(grid)]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(grid), f"{named} must hold finite numbers")

    @pytest.mark.parametrize(
        "sidecar", ["[1]", "dim_M 2.7", "dim_M true", "dim_M 0", "dim_M 1", "dim_M 1000000000000000"]
    )
    def test_field_sidecar(self, tmp_path, capsys, sidecar):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        save_field_csv(VectorField(grid=g, values=np.ones((16, 2)), norm=NormTag.L2), tmp_path / "f.csv")
        side = tmp_path / "f.csv.json"
        if sidecar.startswith("dim_M"):
            record = json.loads(side.read_text())
            record["dim_M"] = json.loads(sidecar.split()[1])  # 1 disagrees with the two value columns
            sidecar = json.dumps(record)
        side.write_text(sidecar)
        assert_exit_2_without_report(["norms", "--f", str(tmp_path / "f.csv")], tmp_path / "r.json", capsys)

    def test_field_whose_finite_differences_overflow(self, tmp_path, capsys, recwarn):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
        values = np.array([1.7e308, -1.7e308] * 5)[:9, None]
        save_field_csv(VectorField(grid=g, values=values, norm=NormTag.L2), tmp_path / "f.csv")
        argv = ["norms", "--f", str(tmp_path / "f.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, "axis 0", "overflow")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "tag,names",
        [(NormTag.L2, ("l2 value norms", "overflow")), (NormTag.LINF, ("L^2", "overflow"))],
        ids=["l2", "linf"],
    )
    def test_huge_constant_field_whose_norms_overflow(self, tmp_path, capsys, recwarn, tag, names):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
        save_field_csv(VectorField(grid=g, values=np.full((9, 1), 1e200), norm=tag), tmp_path / "f.csv")
        argv = ["norms", "--f", str(tmp_path / "f.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, *names)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "tag,res,p,names",
        [
            (NormTag.L2, [3, 3], "2", ("l2 g*", "overflow")),
            (NormTag.LINF, [3, 3], "2", ("linf g*", "overflow")),
            (NormTag.L1, [3, 3], "2", ("l1 g*", "overflow")),
            (NormTag.LINF, [9], "1", ("gradient length", "overflow")),
        ],
        ids=["l2", "linf", "l1", "gradient-length"],
    )
    def test_field_whose_squared_differences_overflow(self, tmp_path, capsys, recwarn, tag, res, p, names):
        # the values and their finite differences are finite; their squares are not
        g = Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)
        values = np.outer(np.arange(9.0) * 1e160, [1.0, 1.0])
        save_field_csv(VectorField(grid=g, values=values, norm=tag), tmp_path / "f.csv")
        argv = ["norms", "--f", str(tmp_path / "f.csv"), "--p", p]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, *names)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_acbound_whose_squared_increments_overflow(self, tmp_path, capsys, recwarn):
        # the interpolated values are finite; the squares in their l2 increments are not
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
        values = np.outer(np.arange(9.0) * 1e160, [1.0, 1.0])
        save_field_csv(VectorField(grid=g, values=values, norm=NormTag.L2), tmp_path / "f.csv")
        save_field_csv(ScalarField(grid=g, values=np.ones(9)), tmp_path / "g.csv")
        save_polyline_csv(Polyline([[0.1, 0.1], [0.9, 0.9]]), tmp_path / "c.csv")
        argv = ["acbound", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
                "--curve", str(tmp_path / "c.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, "AC bound", "overflow")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_acbound_majorant_with_two_value_columns_is_named(self, tmp_path, capsys):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
        for name in ("f", "g"):
            save_field_csv(VectorField(grid=g, values=np.ones((9, 2)), norm=NormTag.L2), tmp_path / f"{name}.csv")
        save_polyline_csv(Polyline([[0.1, 0.1], [0.9, 0.9]]), tmp_path / "c.csv")
        argv = ["acbound", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
                "--curve", str(tmp_path / "c.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "g.csv"), "dim_M = 2")

    def test_weakcheck_candidate_on_another_box(self, tmp_path, capsys):
        # same shape, so only the sidecars' boxes tell the grids apart
        for name, box_max in (("f", 1.0), ("cand", 2.0)):
            g = Grid(box_min=[0.0, 0.0], box_max=[box_max, box_max], resolution=[16, 16])
            save_field_csv(VectorField(grid=g, values=np.zeros((256, 1)), norm=NormTag.L2), tmp_path / f"{name}.csv")
        (tmp_path / "bumps.json").write_text(json.dumps([{"center": [0.5, 0.5], "radius": 0.2}]))
        argv = [
            "weakcheck", "--f", str(tmp_path / "f.csv"), "--cand", str(tmp_path / "cand.csv"),
            "--axis", "0", "--bumps", str(tmp_path / "bumps.json"),
        ]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, "candidate's grid")

    def test_field_row_missing_a_value(self, tmp_path, capsys):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        save_field_csv(VectorField(grid=g, values=np.ones((16, 2)), norm=NormTag.L2), tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]  # one value would be broadcast over both columns
        (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
        assert_exit_2_without_report(["norms", "--f", str(tmp_path / "f.csv")], tmp_path / "r.json", capsys)

    @pytest.mark.parametrize(
        "bumps",
        [
            [[0.5, 0.5], 0.2],
            {"center": [0.5, 0.5], "radius": 0.2},
            [{"center": [0.5, 0.5], "radius": "0.2"}],
            [{"center": [0.5], "radius": 0.2}],
            [{"center": [0.5, "x"], "radius": 0.2}],
            [{"center": ["0.5", 0.5], "radius": 0.3}],
            [],
        ],
        ids=["list-of-lists", "object", "string-radius", "short-center", "string-center", "quoted-center", "empty"],
    )
    def test_bump_battery(self, tmp_path, capsys, bumps):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        for name in ("f", "cand"):
            save_field_csv(VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2), tmp_path / f"{name}.csv")
        (tmp_path / "bumps.json").write_text(json.dumps(bumps))
        argv = [
            "weakcheck", "--f", str(tmp_path / "f.csv"), "--cand", str(tmp_path / "cand.csv"),
            "--axis", "0", "--bumps", str(tmp_path / "bumps.json"),
        ]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys)

    @pytest.mark.parametrize("flag,value", [("--p", "inf"), ("--p", "nan"), ("--tol", "nan"), ("--tol", "inf")])
    def test_non_finite_p_and_tol(self, tmp_path, capsys, flag, value):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        save_field_csv(VectorField(grid=g, values=np.ones((64, 1)), norm=NormTag.L2), tmp_path / "f.csv")
        save_field_csv(ScalarField(grid=g, values=np.ones(64)), tmp_path / "g.csv")
        save_polyline_csv(Polyline([[0.1, 0.1], [0.8, 0.6]]), tmp_path / "c.csv")
        argvs = [["norms", "--f", str(tmp_path / "f.csv")]]
        if flag == "--tol":  # acbound takes no --p
            argvs.append(["acbound", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
                          "--curve", str(tmp_path / "c.csv")])
        for argv in argvs:
            assert_exit_2_without_report(argv + [flag, value], tmp_path / "r.json", capsys)
        # the message names the flag, not a later symptom of the bad value
        assert main(["modulus", "--family", "x", "--grid", "y", flag, value]) == 2
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("t,ladder", [("2", "1e-1,1e-2"), ("0.95", "1e-1,1e-2"), ("0.5", "1e-1,0")])
    def test_counterexample_outside_the_window(self, tmp_path, capsys, t, ladder):
        argv = ["counterexample", "--t", t, "--ladder", ladder, "--resolution", "64"]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys)

    @pytest.mark.parametrize(
        "args,named",
        [
            (["--fixed-m", "0", "--ladder", "1e-1,1e-2"], "fixed_M"),
            (["--t", "0.5", "--ladder=-1e-2,-1e-1"], "h_ladder"),
            (["--ladder", "1e-1,abc"], "--ladder"),
            (["--ladder", ""], "h_ladder"),
            (["--ladder", ","], "h_ladder"),
            (["--resolution", "0", "--ladder", "1e-1,1e-2"], "resolution"),
            (["--resolution", "-3", "--ladder", "1e-1,1e-2"], "resolution"),
            # h / 2 rounded to 0, 10 / (h / 2) to inf, and the last two enumerated without end
            (["--ladder", "5e-324"], "5e-324"),
            (["--ladder", "1e-320"], "1e-320"),
            (["--ladder", "1e-300"], "1e-300"),
            (["--fixed-m", str(10**30)], "fixed_M"),
            # under --fixed-m no cap catches them: both once reported "RNP-like"
            (["--fixed-m", "10", "--ladder", "1e-1,5e-324"], "h = 5e-324"),
            (["--fixed-m", "10", "--ladder", "1e-1,1e-320"], "h = 1e-320"),
        ],
        ids=[
            "fixed-m-0", "negative-steps", "unparsable-ladder", "empty-ladder", "comma-only-ladder",
            "resolution-0", "negative-resolution", "step-halving-to-0", "step-overflowing-m", "step-over-the-cap",
            "fixed-m-over-the-cap", "fixed-m-step-halving-to-0", "fixed-m-step-below-resolution",
        ],
    )
    def test_counterexample_bad_truncation_or_steps(self, tmp_path, capsys, monkeypatch, args, named):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rung was computed")

        monkeypatch.setattr(rnp_lab, "_quotient_gap", unreachable)
        argv = ["counterexample", "--resolution", "64"] + args
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, named)

    @pytest.mark.parametrize("resolution", [[2**32, 2**32], [2**32, 2**31], [2**63, 1], [3, 3074457345618258603]])
    def test_grid_with_more_cells_than_an_index_holds(self, modulus_inputs, capsys, resolution):
        # the cell counts once wrapped around to 0 and -2^63, and a zero-cell
        # grid died with a numpy traceback and exit status 1; the last one's
        # count fitted an index once float64 had rounded its second entry
        grid = modulus_inputs / "grid.json"
        grid.unlink()
        grid.write_text(json.dumps({"box_min": [0.0, 0.0], "box_max": [1.0, 1.0], "resolution": resolution}))
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(grid)]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(resolution))

    @pytest.mark.parametrize(
        "error",
        [MemoryError("Unable to allocate 20.8 GiB for an array with shape (2791728742,) and data type float64"),
         MemoryError()],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory(self, modulus_inputs, capsys, monkeypatch, error):
        # raised, never allocated: on a larger host the allocation could succeed
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, "solve_modulus", out_of_memory)
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(error) or "MemoryError")

    def test_grid_record_missing_a_key(self, modulus_inputs, capsys):
        grid = modulus_inputs / "grid.json"
        grid.write_text(json.dumps({"box_max": [1.0, 1.0], "resolution": [16, 16]}))
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(grid)]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(grid), "'box_min'")

    @pytest.mark.parametrize("key", ["grid", "dim_M", "norm_tag"])
    def test_field_sidecar_missing_a_key(self, tmp_path, capsys, key):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        save_field_csv(VectorField(grid=g, values=np.ones((16, 2)), norm=NormTag.L2), tmp_path / "f.csv")
        side = tmp_path / "f.csv.json"
        record = json.loads(side.read_text())
        del record[key]
        side.write_text(json.dumps(record))
        argv = ["norms", "--f", str(tmp_path / "f.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "f.csv"), repr(key))

    def test_bump_object_missing_a_key(self, tmp_path, capsys):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        for name in ("f", "cand"):
            save_field_csv(VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2), tmp_path / f"{name}.csv")
        bumps = tmp_path / "bumps.json"
        bumps.write_text(json.dumps([{"center": [0.5, 0.5], "radius": 0.2}, {"center": [0.4, 0.4]}]))
        argv = [
            "weakcheck", "--f", str(tmp_path / "f.csv"), "--cand", str(tmp_path / "cand.csv"),
            "--axis", "0", "--bumps", str(bumps),
        ]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(bumps), "'radius'")

    @pytest.mark.parametrize("index", ["99999999999999999999", "-99999999999999999999"])
    def test_field_index_beyond_int64(self, tmp_path, capsys, index):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        save_field_csv(VectorField(grid=g, values=np.ones((16, 2)), norm=NormTag.L2), tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        lines[1] = f"{index},0,1,1"
        (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
        argv = ["norms", "--f", str(tmp_path / "f.csv")]
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "f.csv"), "int64")

    @pytest.mark.parametrize("max_iter", ["-5", "0"])
    def test_modulus_max_iter_below_one(self, modulus_inputs, capsys, max_iter):
        argv = [
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json"),
            "--p", "3", "--max-iter", max_iter,
        ]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, "--max-iter")

    def _acbound_argv(self, tmp_path, vertices_csv):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        save_field_csv(VectorField(grid=g, values=np.ones((64, 2)), norm=NormTag.L2), tmp_path / "f.csv")
        save_field_csv(ScalarField(grid=g, values=np.ones(64)), tmp_path / "g.csv")
        (tmp_path / "c.csv").write_text(vertices_csv)
        return ["acbound", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
                "--curve", str(tmp_path / "c.csv")]

    def test_ragged_polyline(self, tmp_path, capsys):
        argv = self._acbound_argv(tmp_path, "0.1,0.1\n\n0.5,0.5\n0.6,0.6,0.6\n0.7,0.7\n")
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "c.csv"), "line 4")

    @pytest.mark.parametrize("coordinate", ["x", "nan", "inf", "1e999"])
    def test_unparsable_polyline_coordinate(self, tmp_path, capsys, coordinate):
        argv = self._acbound_argv(tmp_path, f"0.1,0.1\n\n0.5,{coordinate}\n0.7,0.7\n")
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, str(tmp_path / "c.csv"), "line 3")

    @pytest.mark.parametrize("coordinate", ["nan", "-inf", "1e999"])
    def test_family_curve_with_a_coordinate_that_is_not_finite(self, modulus_inputs, capsys, coordinate):
        curve = modulus_inputs / "curve_0003.csv"
        curve.write_text(f"0.0,0.21875\n1.0,{coordinate}\n")
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys, str(curve), "line 2")

    def test_acbound_curve_of_another_dimension(self, tmp_path, capsys):
        argv = self._acbound_argv(tmp_path, "0.1,0.1,0.1\n0.5,0.5,0.5\n")
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, "3 coordinates", "2 axes")

    @pytest.mark.parametrize(
        "case,flag",
        [(case, flag) for case in ("modulus-p2", "norms-l2", "weakcheck-exit0", "acbound-exit0")
         for flag in FILE_FLAGS[case.split("-")[0]]],
    )
    def test_missing_input_file_names_its_flag(self, tmp_path, capsys, case, flag):
        argv, _ = CHECK_RULE_CASES[case](tmp_path)
        argv[argv.index(f"--{flag}") + 1] = str(tmp_path / "missing")
        assert_exit_2_without_report(argv, tmp_path / "r.json", capsys, f"input file for --{flag} not found")

    def test_suite_out_under_a_missing_directory(self, tmp_path, capsys, no_computation):
        argv = ["suite", "--out", str(tmp_path / "nodir" / "s.json")]
        assert_exit_2_writing_nothing(argv, tmp_path, capsys, "--out")

    def test_out_set_to_a_directory(self, modulus_inputs, capsys, no_computation):
        argv = ["modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_writing_nothing(argv + ["--out", str(modulus_inputs)], modulus_inputs, capsys, "--out")

    def test_rho_out_under_a_missing_directory(self, modulus_inputs, capsys, no_computation):
        argv = [
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json"),
            "--out", str(modulus_inputs / "r.json"), "--rho-out", str(modulus_inputs / "nodir" / "rho.csv"),
        ]
        assert_exit_2_writing_nothing(argv, modulus_inputs, capsys, "--rho-out")

    def test_export_plots_set_to_a_file(self, tmp_path, capsys, no_computation):
        (tmp_path / "plots").write_text("not a directory\n")
        argv = ["counterexample", "--ladder", "1e-1,1e-2", "--resolution", "64",
                "--out", str(tmp_path / "r.json"), "--export-plots", str(tmp_path / "plots")]
        assert_exit_2_writing_nothing(argv, tmp_path, capsys, "--export-plots")
        assert (tmp_path / "plots").read_text() == "not a directory\n"

    def test_export_plots_under_a_file(self, tmp_path, capsys, no_computation):
        (tmp_path / "file").write_text("not a directory\n")
        argv = ["counterexample", "--ladder", "1e-1,1e-2", "--resolution", "64",
                "--out", str(tmp_path / "r.json"), "--export-plots", str(tmp_path / "file" / "plots")]
        assert_exit_2_writing_nothing(argv, tmp_path, capsys, "--export-plots")
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_plot_export_that_fails_at_write_time(self, tmp_path, capsys, monkeypatch):
        # the blocking file appears after validation, while the ladder runs
        def ladder_then_file(*args, real=cli_mod.dichotomy_report, **kwargs):
            (tmp_path / "file").write_text("")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "dichotomy_report", ladder_then_file)
        argv = ["counterexample", "--ladder", "1e-1,1e-2", "--resolution", "64",
                "--out", str(tmp_path / "r.json"), "--export-plots", str(tmp_path / "file" / "plots")]
        status = main(argv)
        err = capsys.readouterr().err
        assert status == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1 and "plots" in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no report, no temporary

    def test_report_that_fails_at_write_time_leaves_no_rho(self, modulus_inputs, capsys, monkeypatch):
        # --rho-out is staged first; the report's directory turns into a file while the solve runs
        (modulus_inputs / "sub").mkdir()

        def solve_then_file(*args, real=cli_mod.solve_modulus, **kwargs):
            (modulus_inputs / "sub").rmdir()
            (modulus_inputs / "sub").write_text("")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "solve_modulus", solve_then_file)
        before = sorted(p.name for p in modulus_inputs.iterdir())
        argv = [
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json"),
            "--out", str(modulus_inputs / "sub" / "r.json"), "--rho-out", str(modulus_inputs / "rho.csv"),
        ]
        status = main(argv)
        err = capsys.readouterr().err
        assert status == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        assert sorted(p.name for p in modulus_inputs.iterdir()) == before


class TestWriteFilesAllOrNone:
    """A rename that fails at any point leaves the file system as it found it."""

    @staticmethod
    def fail_on_call(monkeypatch, n):
        """Make the n-th Path.replace call raise."""
        real, calls = Path.replace, []

        def replace(self, target):
            calls.append(self)
            if len(calls) == n:
                raise OSError("rename failed")
            return real(self, target)

        monkeypatch.setattr(Path, "replace", replace)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_replaced_targets_get_their_contents_back(self, tmp_path, monkeypatch, n):
        old = {tmp_path / "a.json": "old a\n", tmp_path / "b.csv": "old b\n"}
        for path, text in old.items():
            path.write_text(text)
        self.fail_on_call(monkeypatch, n)
        with pytest.raises(OSError, match="rename failed"):
            cli_mod.write_files({path: "new\n" for path in old} | {tmp_path / "c.csv": "new\n"})
        assert {p: p.read_text() for p in tmp_path.iterdir()} == old

    @pytest.mark.parametrize("n", range(1, 4))
    def test_directories_made_here_are_removed_and_the_error_kept(self, tmp_path, monkeypatch, n):
        self.fail_on_call(monkeypatch, n)
        with pytest.raises(OSError, match="rename failed"):
            cli_mod.write_files({tmp_path / "new" / "sub" / "a.csv": "a\n", tmp_path / "new" / "b.csv": "b\n"})
        assert list(tmp_path.iterdir()) == []

    def test_success_leaves_only_the_targets(self, tmp_path):
        (tmp_path / "a.json").write_text("old a\n")
        cli_mod.write_files({tmp_path / "a.json": "new a\n", tmp_path / "d" / "b.csv": "new b\n"})
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["a.json", "d", "d/b.csv"]
        assert (tmp_path / "a.json").read_text() == "new a\n" and (tmp_path / "d" / "b.csv").read_text() == "new b\n"

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_modulus_outputs_survive_a_failed_rename(self, modulus_inputs, capsys, monkeypatch, n):
        argv = [
            "modulus", "--family", str(modulus_inputs / "fam.json"), "--grid", str(modulus_inputs / "grid.json"),
            "--out", str(modulus_inputs / "r.json"), "--rho-out", str(modulus_inputs / "rho.csv"),
        ]
        inputs = set(modulus_inputs.iterdir())
        assert main(argv) == 0
        for path in set(modulus_inputs.iterdir()) - inputs:  # the report, the density and its sidecar
            path.write_text("old\n")
        before = {p: p.read_bytes() for p in modulus_inputs.iterdir()}
        self.fail_on_call(monkeypatch, n)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip() == "modlab: error: rename failed"
        assert {p: p.read_bytes() for p in modulus_inputs.iterdir()} == before
