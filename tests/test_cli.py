import json
import math

import numpy as np
import pytest

from modlab import (
    CheckRecord,
    CurveFamily,
    Grid,
    NormTag,
    Polyline,
    Report,
    VectorField,
    save_family,
)
from modlab.cli import export_plot_data, main
from modlab.vectorvalues import save_field_csv, save_scalar_field_csv
from modlab.geometry import ScalarField, save_polyline_csv


@pytest.fixture
def modulus_inputs(tmp_path):
    g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
    g.save(tmp_path / "grid.json")
    h = 1.0 / 16
    fam = CurveFamily(
        curves=[Polyline([[0.0, (j + 0.5) * h], [1.0, (j + 0.5) * h]]) for j in range(16)],
        label="rows",
    )
    save_family(fam, tmp_path / "fam.json")
    return tmp_path


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
        save_scalar_field_csv(ScalarField(grid=g, values=np.ones(g.num_cells)), tmp_path / "g.csv")
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
            return [Report(command="c", checks=[CheckRecord(name="x", value=0.0, passed=True)])]

        def fake_one_fail():
            return [Report(command="c", checks=[CheckRecord(name="x", value=2.0, bound=1.0, passed=False)])]

        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_all_pass)
        assert main(["suite", "--out", str(tmp_path / "s1.json")]) == 0
        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_one_fail)
        assert main(["suite", "--out", str(tmp_path / "s2.json")]) == 1
        assert json.loads((tmp_path / "s2.json").read_text())["passed"] is False


class TestPlotExport:
    def test_empty_report_is_a_notice_noop(self, tmp_path, capsys):
        written = export_plot_data(Report(command="none"), tmp_path / "plots")
        assert written == []
        assert "no series" in capsys.readouterr().out

    def test_series_sorted_and_headered(self, tmp_path):
        rep = Report(
            command="study",
            series=[
                type(
                    "S",
                    (),
                    {"name": "refine", "columns": ["resolution", "value"], "rows": [[128.0, 1.0], [64.0, 0.9]]},
                )()
            ],
        )
        files = export_plot_data(rep, tmp_path)
        text = files[0].read_text().splitlines()
        assert text[0] == "resolution,value"
        assert text[1].startswith("64")


def assert_exit_2_without_report(argv, out, capsys):
    status = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


class TestMalformedInputsExit2:
    @pytest.mark.parametrize("record", ["[1, 2]", '{"curves": 5}', '{"curves": [5]}', '{"label": "x"}'])
    def test_family_manifest(self, modulus_inputs, capsys, record):
        manifest = modulus_inputs / "bad_fam.json"
        manifest.write_text(record)
        argv = ["modulus", "--family", str(manifest), "--grid", str(modulus_inputs / "grid.json")]
        assert_exit_2_without_report(argv, modulus_inputs / "r.json", capsys)

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
        ],
        ids=["list-of-lists", "object", "string-radius", "short-center", "string-center"],
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
        save_scalar_field_csv(ScalarField(grid=g, values=np.ones(64)), tmp_path / "g.csv")
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
