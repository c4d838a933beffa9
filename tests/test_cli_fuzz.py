"""Fuzz of the CLI exit-code contract over malformed input files.

Each test keeps every input but one well formed and draws the remaining one
(grid JSON, family manifest, field sidecar, bump battery) from near-valid
records, arbitrary small JSON values and raw bytes. ``main`` must not raise,
must return 0, 1 or 2, and on 2 must print one line and write no report.
Sizes stay small so that a well-formed draw runs in milliseconds.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import CurveFamily, Grid, NormTag, Polyline, VectorField, save_family
from modlab.cli import main
from modlab.geometry import save_polyline_csv
from modlab.vectorvalues import save_field_csv

FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-2.0, 6.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]),
    st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
small_lists = st.lists(st.one_of(st.integers(-2, 6), st.floats(-2.0, 6.0), scalars), max_size=3)


def near(valid):
    """The valid value, a list of small numbers, or arbitrary JSON."""
    return st.one_of(st.just(valid), small_lists, json_values)


grid_records = st.fixed_dictionaries(
    {"box_min": near([0.0, 0.0]), "box_max": near([1.0, 1.0]), "resolution": near([4, 4])}
)


def contents(records):
    """File text: a JSON dump of a drawn record, or raw bytes."""
    return st.one_of(records.map(json.dumps), json_values.map(json.dumps), st.binary(max_size=16))


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def run_main(argv, out):
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv + ["--out", str(out)])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
        assert not out.exists()
    else:
        assert out.exists()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
    g.save(d / "grid.json")
    save_family(CurveFamily(curves=[Polyline([[0.1, 0.2], [0.9, 0.7]]), Polyline([[0.2, 0.9], [0.6, 0.1]])]),
                d / "fam.json")
    save_polyline_csv(Polyline([[0.1, 0.1], [0.8, 0.4], [0.3, 0.9]]), d / "c0.csv")
    save_polyline_csv(Polyline([[0.5, 0.5], [0.5, 0.5]]), d / "const.csv")
    save_polyline_csv(Polyline([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]), d / "c3d.csv")
    save_polyline_csv(Polyline([[0.1, 0.1], [1.9, 0.4]]), d / "outside.csv")
    (d / "bad.csv").write_text("x,y\n1\n")
    fine = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
    x = fine.cell_centers()
    save_field_csv(VectorField(grid=fine, values=x[:, :1] ** 2, norm=NormTag.L2), d / "f.csv")
    save_field_csv(VectorField(grid=fine, values=2 * x[:, :1], norm=NormTag.L2), d / "cand.csv")
    coarse = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
    save_field_csv(VectorField(grid=coarse, values=np.sin(coarse.cell_centers()), norm=NormTag.L2), d / "v.csv")
    return d


@FUZZ
@given(content=contents(grid_records))
def test_grid_json(work, content):
    write(work / "g.json", content)
    run_main(["modulus", "--family", str(work / "fam.json"), "--grid", str(work / "g.json")], work / "r.json")


curve_paths = st.sampled_from(["c0.csv", "const.csv", "c3d.csv", "outside.csv", "bad.csv", "missing.csv", "", "."])
manifests = st.fixed_dictionaries(
    {"curves": st.one_of(st.lists(curve_paths, max_size=3), st.lists(json_values, max_size=2), json_values)},
    optional={"label": json_values},
)


@FUZZ
@given(content=contents(manifests))
def test_family_manifest(work, content):
    write(work / "m.json", content)
    run_main(["modulus", "--family", str(work / "m.json"), "--grid", str(work / "grid.json")], work / "r.json")


sidecars = st.fixed_dictionaries(
    {
        "norm_tag": st.one_of(st.sampled_from(["l1", "l2", "linf", "L2"]), json_values),
        "dim_M": near(2),
        "grid": st.one_of(st.just({"box_min": [0, 0], "box_max": [1, 1], "resolution": [3, 3]}), grid_records),
    }
)


@FUZZ
@given(content=contents(sidecars))
def test_field_sidecar(work, content):
    write(work / "v.csv.json", content)
    run_main(["norms", "--f", str(work / "v.csv")], work / "r.json")


bumps = st.lists(st.fixed_dictionaries({"center": near([0.5, 0.5]), "radius": near(0.2)}), max_size=3)


@FUZZ
@given(content=contents(bumps))
def test_bump_battery(work, content):
    write(work / "b.json", content)
    argv = ["weakcheck", "--f", str(work / "f.csv"), "--cand", str(work / "cand.csv"), "--axis", "0"]
    run_main(argv + ["--bumps", str(work / "b.json")], work / "r.json")
