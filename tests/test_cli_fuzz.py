"""Fuzz of the CLI exit-code contract over malformed input files.

Each test keeps every input but one well formed and draws the remaining one
(grid JSON, family manifest, field sidecar, bump battery) from near-valid
records, records missing one key, arbitrary small JSON values and raw
bytes; a field CSV body is a valid file's rows, shuffled and respelled,
with one or two drawn faults (and once with none), or rows drawn from the
token grammar of ``field_csv_faults.token_rows``, and an ``acbound``
curve body is drawn from the same grammar. ``main`` must not raise
or warn, must return 0, 1 or 2, and on 2 must print one line that is more
than a bare key and write no report. One property is an oracle, not only
this contract: a valid grid record, sidecar or bump battery with one number
respelled as another JSON type must exit 2 naming the file and the key, and
so must a curve body that breaks the grammar, naming the file and a line.
Sizes stay small so that a well-formed draw runs in milliseconds.
"""

import contextlib
import functools
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modlab import CurveFamily, Grid, NormTag, Polyline, VectorField, save_family
from modlab.cli import main
from modlab.geometry import ScalarField, save_polyline_csv
from modlab.vectorvalues import save_field_csv
from field_csv_faults import FAULTS, add_fault, polyline_rows, respelled, shuffled_rows, token_rows, write_field

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


def missing_a_key(records):
    """A drawn record with one of its keys removed."""
    return records.flatmap(lambda r: st.sampled_from(sorted(r)).map(lambda k: {x: v for x, v in r.items() if x != k}))


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
    # unlinked first: rewriting a file in place can wait for its write-back
    path.unlink(missing_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def run_main(argv, out):
    """main's status and stderr text, once the exit-code contract is checked."""
    if out.exists():
        out.unlink()
    err = io.StringIO()
    # a RuntimeWarning is a second line on stderr; here it raises instead
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(argv + ["--out", str(out)])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
        # a bare KeyError text such as "'box_min'" names neither the file nor the rule
        assert not re.fullmatch(r"modlab: error: '[^']*'", err.getvalue().strip())
        assert not out.exists()
    else:
        assert out.exists()
    return status, err.getvalue()


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
    save_field_csv(ScalarField(grid=fine, values=np.ones(fine.num_cells)), d / "g.csv")
    coarse = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
    save_field_csv(VectorField(grid=coarse, values=np.sin(coarse.cell_centers()), norm=NormTag.L2), d / "v.csv")
    return d


@FUZZ
@given(content=contents(grid_records | missing_a_key(grid_records)))
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
        "grid": st.one_of(
            st.just({"box_min": [0, 0], "box_max": [1, 1], "resolution": [3, 3]}),
            grid_records,
            missing_a_key(grid_records),
        ),
    }
)


@FUZZ
@given(content=contents(sidecars | missing_a_key(sidecars)))
def test_field_sidecar(work, content):
    write(work / "v.csv.json", content)
    run_main(["norms", "--f", str(work / "v.csv")], work / "r.json")


bump_objects = st.fixed_dictionaries({"center": near([0.5, 0.5]), "radius": near(0.2)})
bumps = st.lists(bump_objects | missing_a_key(bump_objects), max_size=3)


@FUZZ
@given(content=contents(bumps))
def test_bump_battery(work, content):
    write(work / "b.json", content)
    argv = ["weakcheck", "--f", str(work / "f.csv"), "--cand", str(work / "cand.csv"), "--axis", "0"]
    run_main(argv + ["--bumps", str(work / "b.json")], work / "r.json")


field_grid = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])


@settings(FUZZ, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2),
)
@example(seed=0, faults=[])
def test_field_csv_body(work, seed, faults):
    rng = np.random.default_rng(seed)
    rows = [[respelled(t, rng) for t in row] for row in shuffled_rows(field_grid, 2, rng)]
    for fault in faults:
        add_fault(fault, rows, field_grid, rng)
    write_field(work / "w.csv", field_grid, 2, rows, rng)
    run_main(["norms", "--f", str(work / "w.csv")], work / "r.json")


@FUZZ
@given(drawn=token_rows(field_grid, 2))
def test_field_csv_tokens(work, drawn):
    write_field(work / "t.csv", field_grid, 2, drawn[0], np.random.default_rng(0))
    run_main(["norms", "--f", str(work / "t.csv")], work / "r.json")


@settings(FUZZ, max_examples=80)
@given(drawn=polyline_rows(2), ragged=st.sampled_from([None, "short", "long"]), data=st.data())
def test_polyline_csv_body(work, drawn, ragged, data):
    rows, refused = drawn
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    if ragged == "short":
        row.pop()
    elif ragged == "long":
        row.append("0.5")
    lines = [",".join(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", "  ", "\t"])))
    write(work / "curve.csv", "\n".join(lines) + "\n")
    argv = ["acbound", "--f", str(work / "f.csv"), "--g", str(work / "g.csv"), "--curve", str(work / "curve.csv")]
    status, err = run_main(argv, work / "r.json")
    if refused or ragged:
        assert status == 2 and re.search(rf"line \d+ of {re.escape(str(work / 'curve.csv'))}", err), (lines, err)


VALID = {
    "grid": {"box_min": [0.0, 0.0], "box_max": [1.0, 1.0], "resolution": [4, 4]},
    "sidecar": {"norm_tag": "l2", "dim_M": 2, "grid": {"box_min": [0.0, 0.0], "box_max": [1.0, 1.0], "resolution": [3, 3]}},
    "bumps": [{"center": [0.5, 0.5], "radius": 0.2}],
}
# the ways a number can be written as another JSON type
RESPELLINGS = {"string": json.dumps, "true": lambda x: True, "false": lambda x: False, "null": lambda x: None,
               "list": lambda x: [x]}


def number_paths(record, path=()):
    """The key and index path of every number in a JSON record."""
    if isinstance(record, (dict, list)):
        items = record.items() if isinstance(record, dict) else enumerate(record)
        return [p for k, v in items for p in number_paths(v, path + (k,))]
    return [path] if type(record) in (int, float) else []


respelled_numbers = st.sampled_from(sorted(VALID)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(number_paths(VALID[kind])), st.sampled_from(sorted(RESPELLINGS)))
)


@settings(FUZZ, max_examples=100)
@given(case=respelled_numbers)
def test_a_number_respelled_as_another_json_type_exits_2(work, case):
    kind, path, respelling = case
    record = json.loads(json.dumps(VALID[kind]))
    *parents, last = path
    holder = functools.reduce(lambda node, key: node[key], parents, record)
    holder[last] = RESPELLINGS[respelling](holder[last])
    f, cand = str(work / "f.csv"), str(work / "cand.csv")
    written, named, argv = {
        "grid": ("g.json", "g.json", ["modulus", "--family", str(work / "fam.json"), "--grid", str(work / "g.json")]),
        "sidecar": ("v.csv.json", "v.csv", ["norms", "--f", str(work / "v.csv")]),
        "bumps": ("b.json", "b.json", ["weakcheck", "--f", f, "--cand", cand, "--axis", "0", "--bumps", str(work / "b.json")]),
    }[kind]
    write(work / written, json.dumps(record))
    status, err = run_main(argv, work / "r.json")
    key = [k for k in path if isinstance(k, str)][-1]
    assert status == 2 and str(work / named) in err and key in err, (case, err)
