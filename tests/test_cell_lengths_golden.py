"""Every bit of the constraint rows of a fixed battery of curve families,
pinned by tests/data/cell_lengths_golden.json (regenerated by
tests/data/make_cell_lengths_golden.py). Assembly calls no BLAS, so the
digests hold on every BLAS kernel."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _battery():
    spec = importlib.util.spec_from_file_location("make_cell_lengths_golden", DATA / "make_cell_lengths_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_constraint_rows_are_bit_identical():
    golden = json.loads((DATA / "cell_lengths_golden.json").read_text())["digests"]
    digests = _battery().digests()
    assert digests.keys() == golden.keys()
    moved = sorted(name for name in golden if digests[name] != golden[name])
    assert moved == []


def test_battery_crosses_grids_shapes_and_family_sizes():
    fields = [name.split("-") for name, _, _ in _battery().cases()]
    assert [sorted({f[i] for f in fields}) for i in range(3)] == [
        ["1d", "2d", "3d"],
        ["boundary", "centres", "faces", "random", "repeats"],
        ["1", "40", "5"],
    ]
    assert len(fields) == 3 * 5 * 3
