"""Every report bit of a fixed battery of AC and FTC curve checks, pinned by
tests/data/curve_checks_golden.json (regenerated by
tests/data/make_curve_golden.py). Neither check calls BLAS, so the digests
hold on every BLAS kernel."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _battery():
    spec = importlib.util.spec_from_file_location("make_curve_golden", DATA / "make_curve_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_curve_check_reports_are_byte_identical():
    golden = json.loads((DATA / "curve_checks_golden.json").read_text())["digests"]
    digests = _battery().digests()
    assert digests.keys() == golden.keys()
    moved = sorted(name for name in golden if digests[name] != golden[name])
    assert moved == []


def test_battery_crosses_both_checks_grids_norms_shapes_and_sizes():
    fields = [name.split("-") for name, _ in _battery().cases()]
    assert [len({f[i] for f in fields}) for i in range(5)] == [2, 2, 3, 5, 3]
    assert len(fields) == 2 * 2 * 3 * 5 * 3
