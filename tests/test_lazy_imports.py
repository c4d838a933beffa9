"""Importing modlab and running the curve, norm, weak-derivative and RNP
checks loads no scipy module at all, from the library or through the command
line; a modulus solve loads scipy.sparse and scipy.linalg, and never
scipy.optimize. Nor do the import, the library checks and the file-less
counterexample command load hashlib, and with it OpenSSL; the first command
with a file input does, for its input digest. No command but suite loads
the acceptance battery.

Each case runs in a fresh interpreter, since this test process has loaded
scipy already (the oracles use scipy's interpolator)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modlab

PRELUDE = """
import json
import sys

import numpy as np

def loaded():
    return [name for name in ("scipy.optimize", "scipy.interpolate", "scipy.linalg") if name in sys.modules]

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

def hashlib_modules():
    return [name for name in ("hashlib", "_hashlib") if name in sys.modules]

def scipy_subpackages():
    # the public subpackages scipy.X, leaving out private ones such as scipy._lib
    return [
        name for name in scipy_modules()
        if name.count(".") == 1 and not name.startswith("scipy._") and hasattr(sys.modules[name], "__path__")
    ]
"""

SCRIPT = PRELUDE + """
hashing = {"start": hashlib_modules()}  # site packages may load hashlib at start-up
import modlab.cli
from modlab import (
    CurveFamily, Grid, NormTag, Polyline, ScalarField, TestFunction, VectorField, ac_bound_check,
    assemble_problem, dichotomy_report, finite_diff_gradient, ftc_along_curve_check, lipschitz_certificate,
    norm_equivalence_check, sin_family, solve_modulus, weak_derivative_check,
)

seen = {"import": loaded(), "import_any": scipy_modules()}
hashing["import"] = hashlib_modules()
g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
f = VectorField(grid=g, values=g.cell_centers() ** 2, norm=NormTag.L2)
c = Polyline([[0.1, 0.2], [0.9, 0.7]])
ac_bound_check(f, ScalarField(grid=g, values=np.full(g.num_cells, 4.0)), c, tol=1e-6)
ftc_along_curve_check(f, finite_diff_gradient(f), c, tol=1e-3)
norm_equivalence_check(f, 2.0)
seen["checks"] = loaded()
df = VectorField(grid=g, values=2.0 * g.cell_centers()[:, :1], norm=NormTag.L2)
fx = VectorField(grid=g, values=g.cell_centers()[:, :1] ** 2, norm=NormTag.L2)
weak_derivative_check(fx, df, axis=0, tests=[TestFunction(center=[0.5, 0.5], radius=0.3)], tol=5e-2)
lipschitz_certificate(sin_family(16, 64))
dichotomy_report(0.7, [1e-1, 1e-2], resolution=64)
seen["checks_any"] = scipy_modules()
hashing["checks"] = hashlib_modules()
seen["hashlib"] = hashing
solve_modulus(assemble_problem(CurveFamily(curves=[c]), g, float(sys.argv[1])))
seen["solve"] = loaded()
seen["solve_subpackages"] = scipy_subpackages()
print(json.dumps(seen))
"""

CLI_SCRIPT = PRELUDE + """
hashing = {"start": hashlib_modules()}
from pathlib import Path

from modlab import Grid, NormTag, Polyline, ScalarField, VectorField, save_polyline_csv
from modlab.cli import main
from modlab.vectorvalues import save_field_csv

d = Path(sys.argv[1])
g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
x = g.cell_centers()
save_field_csv(VectorField(grid=g, values=np.stack([np.sin(x[:, 0]), x[:, 0] * x[:, 1]], axis=-1), norm=NormTag.L2), d / "f.csv")
save_field_csv(VectorField(grid=g, values=np.stack([np.cos(x[:, 0]), x[:, 1]], axis=-1), norm=NormTag.L2), d / "cand.csv")
save_field_csv(ScalarField(grid=g, values=np.full(g.num_cells, 2.0)), d / "g.csv")
save_polyline_csv(Polyline([[0.1, 0.1], [0.8, 0.6]]), d / "c.csv")
(d / "bumps.json").write_text(json.dumps([{"center": [0.5, 0.5], "radius": 0.25}]))
# the file-less command first, while no digest has loaded hashlib
commands = {
    "counterexample": ["--ladder", "1e-1,1e-2", "--resolution", "64"],
    "norms": ["--f", str(d / "f.csv")],
    "acbound": ["--f", str(d / "f.csv"), "--g", str(d / "g.csv"), "--curve", str(d / "c.csv")],
    "weakcheck": ["--f", str(d / "f.csv"), "--cand", str(d / "cand.csv"), "--bumps", str(d / "bumps.json"), "--axis", "0"],
}
seen = {"import_any": scipy_modules(), "hashlib": hashing, "battery": {"import": "modlab.acceptance" in sys.modules}}
hashing["import"] = hashlib_modules()
for name, argv in commands.items():
    seen[name] = main([name, *argv, "--out", str(d / f"{name}.json")])
    seen[name + "_any"] = scipy_modules()
    hashing[name] = hashlib_modules()
    seen["battery"][name] = "modlab.acceptance" in sys.modules
print(json.dumps(seen))
"""


def _run(script: str, *args: str) -> dict:
    src = str(Path(modlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return json.loads(run.stdout)


def _assert_hashlib_unloaded(hashing: dict, *stages: str) -> None:
    """If hashlib was not loaded before modlab, it is still not after each stage."""
    if hashing["start"] == []:
        for stage in stages:
            assert hashing[stage] == [], stage


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_scipy_optimize_never_loads(p):
    seen = _run(SCRIPT, str(p))
    assert seen["import"] == [] and seen["checks"] == []
    assert seen["solve"] == ["scipy.linalg"]
    assert seen["import_any"] == [] and seen["checks_any"] == []
    assert seen["solve_subpackages"] == ["scipy.linalg", "scipy.sparse"]
    _assert_hashlib_unloaded(seen["hashlib"], "import", "checks")


def test_cli_checks_load_no_scipy(tmp_path):
    seen = _run(CLI_SCRIPT, str(tmp_path))
    assert seen.pop("import_any") == []
    # only the suite command loads the acceptance battery
    assert seen.pop("battery") == dict.fromkeys(("import", "counterexample", "norms", "acbound", "weakcheck"), False)
    hashing = seen.pop("hashlib")
    _assert_hashlib_unloaded(hashing, "import", "counterexample")
    assert hashing["norms"] == ["hashlib", "_hashlib"]  # the first input digest
    for name in ("norms", "acbound", "weakcheck", "counterexample"):
        assert seen[name] in (0, 1) and (tmp_path / f"{name}.json").is_file()
        assert seen[name + "_any"] == [], name
