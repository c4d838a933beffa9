"""Importing modlab and running the curve checks loads none of scipy.optimize,
scipy.interpolate and scipy.linalg; a modulus solve loads scipy.linalg and
never scipy.optimize.

Each case runs in a fresh interpreter, since this test process has loaded
both modules already (the oracles use scipy's interpolator)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modlab

SCRIPT = """
import json
import sys

import numpy as np

import modlab.cli
from modlab import (
    CurveFamily, Grid, NormTag, Polyline, ScalarField, VectorField, ac_bound_check,
    assemble_problem, finite_diff_gradient, ftc_along_curve_check, norm_equivalence_check, solve_modulus,
)

def loaded():
    return [name for name in ("scipy.optimize", "scipy.interpolate", "scipy.linalg") if name in sys.modules]

seen = {"import": loaded()}
g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
f = VectorField(grid=g, values=g.cell_centers() ** 2, norm=NormTag.L2)
c = Polyline([[0.1, 0.2], [0.9, 0.7]])
ac_bound_check(f, ScalarField(grid=g, values=np.full(g.num_cells, 4.0)), c, tol=1e-6)
ftc_along_curve_check(f, finite_diff_gradient(f), c, tol=1e-3)
norm_equivalence_check(f, 2.0)
seen["checks"] = loaded()
solve_modulus(assemble_problem(CurveFamily(curves=[c]), g, float(sys.argv[1])))
seen["solve"] = loaded()
print(json.dumps(seen))
"""


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_scipy_optimize_never_loads(p):
    src = str(Path(modlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(p)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    seen = json.loads(run.stdout)
    assert seen["import"] == [] and seen["checks"] == []
    assert seen["solve"] == ["scipy.linalg"]
