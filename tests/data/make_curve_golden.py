"""Regenerate curve_checks_golden.json: the SHA-256 of report_to_json for a
fixed battery of ac_bound_check and ftc_along_curve_check cases.

The battery crosses the three value norms, a 2-D and a 3-D grid, five curve
shapes (random vertices, vertices on cell faces, vertices on the planes of
cell centres, repeated vertices with runs along a face, and runs along the
box boundary) and num_params 2, 5 and 12. Neither check calls BLAS, so the
digests do not depend on the BLAS kernel.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_curve_golden.py

It rewrites the golden file and prints every entry whose digest moved, was
added or was dropped. A change that regenerates the file must say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from modlab import (
    Grid,
    NormTag,
    Polyline,
    ScalarField,
    VectorField,
    ac_bound_check,
    finite_diff_gradient,
    ftc_along_curve_check,
)
from modlab.report import report_to_json

GOLDEN = Path(__file__).with_name("curve_checks_golden.json")

GRIDS = {
    "2d": Grid([0.0, -0.5], [1.0, 1.0], [8, 6]),
    "3d": Grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [5, 4, 3]),
}
SHAPES = ["random", "faces", "centres", "repeats", "boundary"]
NUM_PARAMS = [2, 5, 12]
AC_TOL = 1e-3
FTC_TOL = 0.5


def _curve(g: Grid, shape: str, rng) -> np.ndarray:
    """Vertices of one curve of the named shape inside the box of ``g``."""
    lo, h, n = g.box_min, g.spacing, g.resolution
    if shape == "random":
        return rng.uniform(lo, g.box_max, size=(5, g.ndim))
    if shape == "faces":
        return lo + rng.integers(0, n + 1, size=(6, g.ndim)) * h
    if shape == "centres":
        return lo + (rng.integers(0, n, size=(6, g.ndim)) + 0.5) * h
    if shape == "repeats":
        v = lo + rng.integers(0, n + 1, size=(4, g.ndim)) * h
        # a run along a face plane, then the same vertex twice
        step = v[1].copy()
        step[0] = v[2][0]
        return np.vstack([v[0], v[0], v[1], step, v[2], v[2], v[3]])
    corners = np.array([lo, g.box_max])
    v = corners[rng.integers(0, 2, size=(5, g.ndim)), np.arange(g.ndim)]
    return np.vstack([v, rng.uniform(lo, g.box_max)])


def cases():
    """(name, thunk) per case; each thunk returns the case's Report."""
    out = []
    seed = 0
    for grid_name, g in GRIDS.items():
        M = g.ndim
        for tag in NormTag:
            for shape in SHAPES:
                for num_params in NUM_PARAMS:
                    seed += 1
                    rng = np.random.default_rng(seed)
                    f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=tag)
                    majorant = ScalarField(grid=g, values=rng.uniform(0.0, 2.0, size=g.num_cells))
                    c = Polyline(_curve(g, shape, rng))
                    name = f"{grid_name}-{tag.value}-{shape}-{num_params}"
                    out.append((f"ac-{name}", lambda f=f, m=majorant, c=c, k=num_params: ac_bound_check(f, m, c, AC_TOL, k)))
                    out.append((
                        f"ftc-{name}",
                        lambda f=f, c=c, k=num_params: ftc_along_curve_check(f, finite_diff_gradient(f), c, FTC_TOL, k),
                    ))
    return out


def digests() -> dict:
    return {name: hashlib.sha256(report_to_json(run()).encode()).hexdigest() for name, run in cases()}


def main() -> int:
    new = digests()
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            state = "added" if name not in old else "dropped" if name not in new else "moved"
            print(f"{state}: {name}")
    GOLDEN.write_text(json.dumps({"digests": new}, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} digests written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
