"""Regenerate cell_lengths_golden.json: the SHA-256 of the indptr, indices
and data bytes of cell_length_rows for a fixed battery of curve families.

The battery crosses a 1-D, a 2-D and a 3-D grid on boxes other than the unit
box, the five curve shapes of the curve-check golden (random vertices,
vertices on cell faces, vertices on the planes of cell centres, repeated
vertices with runs along a face, and runs along the box boundary) and
families of 1, 5 and 40 curves. Assembly calls no BLAS, so the digests do
not depend on the BLAS kernel.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cell_lengths_golden.py

It rewrites the golden file and prints every entry whose digest moved, was
added or was dropped. A change that regenerates the file must say why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from modlab import Grid, Polyline, cell_length_rows

GOLDEN = Path(__file__).with_name("cell_lengths_golden.json")

_spec = importlib.util.spec_from_file_location("make_curve_golden", Path(__file__).with_name("make_curve_golden.py"))
_curve_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_curve_golden)

GRIDS = {
    "1d": Grid([-1.0], [2.0], [7]),
    "2d": Grid([0.0, -0.5], [1.0, 1.0], [8, 6]),
    "3d": Grid([-0.5, 0.0, 1.0], [0.5, 2.0, 1.75], [5, 4, 3]),
}
SHAPES = _curve_golden.SHAPES
SIZES = [1, 5, 40]


def cases():
    """(name, grid, curves) per case."""
    out = []
    seed = 0
    for grid_name, g in GRIDS.items():
        for shape in SHAPES:
            for size in SIZES:
                seed += 1
                rng = np.random.default_rng(seed)
                curves = [Polyline(_curve_golden._curve(g, shape, rng)) for _ in range(size)]
                out.append((f"{grid_name}-{shape}-{size}", g, curves))
    return out


def digest(g: Grid, curves) -> str:
    """SHA-256 of the rows' little-endian int64 indptr and indices and float64 data."""
    rows = cell_length_rows(curves, g)
    h = hashlib.sha256()
    for array, dtype in ((rows.indptr, "<i8"), (rows.indices, "<i8"), (rows.data, "<f8")):
        h.update(np.asarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


def digests() -> dict:
    return {name: digest(g, curves) for name, g, curves in cases()}


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
