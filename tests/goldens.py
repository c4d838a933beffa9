"""The three goldens of tests/data and the one script that regenerates them.

- ``curve_checks_golden.json``: the SHA-256 of report_to_json for 180
  ac_bound_check and ftc_along_curve_check cases, crossing the three value
  norms, a 2-D and a 3-D grid, the five curve shapes of ``SHAPES`` and
  num_params 2, 5 and 12.
- ``cell_lengths_golden.json``: the SHA-256 of the indptr, indices and data
  bytes of cell_length_rows for 45 families, crossing a 1-D, a 2-D and a 3-D
  grid on boxes other than the unit box, the five shapes and families of 1,
  5 and 40 curves.
- ``modulus_golden.json``: every output bit of
  solve_modulus(assemble_problem(family, grid, p), tol) for twelve stored
  families on the unit box. Each keeps its inputs (kind, p, resolution,
  counts, vertices) and the file its note; the outputs (value, dual_value and
  gap as float.hex strings, iterations, converged, and rho_sha256, the
  SHA-256 of rho_star's little-endian float64 bytes) are solved again.

The curve checks and the cell lengths call no BLAS, so their digests hold on
every BLAS kernel. The solves call LAPACK, so their outputs hold only on the
kernel they were recorded on.

Run from the repository root:

    PYTHONPATH=src python tests/goldens.py

It rewrites every golden and prints each entry that moved, was added or was
dropped; with none moved every file is unchanged byte for byte. A change that
regenerates a golden must say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from modlab import (
    CurveFamily,
    Grid,
    NormTag,
    Polyline,
    ScalarField,
    VectorField,
    ac_bound_check,
    assemble_problem,
    cell_length_rows,
    finite_diff_gradient,
    ftc_along_curve_check,
    solve_modulus,
)
from modlab.report import report_to_json

DATA = Path(__file__).parent / "data"
SHAPES = ["random", "faces", "centres", "repeats", "boundary"]


def _curve(g: Grid, shape: str, rng) -> np.ndarray:
    """Vertices of one curve of the named shape inside the box of ``g``: random
    vertices, vertices on cell faces, vertices on the planes of cell centres,
    repeated vertices with runs along a face, or runs along the box boundary."""
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


def curve_check_cases() -> list:
    """(name, thunk) per AC or FTC case; each thunk returns its report's digest."""
    grids = {"2d": Grid([0.0, -0.5], [1.0, 1.0], [8, 6]), "3d": Grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [5, 4, 3])}
    out = []
    seed = 0
    for grid_name, g in grids.items():
        for tag in NormTag:
            for shape in SHAPES:
                for num_params in [2, 5, 12]:
                    seed += 1
                    rng = np.random.default_rng(seed)
                    f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, g.ndim)), norm=tag)
                    majorant = ScalarField(grid=g, values=rng.uniform(0.0, 2.0, size=g.num_cells))
                    c = Polyline(_curve(g, shape, rng))
                    name = f"{grid_name}-{tag.value}-{shape}-{num_params}"
                    out.append((f"ac-{name}", lambda f=f, m=majorant, c=c, k=num_params: ac_bound_check(f, m, c, 1e-3, k)))
                    out.append((
                        f"ftc-{name}",
                        lambda f=f, c=c, k=num_params: ftc_along_curve_check(f, finite_diff_gradient(f), c, 0.5, k),
                    ))
    return [(name, lambda run=run: hashlib.sha256(report_to_json(run()).encode()).hexdigest()) for name, run in out]


def _rows_digest(curves, g: Grid) -> str:
    """SHA-256 of the rows' little-endian int64 indptr and indices and float64 data."""
    rows = cell_length_rows(curves, g)
    h = hashlib.sha256()
    for array, dtype in ((rows.indptr, "<i8"), (rows.indices, "<i8"), (rows.data, "<f8")):
        h.update(np.asarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


def cell_length_cases() -> list:
    """(name, thunk) per family; each thunk returns the digest of its constraint rows."""
    grids = {
        "1d": Grid([-1.0], [2.0], [7]),
        "2d": Grid([0.0, -0.5], [1.0, 1.0], [8, 6]),
        "3d": Grid([-0.5, 0.0, 1.0], [0.5, 2.0, 1.75], [5, 4, 3]),
    }
    out = []
    seed = 0
    for grid_name, g in grids.items():
        for shape in SHAPES:
            for size in [1, 5, 40]:
                seed += 1
                rng = np.random.default_rng(seed)
                curves = [Polyline(_curve(g, shape, rng)) for _ in range(size)]
                out.append((f"{grid_name}-{shape}-{size}", lambda curves=curves, g=g: _rows_digest(curves, g)))
    return out


def solve_id(i: int, family: dict) -> str:
    """The name of the i-th stored solve."""
    return f"{family['kind']}-p{family['p']}-{i}"


def solve_outputs(family: dict, tol: float) -> dict:
    """The recorded outputs of one stored family's solve."""
    vertices = np.array(family["vertices"])
    curves = np.split(vertices, np.cumsum(family["counts"])[:-1])
    dim = vertices.shape[1]
    g = Grid([0.0] * dim, [1.0] * dim, family["resolution"])
    result = solve_modulus(assemble_problem(CurveFamily(curves=[Polyline(c) for c in curves]), g, family["p"]), tol=tol)
    rho = np.ascontiguousarray(result.rho_star.values, dtype="<f8")
    return {
        "value": float(result.value).hex(),
        "dual_value": float(result.dual_value).hex(),
        "gap": float(result.gap).hex(),
        "iterations": result.iterations,
        "converged": result.converged,
        "rho_sha256": hashlib.sha256(rho.tobytes()).hexdigest(),
    }


# Each digest golden's battery; the solve golden stores its inputs instead.
DIGESTS = {"curve_checks_golden.json": curve_check_cases, "cell_lengths_golden.json": cell_length_cases}
SOLVES = "modulus_golden.json"


def regenerate(file: str, data: dict) -> dict:
    """The data of a golden with every entry computed again; the solves keep
    their inputs and their order, and the file its note."""
    if file in DIGESTS:
        return {"digests": {name: run() for name, run in DIGESTS[file]()}}
    return {**data, "families": [{**f, **solve_outputs(f, data["tol"])} for f in data["families"]]}


def entries(file: str, data: dict) -> dict:
    """The entries of a golden by name: digests, or the solves' inputs and outputs."""
    return data["digests"] if file in DIGESTS else {solve_id(i, f): f for i, f in enumerate(data["families"])}


def text(file: str, data: dict) -> str:
    """The text a golden is written in."""
    return (json.dumps(data, indent=1, sort_keys=True) if file in DIGESTS else json.dumps(data)) + "\n"


def main() -> int:
    for file in [*DIGESTS, SOLVES]:
        path = DATA / file
        old = json.loads(path.read_text())
        new = regenerate(file, old)
        before, after = entries(file, old), entries(file, new)
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                state = "added" if name not in before else "dropped" if name not in after else "moved"
                print(f"{state}: {path.stem} {name}")
        path.write_text(text(file, new))
        print(f"{len(after)} entries written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
