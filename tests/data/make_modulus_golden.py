"""Regenerate the outputs in modulus_golden.json: every output bit of
solve_modulus(assemble_problem(family, grid, p), tol) for the twelve stored
families on the unit box.

Each family keeps its inputs (kind, p, resolution, counts, vertices); its
outputs (value, dual_value and gap as float.hex strings, iterations,
converged, and rho_sha256, the SHA-256 of rho_star's little-endian float64
bytes) are solved again. The solve calls LAPACK, so the outputs hold on the
BLAS kernel they were recorded on.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_modulus_golden.py

It rewrites the golden file and prints every family whose outputs moved;
with none moved the file is unchanged byte for byte. A change that
regenerates the file must say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from modlab import CurveFamily, Grid, Polyline, assemble_problem, solve_modulus

GOLDEN = Path(__file__).with_name("modulus_golden.json")


def outputs(family: dict, tol: float) -> dict:
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


def main() -> int:
    data = json.loads(GOLDEN.read_text())
    for i, family in enumerate(data["families"]):
        new = outputs(family, data["tol"])
        moved = sorted(key for key in new if family[key] != new[key])
        if moved:
            print(f"moved: {family['kind']}-p{family['p']}-{i} ({', '.join(moved)})")
        family.update(new)
    GOLDEN.write_text(json.dumps(data) + "\n")
    print(f"{len(data['families'])} families written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
