"""Seeded input generation for the three workloads.

Everything here is the benchmark's own: inputs are drawn from
``numpy.random.default_rng(seed)`` and written either as a manifest plus a
raw float64 blob (read by the measuring process before its set-up clock
starts) or, for the ``cli`` workload, as the documented modlab file formats.
Nothing here imports modlab, so the program only ever sees generated inputs.

A workload is a list of operation specs (plain JSON). One *round* runs every
spec once, in order; a run repeats whole rounds of the same operations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from reference import value_norm

MANIFEST = "inputs.json"  # names also read by worker.set_up
BLOB = "inputs.bin"

# --- modulus -----------------------------------------------------------------
MODULUS_RES = 48
MODULUS_TOL = 1e-8
# p=1 is certified at 1e-3. HiGHS meets its dual feasibility tolerance, 1e-7,
# in absolute terms; against cell weights h^2 = 4.3e-4 that lets the duals,
# once rescaled to A^T lam <= w, lose up to 2.3e-4 of the dual value. Seen:
# gaps of 3e-7 and 1.5e-6 (1 + value) on 2 of 2080 random families, ~1e-14 on
# the rest. A tighter tolerance would fail on some seeds only.
LP_TOL = 1e-3
MODULUS_CYCLES = 16
# (kind, p, curves per family). Every cycle runs one family of each kind; the
# sizes separate the kinds into latency clusters so that the round median
# falls inside the p=2 cluster and the tail percentile inside the p=1 cluster.
MODULUS_RANDOM_KINDS = (("p1", 1.0, 200), ("p1.5", 1.5, 30), ("p2", 2.0, 60), ("p3", 3.0, 60))
P_CYCLE = (1.0, 1.5, 2.0, 3.0)

# --- fields ------------------------------------------------------------------
NORM_RES = 64
CURVE_RES = 128
FTC_TOL = 5e-2  # residuals of 1120 random curves: median 3.2e-3, max 1.2e-2
AC_TOL = 1e-3
AC_CURVES = 16
FTC_CURVES = 28
CURVE_SEGMENTS = 2  # 3-vertex polylines ...
CURVE_STEP = 0.35   # ... of fixed total length 0.7, so their costs match
DEGENERATE_THETAS = (0.3, 2.2)
DEGENERATE_SQUEEZE = 0.9999
RUNG_HS = (1e-1, 1e-2, 1e-3)
RUNG_RES = 512
LIPSCHITZ_SIZES = ((8, 64), (16, 64), (16, 128), (32, 128))

# --- cli ---------------------------------------------------------------------
# Per round: 6 modulus, 3 counterexample and 6 norms calls (the fast kinds),
# 16 weakcheck calls (the median kind) and 16 acbound calls (the tail kind).
CLI_RES = 48  # modulus and acbound grids
CLI_NORMS_RES = 32
CLI_WEAK_RES = 48
CLI_LADDER = "1e-1,1e-2"
CLI_T = 0.7071067811865476


class Blob:
    """Named float64 arrays concatenated into one raw little-endian file."""

    def __init__(self):
        self.index: dict[str, list] = {}
        self.parts: list[bytes] = []
        self._offset = 0

    def add(self, name: str, arr) -> str:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        self.index[name] = [self._offset, list(arr.shape)]
        self.parts.append(arr.tobytes())
        self._offset += arr.size
        return name


def write_inputs(directory: Path, manifest: dict, blob: Blob) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest, arrays=blob.index)
    (directory / BLOB).write_bytes(b"".join(blob.parts))
    (directory / MANIFEST).write_text(json.dumps(manifest))


def array_views(manifest: dict, raw: bytes) -> dict:
    """Writable numpy copies of every named array."""
    out = {}
    for name, (offset, shape) in manifest["arrays"].items():
        count = math.prod(shape)
        out[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=8 * offset).reshape(shape).copy()
    return out


def cell_centers(res: int) -> np.ndarray:
    """Cell centres of the unit square at res x res, C order, shape (res^2, 2)."""
    c = (np.arange(res) + 0.5) * (1.0 / res)
    X, Y = np.meshgrid(c, c, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def random_polyline(rng) -> np.ndarray:
    return rng.uniform(0.05, 0.95, size=(int(rng.integers(2, 6)), 2))


def fixed_length_polyline(rng, segments: int = CURVE_SEGMENTS, step: float = CURVE_STEP) -> np.ndarray:
    """Random turning walk of equal-length segments inside [0.05, 0.95]^2."""
    while True:
        pts = [rng.uniform(0.2, 0.8, size=2)]
        angle = rng.uniform(0.0, 2.0 * np.pi)
        for _ in range(segments):
            for _attempt in range(50):
                a = angle + rng.uniform(-1.5, 1.5)
                nxt = pts[-1] + step * np.array([np.cos(a), np.sin(a)])
                if np.all(nxt >= 0.05) and np.all(nxt <= 0.95):
                    pts.append(nxt)
                    angle = a
                    break
            else:
                break
        if len(pts) == segments + 1:
            return np.array(pts)


def smooth_field(rng, res: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum of three random plane waves per component, wave vectors in {1,2,3}^2.

    Returns the values at cell centres, shape (res^2, M), and the analytic
    Jacobian there, shape (res^2, 2, M).
    """
    x = cell_centers(res)
    K = np.pi * rng.integers(1, 4, size=(M, 3, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(M, 3))
    amp = rng.normal(size=(M, 3))
    values = np.zeros((len(x), M))
    jac = np.zeros((len(x), 2, M))
    for m in range(M):
        for j in range(3):
            arg = x @ K[m, j] + phase[m, j]
            values[:, m] += amp[m, j] * np.sin(arg)
            jac[:, :, m] += (amp[m, j] * np.cos(arg))[:, None] * K[m, j][None, :]
    return values, jac


def majorant(jac: np.ndarray, tag: str, res: int) -> np.ndarray:
    """Cell field dominating the directional derivative of the interpolant.

    (sum_i ||d_i f||^2)^(1/2) bounds ||D_tau f|| for unit tau; the 3x3
    neighbourhood maximum covers the bilinear patch around each cell, and the
    10 % margin covers the variation inside it.
    """
    bound = np.sqrt(np.sum(value_norm(jac, tag) ** 2, axis=-1)).reshape(res, res)
    padded = np.pad(bound, 1, mode="edge")
    neigh = np.max([padded[1 + a : 1 + a + res, 1 + b : 1 + b + res] for a in (-1, 0, 1) for b in (-1, 0, 1)], axis=0)
    return 1.1 * neigh.ravel() + 1e-3


def degenerate_field(theta: float, res: int) -> np.ndarray:
    """f(x) = R(theta) diag(1, squeeze) x: top two singular values 1 and squeeze."""
    c, s = math.cos(theta), math.sin(theta)
    mat = np.array([[c, -s], [s, c]]) @ np.diag([1.0, DEGENERATE_SQUEEZE])
    return cell_centers(res) @ mat.T


def parallel_segments(rng, res: int) -> tuple[list, dict]:
    """k segments along distinct cell-row centres, starting and ending on cell faces.

    The discrete p-modulus of this family is k h L^(1-p) exactly.
    """
    h = 1.0 / res
    k = int(rng.integers(4, res // 2 + 1))
    m = int(rng.integers(res // 6, 5 * res // 6 + 1))
    i0 = int(rng.integers(0, res - m + 1))
    rows = rng.choice(res, size=k, replace=False)
    curves = [np.array([[i0 * h, (r + 0.5) * h], [(i0 + m) * h, (r + 0.5) * h]]) for r in rows]
    return curves, {"k": k, "h": h, "L": m * h}


def modulus_tol(p: float) -> float:
    return LP_TOL if p == 1.0 else MODULUS_TOL


def _family(blob: Blob, name: str, curves: list) -> dict:
    blob.add(name, np.vstack(curves))
    return {"vertices": name, "counts": [len(c) for c in curves]}


def generate_modulus(seed: int, directory: Path) -> dict:
    rng = np.random.default_rng(seed)
    blob = Blob()
    ops = []
    for cycle in range(MODULUS_CYCLES):
        p = P_CYCLE[cycle % len(P_CYCLE)]
        curves, closed = parallel_segments(rng, MODULUS_RES)
        spec = {"kind": "parallel", "p": p, "tol": modulus_tol(p), "closed_form": closed}
        spec.update(_family(blob, f"op{len(ops)}", curves))
        ops.append(spec)
        for kind, p, count in MODULUS_RANDOM_KINDS:
            spec = {"kind": kind, "p": p, "tol": modulus_tol(p)}
            spec.update(_family(blob, f"op{len(ops)}", [random_polyline(rng) for _ in range(count)]))
            ops.append(spec)
    manifest = {"workload": "modulus", "seed": seed, "res": MODULUS_RES, "ops": ops}
    write_inputs(directory, manifest, blob)
    return manifest


def generate_fields(seed: int, directory: Path) -> dict:
    rng = np.random.default_rng(seed)
    blob = Blob()
    ops = []
    for tag in ("l1", "l2", "linf"):
        for M in (2, 4, 8, 12):
            for p in (1.0, 2.0):
                values, _ = smooth_field(rng, NORM_RES, M)
                ops.append({"kind": f"norms-{tag}-M{M}", "op": "norms", "tag": tag, "p": p,
                            "res": NORM_RES, "field": blob.add(f"op{len(ops)}", values)})
    for p in (1.0, 2.0):
        values, _ = smooth_field(rng, NORM_RES, 1)
        ops.append({"kind": "norms-M1", "op": "norms", "tag": "l2", "p": p,
                    "res": NORM_RES, "field": blob.add(f"op{len(ops)}", values)})
    # Near-degenerate affine l2 fields: fixed, independent of the seed.
    for theta in DEGENERATE_THETAS:
        ops.append({"kind": "norms-l2-near-degenerate", "op": "norms", "tag": "l2", "p": 2.0,
                    "res": NORM_RES, "field": blob.add(f"op{len(ops)}", degenerate_field(theta, NORM_RES)),
                    "expect_fail": True})
    curve_fields = {}
    for tag in ("l1", "l2", "linf"):
        values, jac = smooth_field(rng, CURVE_RES, 3)
        curve_fields[tag] = (blob.add(f"f-{tag}", values), blob.add(f"g-{tag}", majorant(jac, tag, CURVE_RES)))
    tags = ("l1", "l2", "linf")
    for i in range(AC_CURVES):
        f, g = curve_fields[tags[i % 3]]
        ops.append({"kind": "ac_bound", "op": "ac", "tag": tags[i % 3], "res": CURVE_RES, "field": f, "g": g,
                    "curve": blob.add(f"op{len(ops)}", fixed_length_polyline(rng)), "tol": AC_TOL})
    for i in range(FTC_CURVES):
        f, _ = curve_fields[tags[i % 3]]
        ops.append({"kind": "ftc", "op": "ftc", "tag": tags[i % 3], "res": CURVE_RES, "field": f,
                    "curve": blob.add(f"op{len(ops)}", fixed_length_polyline(rng)), "tol": FTC_TOL})
    t = float(rng.uniform(0.3, 0.7))
    for h in RUNG_HS:
        ops.append({"kind": f"rung-{h:g}", "op": "rung", "t": t, "h": h, "p": 2.0, "res": RUNG_RES})
    for M, res in LIPSCHITZ_SIZES:
        ops.append({"kind": "lipschitz", "op": "lipschitz", "M": M, "res": res})
    manifest = {"workload": "fields", "seed": seed, "ops": ops}
    write_inputs(directory, manifest, blob)
    return manifest


# --- cli fixtures, in the documented modlab file formats ----------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid_record(res: int) -> dict:
    return {"box_min": [0.0, 0.0], "box_max": [1.0, 1.0], "resolution": [res, res]}


def write_polyline(path: Path, vertices: np.ndarray) -> None:
    path.write_text("".join(",".join(_fmt(x) for x in v) + "\n" for v in vertices))


def write_family(path: Path, curves: list, label: str) -> None:
    names = []
    for i, c in enumerate(curves):
        names.append(f"{path.stem}_{i:03d}.csv")
        write_polyline(path.parent / names[-1], c)
    path.write_text(json.dumps({"label": label, "curves": names}))


def write_field(path: Path, values: np.ndarray, tag: str, res: int) -> None:
    M = values.shape[1]
    lines = [",".join(["i1", "i2"] + [f"v{k + 1}" for k in range(M)])]
    for flat, row in enumerate(values):
        i, j = divmod(flat, res)
        lines.append(",".join([str(i), str(j)] + [_fmt(x) for x in row]))
    path.write_text("\n".join(lines) + "\n")
    Path(str(path) + ".json").write_text(json.dumps({"norm_tag": tag, "dim_M": M, "grid": _grid_record(res)}))


def generate_cli(seed: int, directory: Path) -> dict:
    """Fixture files plus one argv per operation; reports go to ``out/``.

    The operation kind is the command.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    blob = Blob()
    rel = directory.as_posix()
    (directory / "grid.json").write_text(json.dumps(_grid_record(CLI_RES)))
    ops = []

    def add(spec: dict, *argv: str) -> None:
        spec["argv"] = [spec["kind"], *argv, "--out", f"{rel}/out/op{len(ops)}.json"]
        ops.append(spec)

    for i in range(6):
        p = P_CYCLE[i % len(P_CYCLE)]
        fam = directory / f"fam{i}.json"
        spec = {"kind": "modulus", "p": p, "tol": modulus_tol(p), "exit": 0}
        if i % 2:
            write_family(fam, [random_polyline(rng) for _ in range(12)], f"random-{i}")
        else:
            curves, spec["closed_form"] = parallel_segments(rng, CLI_RES)
            write_family(fam, curves, f"parallel-{i}")
        add(spec, "--family", f"{rel}/{fam.name}", "--grid", f"{rel}/grid.json", "--p", repr(p),
            "--tol", repr(spec["tol"]))
    for i in range(3):
        p, res = (1.5, 2.0, 3.0)[i], (128, 256)[i % 2]
        add({"kind": "counterexample", "t": CLI_T, "hs": [0.1, 0.01], "exit": 0},
            "--t", repr(CLI_T), "--ladder", CLI_LADDER, "--p", repr(p), "--resolution", str(res))
    for i in range(6):
        tag, M, p = ("l1", "l2", "linf")[i % 3], (2, 4)[i % 2], (1.0, 2.0)[i // 3]
        values, _ = smooth_field(rng, CLI_NORMS_RES, M)
        path = directory / f"norms{i}.csv"
        write_field(path, values, tag, CLI_NORMS_RES)
        add({"kind": "norms", "tag": tag, "p": p, "res": CLI_NORMS_RES, "exit": 0,
             "field": blob.add(f"op{len(ops)}", values)}, "--f", f"{rel}/{path.name}", "--p", repr(p))
    bumps = directory / "bumps.json"
    bumps.write_text(json.dumps([{"center": [0.3 + 0.4 * a, 0.3 + 0.4 * b], "radius": 0.2}
                                 for a in (0, 1) for b in (0, 1)]))
    for i in range(8):
        values, jac = smooth_field(rng, CLI_WEAK_RES, 2)
        f, axis = directory / f"weak{i}.csv", i % 2
        write_field(f, values, "l2", CLI_WEAK_RES)
        # The exact derivative passes; 1.5 times it must fail (exit 1).
        for scale, code in ((1.0, 0), (1.5, 1)):
            cand = directory / f"weak{i}-x{scale}.csv"
            write_field(cand, scale * jac[:, axis, :], "l2", CLI_WEAK_RES)
            add({"kind": "weakcheck", "bumps": 4, "exit": code}, "--f", f"{rel}/{f.name}",
                "--cand", f"{rel}/{cand.name}", "--axis", str(axis), "--bumps", f"{rel}/bumps.json")
    for i in range(16):
        tag = ("l1", "l2", "linf")[i % 3]
        values, jac = smooth_field(rng, CLI_RES, 2)
        g = majorant(jac, tag, CLI_RES)
        curve = fixed_length_polyline(rng)
        f_path, g_path, c_path = (directory / f"ac{i}-{x}.csv" for x in "fgc")
        write_field(f_path, values, tag, CLI_RES)
        write_field(g_path, g[:, None], "l2", CLI_RES)
        write_polyline(c_path, curve)
        name = f"op{len(ops)}"
        add({"kind": "acbound", "tag": tag, "res": CLI_RES, "tol": AC_TOL, "exit": 0,
             "field": blob.add(name + "-f", values), "g": blob.add(name + "-g", g),
             "curve": blob.add(name + "-c", curve)},
            "--f", f"{rel}/{f_path.name}", "--g", f"{rel}/{g_path.name}", "--curve", f"{rel}/{c_path.name}")
    manifest = {"workload": "cli", "seed": seed, "ops": ops}
    write_inputs(directory, manifest, blob)
    return manifest


GENERATORS = {"modulus": generate_modulus, "fields": generate_fields, "cli": generate_cli}
