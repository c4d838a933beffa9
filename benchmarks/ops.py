"""The operations of each workload and their independent checks.

``build(manifest, arrays)`` turns a generated manifest into a list of
``Op``: ``run()`` calls modlab and returns its result; ``check(result)``
returns None when the result is right, otherwise a one-line reason. Checks
compare against ``reference`` (computed apart from modlab) or against
properties the method must have; references are computed on first use and
kept, since the inputs of an operation never change within a run.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import modlab
import reference
from modlab import cli

UNIT = ([0.0, 0.0], [1.0, 1.0])


@dataclass
class Op:
    kind: str  # latency cluster the operation belongs to
    group: str  # entry point; set-up warms up one operation of each group
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    expect_fail: bool = False


def _grid(res: int) -> modlab.Grid:
    return modlab.Grid(*UNIT, [res, res])


def _curves(spec: dict, arrays: dict) -> list:
    vertices = arrays[spec["vertices"]]
    bounds = np.cumsum([0] + spec["counts"])
    return [vertices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _call(name: str, *args):
    """Call ``modlab.<name>`` looked up at call time, so that a traced run sees the call."""
    return lambda: getattr(modlab, name)(*args)


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * (1.0 + abs(expected))


# --- modulus -------------------------------------------------------------------

def check_certificates(value: float, dual: float, gap: float, tol: float, p: float,
                       closed: dict | None = None) -> str | None:
    """Weak duality, the certified gap, and the closed form k h L^(1-p) where one applies."""
    if value < dual - 1e-12 * (1.0 + value):
        return f"value {value!r} below dual value {dual!r}"
    if gap > tol * (1.0 + value):
        return f"gap {gap!r} above tol*(1+value)"
    if closed is not None:
        exact = closed["k"] * closed["h"] * closed["L"] ** (1.0 - p)
        if abs(value - exact) > tol * (1.0 + value) + 64 * reference.EPS * exact:
            return f"value {value!r} differs from closed form k h L^(1-p) = {exact!r}"
    return None


def check_modulus(result, lines: "reference.LineIntegrals", p: float, tol: float, res: int,
                  closed: dict | None = None) -> str | None:
    """Admissibility by the benchmark's own line integrals, then the certificates."""
    if not result.converged:
        return "solver did not certify its result"
    rho = np.asarray(result.rho_star.values, dtype=float)
    if rho.shape != (res * res,) or not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
        return "rho_star is not a nonnegative cell density"
    integrals, error = lines(rho)
    worst = int(np.argmin(integrals + error))
    if integrals[worst] + error[worst] < 1.0 - tol:
        return f"rho_star not admissible: curve {worst} has integral {integrals[worst]!r}"
    if not _close(result.value, float(np.sum(rho**p)) / (res * res), 1e-12):
        return "value is not the p-energy of rho_star"
    return check_certificates(result.value, result.dual_value, result.gap, tol, p, closed)


def _modulus_ops(manifest: dict, arrays: dict) -> list:
    res = manifest["res"]
    grid = _grid(res)
    ops = []
    for spec in manifest["ops"]:
        curves = _curves(spec, arrays)
        fam = modlab.CurveFamily([modlab.Polyline(c) for c in curves])
        lines = functools.cache(lambda curves=curves: reference.LineIntegrals(curves, res))

        def run(fam=fam, p=spec["p"], tol=spec["tol"]):
            return modlab.solve_modulus(modlab.assemble_problem(fam, grid, p), tol=tol)

        def check(result, lines=lines, spec=spec):
            return check_modulus(result, lines(), spec["p"], spec["tol"], res, spec.get("closed_form"))

        ops.append(Op(spec["kind"], spec["kind"], run, check))
    return ops


# --- fields --------------------------------------------------------------------

def check_norms(rep: dict, ref: dict, M: int, sqrt_n: float = math.sqrt(2.0)) -> str | None:
    """R and W against values computed independently, and the R <= W <= sqrt(N) R bracket.

    R is compared at 1e-7 (1 + R): the tolerance at which an l2 g* that is
    off by 1e-7 of the top singular value shows.
    """
    meta = rep["meta"]
    r, w = meta["r_norm"], meta["w_norm"]
    if meta["one_sided"] or not rep["passed"]:
        return f"norm check not passed or one-sided ({meta['gstar_mode']})"
    if not _close(w, ref["w"], 1e-9):
        return f"W norm {w!r} differs from {ref['w']!r}"
    if not _close(r, ref["r"], 1e-7):
        return f"R norm {r!r} differs from {ref['r']!r} (g* from SVD, gradients or sign vectors)"
    if not (r <= w * (1 + 1e-12) and w <= sqrt_n * r * (1 + 1e-12)):
        return f"bracket R <= W <= sqrt(N) R fails: R={r!r}, W={w!r}"
    if M == 1 and not _close(r, w, 1e-12):
        return f"R != W for a scalar field: R={r!r}, W={w!r}"
    return None


def check_ac(rep: dict, values: np.ndarray, g: np.ndarray, curve: np.ndarray, tag: str, res: int,
             tol: float, num_params: int = 12) -> str | None:
    """All pairs present and passed; the whole-curve pair matches own interpolation and integral."""
    checks = rep["checks"]
    if len(checks) != num_params * (num_params + 1) // 2 or not rep["passed"]:
        return "AC bound report incomplete or failed"
    whole = checks[num_params - 1]  # the pair (0, length)
    increment = reference.value_norm(
        reference.bilinear(values, res, curve[-1]) - reference.bilinear(values, res, curve[0]), tag)
    integral, error = reference.LineIntegrals([curve], res)(g)
    if not _close(whole["value"], float(increment), 1e-9):
        return f"increment {whole['value']!r} differs from {float(increment)!r}"
    if abs(whole["bound"] - (integral[0] + tol)) > 1e-9 * (1.0 + integral[0]) + error[0]:
        return f"integral of g {whole['bound'] - tol!r} differs from {integral[0]!r}"
    return None


def check_rung(rep: dict, t: float, hs: list) -> str | None:
    """Gaps against a plain sweep; lp <= R <= lp + 1 since the family is 1-Lipschitz."""
    rows = rep["series"][0]["rows"] if rep["series"] else []
    if len(rows) != len(hs):
        return "dichotomy report has the wrong number of rungs"
    for row, h in zip(rows, hs):
        M, gap = reference.quotient_gap(t, h)
        if int(row[2]) != M or not _close(row[3], gap, 1e-9):
            return f"rung h={h}: M={row[2]}, gap={row[3]!r}; expected M={M}, gap={gap!r}"
        if not (0.0 < row[5] <= row[4] <= row[5] + 1.0 + 1e-9):
            return f"rung h={h}: R norm {row[4]!r} outside [lp, lp + 1]"
    return None


def check_lipschitz(rep: dict, M: int, res: int) -> str | None:
    cert = rep["checks"][0]["value"]
    slope = reference.adjacent_slope(M, res)
    if not _close(cert, slope, 1e-12) or cert > 1.0 + 1e-9:
        return f"certificate {cert!r} differs from the largest adjacent slope {slope!r}"
    return None


def _fields_ops(manifest: dict, arrays: dict) -> list:
    ops = []
    for spec in manifest["ops"]:
        kind = spec["kind"]
        if spec["op"] == "norms":
            values, tag, p, res = arrays[spec["field"]], spec["tag"], spec["p"], spec["res"]
            f = modlab.VectorField(_grid(res), values, modlab.NormTag(tag))
            ref = functools.cache(lambda values=values, tag=tag, p=p, res=res: reference.norms(values, tag, p, res))
            ops.append(Op(kind, "norms", _call("norm_equivalence_check", f, p),
                          lambda rep, ref=ref, M=values.shape[1]: check_norms(rep.to_dict(), ref(), M),
                          spec.get("expect_fail", False)))
        elif spec["op"] == "ac":
            values, g, curve, res = arrays[spec["field"]], arrays[spec["g"]], arrays[spec["curve"]], spec["res"]
            grid = _grid(res)
            f = modlab.VectorField(grid, values, modlab.NormTag(spec["tag"]))
            run = _call("ac_bound_check", f, modlab.ScalarField(grid, g), modlab.Polyline(curve), spec["tol"])
            ops.append(Op(kind, "ac", run, lambda rep, a=(values, g, curve, spec["tag"], res, spec["tol"]):
                          check_ac(rep.to_dict(), *a)))
        elif spec["op"] == "ftc":
            f = modlab.VectorField(_grid(spec["res"]), arrays[spec["field"]], modlab.NormTag(spec["tag"]))
            curve = modlab.Polyline(arrays[spec["curve"]])

            def run(f=f, curve=curve, tol=spec["tol"]):
                return modlab.ftc_along_curve_check(f, modlab.finite_diff_gradient(f), curve, tol)

            # 8 parameters give 28 pairs, plus the chain-rule bound.
            ops.append(Op(kind, "ftc", run, lambda rep: None if rep.passed and len(rep.checks) == 29
                          else "FTC residual above tol along a smooth field"))
        elif spec["op"] == "rung":
            run = _call("dichotomy_report", spec["t"], [spec["h"]], spec["p"], spec["res"])
            ops.append(Op(kind, "rung", run, lambda rep, t=spec["t"], h=spec["h"]: check_rung(rep.to_dict(), t, [h])))
        else:
            sf = modlab.sin_family(spec["M"], spec["res"])
            ops.append(Op(kind, "lipschitz", _call("lipschitz_certificate", sf),
                          lambda rep, M=spec["M"], res=spec["res"]: check_lipschitz(rep.to_dict(), M, res)))
    return ops


# --- cli -------------------------------------------------------------------------

def _report_file(argv: list) -> Path:
    return Path(argv[argv.index("--out") + 1])


def check_cli(spec: dict, code: int, arrays: dict, cache: dict) -> str | None:
    """Exit code, a report that parses as JSON, and the closed forms and brackets above."""
    if code != spec["exit"]:
        return f"exit code {code}, expected {spec['exit']}"
    try:
        rep = json.loads(_report_file(spec["argv"]).read_text())
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    kind = spec["kind"]
    if kind == "modulus":
        meta = rep["meta"]
        return check_certificates(meta["value"], meta["dual_value"], meta["gap"], spec["tol"], spec["p"],
                                  spec.get("closed_form"))
    if kind == "norms":
        if "ref" not in cache:
            cache["ref"] = reference.norms(arrays[spec["field"]], spec["tag"], spec["p"], spec["res"])
        return check_norms(rep, cache["ref"], arrays[spec["field"]].shape[1])
    if kind == "weakcheck":
        return None if len(rep["checks"]) == spec["bumps"] else "weakcheck report has the wrong number of bumps"
    if kind == "acbound":
        return check_ac(rep, arrays[spec["field"]], arrays[spec["g"]], arrays[spec["curve"]], spec["tag"],
                        spec["res"], spec["tol"])
    return check_rung(rep, spec["t"], spec["hs"])


def _cli_ops(manifest: dict, arrays: dict) -> list:
    """Operations calling ``modlab.cli.main`` in-process.

    Set-up ingests every fixture file once through modlab's readers.
    """
    readers = {"--grid": modlab.Grid.load, "--family": modlab.load_family, "--f": modlab.vectorvalues.load_field_csv,
               "--cand": modlab.vectorvalues.load_field_csv, "--g": modlab.vectorvalues.load_field_csv,
               "--curve": modlab.load_polyline_csv}
    ingested = set()
    ops = []
    for spec in manifest["ops"]:
        argv = spec["argv"]
        for flag, path in zip(argv[1::2], argv[2::2]):
            if flag in readers and path not in ingested:
                readers[flag](path)
                ingested.add(path)
        ops.append(Op(spec["kind"], spec["kind"], functools.partial(cli.main, argv),
                      functools.partial(check_cli, spec, arrays=arrays, cache={})))
    return ops


def report_files(manifest: dict) -> list:
    """Report paths the cli operations write; removed before every round."""
    return [_report_file(spec["argv"]) for spec in manifest["ops"]] if manifest["workload"] == "cli" else []


BY_WORKLOAD = {"modulus": _modulus_ops, "fields": _fields_ops, "cli": _cli_ops}


def build(manifest: dict, arrays: dict) -> list:
    return BY_WORKLOAD[manifest["workload"]](manifest, arrays)
