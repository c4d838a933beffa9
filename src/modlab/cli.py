"""Command-line entry point: data ingestion, dispatch, JSON report emission.

Each command is declared once, in ``_build_parser``: its flags, its required
file inputs, whose SHA-256 digests go into the report's ``inputs``, and its
handler, which returns the report and adds any further output file to a dict
of ``{path: text}``. Exit status: 0 when every check passes, 1 on check
failures, 2 on parse or precondition errors and when memory runs out.
Parameters, input files and output paths are checked before any
computation. Reports are written even when checks fail; identical
configuration and inputs give byte-identical reports apart from the
wall-time field. The output files (the report, ``--rho-out`` and the plot
data) are all written or none is. All numeric work runs sequentially with
fixed reduction order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from functools import cache, partial
from pathlib import Path

from . import acceptance
from .errors import named, require_count, require_exponent, require_keys, require_tolerance
from .geometry import Grid, load_family, load_polyline_csv
from .modulus import assemble_problem, solve_modulus
from .report import Report, bounded_check, format_float, report_to_json, sha256_digest
from .reshetnyak import ac_bound_check, norm_equivalence_check
from .rnp_lab import dichotomy_gap_floor, dichotomy_report
from .sobolev import TestFunction, weak_derivative_check
from .vectorvalues import field_csv_files, load_field_csv, load_scalar_field_csv


def _validate(args) -> None:
    """Reject bad parameters, missing inputs and unwritable outputs, in that order."""
    if "p" in args:
        require_exponent(args.p)
    if "tol" in args:
        require_tolerance(args.tol)
    if "max_iter" in args:
        require_count(args.max_iter, "--max-iter")
    for name in args.inputs:
        path = getattr(args, name)
        if not path.is_file():
            raise ValueError(f"input file for --{name} not found: {path}")
    for dest in ("out", "rho_out", "export_plots"):
        if not getattr(args, dest, None):
            continue
        path, flag = Path(getattr(args, dest)), "--" + dest.replace("_", "-")
        if dest == "export_plots":
            # the export creates missing directories, so the nearest existing one decides
            existing = next(p for p in (path, *path.parents) if p.exists())
            if not existing.is_dir():
                raise ValueError(f"{flag} is not a directory: {existing}")
        elif path.is_dir():
            raise ValueError(f"{flag} is a directory: {path}")
        elif not path.parent.is_dir():
            raise ValueError(f"output directory for {flag} not found: {path.parent}")


def write_files(files: dict) -> None:
    """Write every ``{path: text}``, all or none.

    Each text goes to a temporary name beside its target, in a directory
    made if missing. Only after every write succeeded are the existing
    targets moved aside and the temporaries renamed onto the targets. On a
    failure every step is undone: the new files, temporaries and directories
    made here are removed, the moved targets go back, and the original error
    propagates.
    """
    made, staged, aside, placed = [], [], [], []
    try:
        for target, text in files.items():
            target = Path(target)
            for d in reversed([d for d in (target.parent, *target.parent.parents) if not d.exists()]):
                d.mkdir()
                made.append(d)
            temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((temporary, target))
            temporary.write_text(text)
        for _, target in staged:
            backup = target.with_name(f".{target.name}.{os.getpid()}.bak")
            try:
                target.replace(backup)
            except FileNotFoundError:
                continue
            aside.append((backup, target))
        for temporary, target in staged:
            temporary.replace(target)
            placed.append(target)
    except BaseException:
        # undo each step; a failing undo must not hide the original error
        undo = [target.unlink for target in placed] + [temporary.unlink for temporary, _ in staged]
        undo += [partial(backup.replace, target) for backup, target in aside]
        undo += [d.rmdir for d in reversed(made)]
        for step in undo:
            with contextlib.suppress(OSError):
                step()
        raise
    for backup, _ in aside:
        backup.unlink()


def plot_files(report: Report, path) -> dict:
    """One headered CSV text per series, rows sorted by the first column, keyed by its path."""
    files = {}
    if not report.series:
        print("plot export: report contains no series; nothing to export")
    for s in report.series:
        rows = sorted(s["rows"], key=lambda r: r[0])
        lines = [",".join(s["columns"])]
        lines += [",".join(format_float(float(x)) for x in row) for row in rows]
        files[Path(path) / f"{s['name']}.csv"] = "\n".join(lines) + "\n"
    return files


def _cmd_modulus(args, files: dict) -> Report:
    grid = Grid.load(args.grid)
    fam = load_family(args.family)
    prob = assemble_problem(fam, grid, args.p)
    result = solve_modulus(prob, tol=args.tol, max_iter=args.max_iter)
    checks = [
        {"name": "converged", "value": float(result.converged), "bound": 1.0, "margin": None, "pass": bool(result.converged)},
        bounded_check("duality_gap", result.gap, args.tol * (1.0 + result.value)),
        bounded_check("constraint_violation", result.max_constraint_violation, args.tol),
    ]
    if args.rho_out:
        files.update(field_csv_files(result.rho_star, args.rho_out))
    return Report(
        command="modulus",
        checks=checks,
        meta={
            "value": result.value,
            "violation": result.max_constraint_violation,
            "iterations": result.iterations,
            "gap": result.gap,
            "dual_value": result.dual_value,
            "solver": result.diagnostics["solver"],
            "max_iter_hit": result.diagnostics["max_iter_hit"],
            "p": args.p,
            "curves": len(fam),
            "label": fam.label,
        },
    )


def _cmd_norms(args, files: dict) -> Report:
    f = load_field_csv(args.f)
    rep = norm_equivalence_check(f, args.p, tol=args.tol)
    rep.meta.update(
        {
            "sqrtN_margin": rep.meta["sqrtN"] * rep.meta["r_norm"] - rep.meta["w_norm"],
            "p": args.p,
        }
    )
    return rep


def _cmd_weakcheck(args, files: dict) -> Report:
    f = load_field_csv(args.f)
    cand = load_field_csv(args.cand)
    with named(f"the bump battery {args.bumps}"):
        bumps = json.loads(args.bumps.read_text())
    if not isinstance(bumps, list):
        raise ValueError(f"the bump battery {args.bumps} must be a JSON list, got {type(bumps).__name__}")
    tests = []
    for i, b in enumerate(bumps):
        with named(f"bump {i} in {args.bumps}"):
            tests.append(TestFunction(*require_keys(b, ("center", "radius"))))
    rep = weak_derivative_check(f, cand, axis=args.axis, tests=tests, tol=args.tol)
    rep.meta.update({"axis": args.axis, "tol": args.tol, "bumps": len(tests)})
    return rep


def _cmd_acbound(args, files: dict) -> Report:
    f = load_field_csv(args.f)
    g = load_scalar_field_csv(args.g)
    curve = load_polyline_csv(args.curve)
    return ac_bound_check(f, g, curve, tol=args.tol)


def _cmd_counterexample(args, files: dict) -> Report:
    try:
        ladder = [float(x) for x in args.ladder.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--ladder must be comma-separated numbers: {args.ladder!r}") from None
    return dichotomy_report(
        t=args.t,
        h_ladder=ladder,
        p=args.p,
        resolution=args.resolution,
        fixed_M=args.fixed_m,
        gap_floor=dichotomy_gap_floor()["c0"] if args.fixed_m is None else None,
    )


def _cmd_suite(args, files: dict) -> Report:
    reports = acceptance.run_all()
    checks = [dict(c, name=f"{rep.command}.{c['name']}") for rep in reports for c in rep.checks]
    series = [s for rep in reports for s in rep.series]
    return Report(command="suite", checks=checks, series=series)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and each
    # handler looks up the functions it calls when it runs
    parser = argparse.ArgumentParser(prog="modlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, inputs=()):
        """A subcommand with its required file flags, ``--out`` and its handler."""
        sp = sub.add_parser(name, help=help)
        for flag in inputs:
            sp.add_argument(f"--{flag}", type=Path, required=True)
        sp.add_argument("--out")
        sp.set_defaults(handler=handler, inputs=inputs)
        return sp

    sp = command("modulus", _cmd_modulus, "solve the p-modulus of a curve family", ("family", "grid"))
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=2000, help="step cap of the interior-point solve, at every p")
    sp.add_argument("--rho-out", help="optional CSV dump of the optimal density")

    sp = command("norms", _cmd_norms, "L^p, Sobolev and Reshetnyak norms of a field", ("f",))
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = command("weakcheck", _cmd_weakcheck, "verify a weak-derivative candidate", ("f", "cand", "bumps"))
    sp.add_argument("--axis", type=int, required=True)
    sp.add_argument("--tol", type=float, default=5e-3)

    sp = command("acbound", _cmd_acbound, "absolute-continuity bound along a curve", ("f", "g", "curve"))
    sp.add_argument("--tol", type=float, default=1e-3)

    sp = command("counterexample", _cmd_counterexample, "RNP dichotomy ladder report")
    sp.add_argument("--t", type=float, default=0.7071067811865476)
    sp.add_argument("--ladder", default="1e-1,1e-2,1e-3,1e-4")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--resolution", type=int, default=512)
    sp.add_argument("--fixed-m", type=int, default=None)
    sp.add_argument("--export-plots")

    sp = command("suite", _cmd_suite, "run the full acceptance battery")
    sp.add_argument("--export-plots")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _validate(args)
        files = {}
        report = args.handler(args, files)
        report.command = args.command
        report.inputs = {name: sha256_digest(getattr(args, name)) for name in args.inputs}
        report.wall_time_s = time.perf_counter() - started
        text = report_to_json(report)
        if args.out:
            files[Path(args.out)] = text
        if getattr(args, "export_plots", None):
            files.update(plot_files(report, args.export_plots))
        write_files(files)
        if not args.out:
            sys.stdout.write(text)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, MemoryError) as exc:
        print(f"modlab: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
