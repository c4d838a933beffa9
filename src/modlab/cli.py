"""Command-line entry point: data ingestion, dispatch, JSON report emission.

Exit status: 0 when every check passes, 1 on check failures, 2 on parse or
precondition errors. Reports are written even when checks fail; identical
configuration and inputs give byte-identical reports apart from the
wall-time field. All numeric work runs sequentially with fixed reduction
order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import acceptance
from .geometry import Grid, load_family, load_polyline_csv
from .modulus import assemble_problem, solve_modulus
from .report import CheckRecord, Report, format_float, report_to_json, sha256_digest, write_report
from .reshetnyak import ac_bound_check, norm_equivalence_check
from .rnp_lab import dichotomy_gap_floor, dichotomy_report
from .sobolev import TestFunction, weak_derivative_check
from .vectorvalues import load_field_csv, load_scalar_field_csv, lp_norm, save_scalar_field_csv


@dataclass
class RunConfig:
    """Validated invocation: command, input paths, numeric parameters."""

    command: str
    inputs: dict = field(default_factory=dict)
    p: float = 2.0
    tol: float = 1e-6
    max_iter: int = 2000
    seed: int = 0
    out: Path | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        for name, path in self.inputs.items():
            if not Path(path).is_file():
                raise ValueError(f"input file for --{name} not found: {path}")


def _digests(cfg: RunConfig) -> dict:
    return {name: sha256_digest(path) for name, path in cfg.inputs.items()}


def _finalize(report: Report, cfg: RunConfig, started: float) -> int:
    report.inputs = _digests(cfg)
    report.wall_time_s = time.perf_counter() - started
    report.meta.setdefault("seed", cfg.seed)
    if cfg.out is not None:
        write_report(report, cfg.out)
    else:
        sys.stdout.write(report_to_json(report))
    return 0 if report.passed else 1


def export_plot_data(report: Report, path) -> list:
    """Write one headered CSV per series, rows sorted by the first column."""
    out = []
    if not report.series:
        print("export_plot_data: report contains no series; nothing to export")
        return out
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for s in report.series:
        rows = sorted(s.rows, key=lambda r: r[0])
        target = path / f"{s.name}.csv"
        lines = [",".join(s.columns)]
        lines += [",".join(format_float(float(x)) for x in row) for row in rows]
        target.write_text("\n".join(lines) + "\n")
        out.append(target)
    return out


def _cmd_modulus(cfg: RunConfig) -> Report:
    grid = Grid.load(cfg.inputs["grid"])
    fam = load_family(cfg.inputs["family"])
    prob = assemble_problem(fam, grid, cfg.p)
    result = solve_modulus(prob, tol=cfg.tol, max_iter=cfg.max_iter)
    checks = [
        CheckRecord(
            name="converged",
            value=float(result.converged),
            bound=1.0,
            margin=None,
            passed=result.converged,
        ),
        CheckRecord(
            name="duality_gap",
            value=result.gap,
            bound=cfg.tol * (1.0 + result.value),
            margin=cfg.tol * (1.0 + result.value) - result.gap,
            passed=result.gap <= cfg.tol * (1.0 + result.value),
        ),
        CheckRecord(
            name="constraint_violation",
            value=result.max_constraint_violation,
            bound=cfg.tol,
            margin=cfg.tol - result.max_constraint_violation,
            passed=result.max_constraint_violation <= cfg.tol,
        ),
    ]
    rho_out = cfg.extra.get("rho_out")
    if rho_out:
        save_scalar_field_csv(result.rho_star, rho_out)
    return Report(
        command="modulus",
        checks=checks,
        meta={
            "value": result.value,
            "violation": result.max_constraint_violation,
            "iterations": result.iterations,
            "gap": result.gap,
            "dual_value": result.dual_value,
            "p": cfg.p,
            "curves": len(fam),
            "label": fam.label,
        },
    )


def _cmd_norms(cfg: RunConfig) -> Report:
    f = load_field_csv(cfg.inputs["f"])
    rep = norm_equivalence_check(f, cfg.p, tol=cfg.tol, seed=cfg.seed)
    lp = lp_norm(f, cfg.p)
    rep.meta.update(
        {
            "lp": lp,
            "sqrtN_margin": rep.meta["sqrtN"] * rep.meta["r_norm"] - rep.meta["w_norm"],
            "p": cfg.p,
        }
    )
    rep.command = "norms"
    return rep


def _cmd_weakcheck(cfg: RunConfig) -> Report:
    f = load_field_csv(cfg.inputs["f"])
    cand = load_field_csv(cfg.inputs["cand"])
    bumps_spec = json.loads(Path(cfg.inputs["bumps"]).read_text())
    if not isinstance(bumps_spec, list) or not all(isinstance(b, dict) for b in bumps_spec):
        raise ValueError("the bump battery must be a JSON list of {center, radius} objects")
    tests = [TestFunction(center=b["center"], radius=b["radius"]) for b in bumps_spec]
    rep = weak_derivative_check(f, cand, axis=cfg.extra["axis"], tests=tests, tol=cfg.tol)
    rep.command = "weakcheck"
    rep.meta.update({"axis": cfg.extra["axis"], "tol": cfg.tol, "bumps": len(tests)})
    return rep


def _cmd_acbound(cfg: RunConfig) -> Report:
    f = load_field_csv(cfg.inputs["f"])
    g = load_scalar_field_csv(cfg.inputs["g"])
    curve = load_polyline_csv(cfg.inputs["curve"])
    rep = ac_bound_check(f, g, curve, tol=cfg.tol)
    rep.command = "acbound"
    return rep


def _cmd_counterexample(cfg: RunConfig) -> Report:
    fixture = dichotomy_gap_floor()
    rep = dichotomy_report(
        t=cfg.extra["t"],
        h_ladder=cfg.extra["ladder"],
        p=cfg.p,
        resolution=cfg.extra["resolution"],
        fixed_M=cfg.extra.get("fixed_m"),
        gap_floor=fixture["c0"] if cfg.extra.get("fixed_m") is None else None,
    )
    rep.command = "counterexample"
    return rep


def _cmd_suite(cfg: RunConfig) -> Report:
    reports = acceptance.run_all()
    checks = []
    series = []
    for rep in reports:
        for c in rep.checks:
            checks.append(
                CheckRecord(
                    name=f"{rep.command}.{c.name}",
                    value=c.value,
                    bound=c.bound,
                    margin=c.margin,
                    passed=c.passed,
                )
            )
        series.extend(rep.series)
    return Report(command="suite", checks=checks, series=series)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modulus", help="solve the p-modulus of a curve family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=2000)
    sp.add_argument("--out")
    sp.add_argument("--rho-out", help="optional CSV dump of the optimal density")

    sp = sub.add_parser("norms", help="L^p, Sobolev and Reshetnyak norms of a field")
    sp.add_argument("--f", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled-dual fallback mode")
    sp.add_argument("--out")

    sp = sub.add_parser("weakcheck", help="verify a weak-derivative candidate")
    sp.add_argument("--f", required=True)
    sp.add_argument("--cand", required=True)
    sp.add_argument("--axis", type=int, required=True)
    sp.add_argument("--bumps", required=True)
    sp.add_argument("--tol", type=float, default=5e-3)
    sp.add_argument("--out")

    sp = sub.add_parser("acbound", help="absolute-continuity bound along a curve")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--out")

    sp = sub.add_parser("counterexample", help="RNP dichotomy ladder report")
    sp.add_argument("--t", type=float, default=0.7071067811865476)
    sp.add_argument("--ladder", default="1e-1,1e-2,1e-3,1e-4")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--resolution", type=int, default=512)
    sp.add_argument("--fixed-m", type=int, default=None)
    sp.add_argument("--out")
    sp.add_argument("--export-plots")

    sp = sub.add_parser("suite", help="run the full acceptance battery")
    sp.add_argument("--out")
    sp.add_argument("--export-plots")

    return parser


_HANDLERS = {
    "modulus": _cmd_modulus,
    "norms": _cmd_norms,
    "weakcheck": _cmd_weakcheck,
    "acbound": _cmd_acbound,
    "counterexample": _cmd_counterexample,
    "suite": _cmd_suite,
}

_INPUT_FLAGS = {
    "modulus": ["family", "grid"],
    "norms": ["f"],
    "weakcheck": ["f", "cand", "bumps"],
    "acbound": ["f", "g", "curve"],
    "counterexample": [],
    "suite": [],
}


def _config_from_args(args) -> RunConfig:
    inputs = {name: Path(getattr(args, name)) for name in _INPUT_FLAGS[args.command]}
    extra = {}
    if args.command == "weakcheck":
        extra["axis"] = args.axis
    if args.command == "modulus":
        extra["rho_out"] = getattr(args, "rho_out", None)
    if args.command == "counterexample":
        ladder = [float(x) for x in str(args.ladder).split(",") if x.strip()]
        extra.update(
            {
                "t": args.t,
                "ladder": ladder,
                "resolution": args.resolution,
                "fixed_m": args.fixed_m,
            }
        )
    return RunConfig(
        command=args.command,
        inputs=inputs,
        p=getattr(args, "p", 2.0),
        tol=getattr(args, "tol", 1e-6),
        max_iter=getattr(args, "max_iter", 2000),
        seed=getattr(args, "seed", 0),
        out=Path(args.out) if getattr(args, "out", None) else None,
        extra=extra,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        report = _HANDLERS[cfg.command](cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"modlab: error: {exc}", file=sys.stderr)
        return 2
    status = _finalize(report, cfg, started)
    plots_dir = getattr(args, "export_plots", None)
    if plots_dir:
        export_plot_data(report, plots_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
