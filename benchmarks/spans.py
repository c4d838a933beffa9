"""Spans around calls into modlab's public functions, recorded from outside.

``Tracer.install`` replaces a function by a recording wrapper in every modlab
module that holds a reference to it, so calls between modules are seen as
well as calls from the benchmark. Spans (name, start, end, parent) are kept
in memory and written out when the run ends. A span's self time is its
duration minus the time covered by its children.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def install(self, fn, name, after=None) -> None:
        """Wrap every reference to ``fn`` held by a modlab module.

        ``name`` is a span name or a function of the call's arguments (a
        dict, defaults applied); ``after(counts, result, arguments)``
        records counts once the span has ended.
        """
        tracer = self
        sig = inspect.signature(fn) if callable(name) or after is not None else None

        def wrapper(*args, **kwargs):
            arguments = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span = name(arguments) if callable(name) else name
            result = tracer.call(span, fn, *args, **kwargs)
            if after is not None:
                after(tracer.counts, result, arguments)
            return result

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "modlab" and not mod_name.startswith("modlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def call_counts(self) -> dict:
        out: defaultdict = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install_modlab(tracer: Tracer) -> None:
    """The layer boundaries the per-layer metrics are defined on."""
    import modlab.cli  # noqa: F401  (loaded so that its references are wrapped too)
    from modlab import geometry, modulus, report, reshetnyak, rnp_lab, sobolev, vectorvalues

    def nnz(counts, prob, a):
        counts["modulus.constraint_nnz"] += prob.constraint_rows.nnz

    def lp_iters(counts, res, a):
        counts["modulus.lp_iterations"] += int(getattr(res, "nit", 0))

    def lbfgsb(counts, res, a):
        counts["modulus.lbfgsb_iterations"] += int(res.nit)
        counts["modulus.lbfgsb_maxiter_hits"] += int(res.nit >= a["options"]["maxiter"])

    def solve_name(a):
        return "modulus.polish_certify" if a["prob"].exponent > 1.0 else "modulus.lp_certify"

    def tight_rows(counts, result, a):
        prob = a["prob"]
        if prob.num_curves:
            margins = prob.constraint_rows @ result.rho_star.values
            counts["modulus.tight_rows"] += int((margins <= 1.0 + 1e-9).sum())
            counts["modulus.rows"] += prob.num_curves

    def gstar_name(a):
        return f"reshetnyak.gstar_{a['f'].norm.value}"

    def sign_patterns(counts, ub, a):
        f = a["f"]
        if f.norm is vectorvalues.NormTag.L1 and ub.exact:
            counts["reshetnyak.gstar_l1_sign_patterns"] += f.grid.num_cells * 2 ** (f.dim_M - 1)

    def coords(counts, rep, a):
        fixed = a["fixed_M"]
        counts["rnp_lab.coords_evaluated"] += sum(
            fixed if fixed is not None else math.ceil(10.0 / (float(h) / 2.0)) for h in a["h_ladder"]
        )

    def report_bytes(counts, text, a):
        counts["report.bytes"] += len(text.encode())

    layers = [
        (geometry.cell_lengths, "geometry.cell_lengths", None),
        (geometry.curve_integral, "geometry.curve_integral", None),
        (geometry.load_family, "geometry.load_family", None),
        (modulus.assemble_problem, "modulus.assemble", nnz),
        (modulus.linprog, "modulus.lp", lp_iters),
        (modulus.minimize, "modulus.lbfgsb", lbfgsb),
        (modulus.solve_modulus, solve_name, tight_rows),
        (reshetnyak.upper_gradient_star, gstar_name, sign_patterns),
        (reshetnyak.ac_bound_check, "reshetnyak.ac_bound", None),
        (sobolev.finite_diff_gradient, "sobolev.finite_diff_gradient", None),
        (sobolev.w_norm, "sobolev.w_norm", None),
        (sobolev.ftc_along_curve_check, "sobolev.ftc", None),
        (sobolev.weak_derivative_check, "sobolev.weak_derivative", None),
        (vectorvalues.lp_norm, "vectorvalues.lp_norm", None),
        (vectorvalues.load_field_csv, "vectorvalues.load_field_csv", None),
        (rnp_lab.dichotomy_report, "rnp_lab.dichotomy", coords),
        (rnp_lab.lipschitz_certificate, "rnp_lab.lipschitz", None),
        (report.sha256_digest, "cli.digest", None),
        (report.report_to_json, "report.serialize", report_bytes),
    ]
    for fn, name, after in layers:
        tracer.install(fn, name, after)


# Spans whose self time is a per-layer metric, spans whose calls are counted,
# and counts recorded by the ``after`` hooks above. The self time of
# ``modulus.lp_certify`` (certifying an LP solution) is left to ``other``.
TIMED = [
    "geometry.cell_lengths", "modulus.assemble", "modulus.lp", "modulus.lbfgsb", "modulus.polish_certify",
    "geometry.curve_integral", "reshetnyak.ac_bound", "reshetnyak.gstar_linf", "reshetnyak.gstar_l2",
    "reshetnyak.gstar_l1", "sobolev.finite_diff_gradient", "sobolev.w_norm", "sobolev.ftc",
    "sobolev.weak_derivative", "vectorvalues.lp_norm", "rnp_lab.dichotomy", "rnp_lab.lipschitz",
    "vectorvalues.load_field_csv", "geometry.load_family", "cli.digest", "report.serialize",
]
CALLS = ["geometry.cell_lengths", "geometry.curve_integral"]
COUNTS = [
    "modulus.constraint_nnz", "modulus.lp_iterations", "modulus.lbfgsb_iterations",
    "modulus.lbfgsb_maxiter_hits", "reshetnyak.gstar_l1_sign_patterns", "rnp_lab.coords_evaluated",
    "report.bytes",
]


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round means of every per-layer metric."""
    own = tracer.self_times()
    calls = tracer.call_counts()
    out = {f"{name}_s": own.get(name, 0.0) / rounds for name in TIMED}
    out.update({f"{name}_calls": calls.get(name, 0) / rounds for name in CALLS})
    out.update({name: tracer.counts.get(name, 0.0) / rounds for name in COUNTS})
    rows = tracer.counts.get("modulus.rows", 0.0)
    out["modulus.tight_row_share"] = tracer.counts.get("modulus.tight_rows", 0.0) / rows if rows else 0.0
    return out
