"""The benchmark's per-layer tracer still finds every function it wraps.

``benchmarks/spans.py`` wraps modlab functions by attribute name (for
instance ``modulus.linprog`` and ``modulus.minimize``). Renaming or deleting
one of them breaks ``benchmarks/run.py --trace 1``, and a call that bypasses
a wrapped function, or a result that lacks what a hook reads, leaves its
metric at zero; these tests make such a refactor fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import modlab.cli  # noqa: F401  (every module the tracer reaches is loaded before the snapshot)

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("modlab_benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modlab_namespaces() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "modlab" or name.startswith("modlab.")
    }


def test_install_wraps_and_uninstall_restores_every_attribute():
    spans = _load_spans()
    before = _modlab_namespaces()
    tracer = spans.Tracer()
    try:
        spans.install_modlab(tracer)
        assert tracer._undo
        for module, attr, fn in tracer._undo:
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    after = _modlab_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [attr for attr, value in namespace.items() if after[name][attr] is not value]
        assert not changed, f"{name}: {changed} not restored"


def test_norm_check_reaches_the_traced_gstar_and_w_norm():
    # the hooks read the objects these calls return, so a g* or W-norm that
    # bypasses the traced entry points, or drops what a hook reads, fails here
    from modlab import Grid, NormTag, VectorField, reshetnyak

    spans = _load_spans()
    tracer = spans.Tracer()
    g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[6, 6])
    values = np.random.default_rng(0).normal(size=(g.num_cells, 3))
    try:
        spans.install_modlab(tracer)
        for tag in (NormTag.L1, NormTag.L2):
            assert reshetnyak.norm_equivalence_check(VectorField(grid=g, values=values, norm=tag), 2.0).passed
    finally:
        tracer.uninstall()
    calls = tracer.call_counts()
    for name in ("reshetnyak.gstar_l1", "reshetnyak.gstar_l2", "sobolev.w_norm"):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counts["reshetnyak.gstar_l1_sign_patterns"] > 0


def test_norm_check_builds_one_jacobian_and_one_lp_norm():
    # R and W share them; computing either twice shows as a second span
    from modlab import Grid, NormTag, VectorField, reshetnyak

    spans = _load_spans()
    g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[6, 6])
    values = np.random.default_rng(0).normal(size=(g.num_cells, 3))
    for tag in NormTag:
        tracer = spans.Tracer()
        try:
            spans.install_modlab(tracer)
            reshetnyak.norm_equivalence_check(VectorField(grid=g, values=values, norm=tag), 2.0)
        finally:
            tracer.uninstall()
        calls = tracer.call_counts()
        assert calls.get("sobolev.finite_diff_gradient") == 1, tag
        assert calls.get("vectorvalues.lp_norm") == 1, tag
        assert calls.get(f"reshetnyak.gstar_{tag.value}") == 1, tag
        assert calls.get("sobolev.w_norm") == 1, tag
