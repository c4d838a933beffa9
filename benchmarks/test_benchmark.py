"""Fast tests of the benchmark itself: the tail rule, the tracer, and that
every checker accepts modlab's right answers and rejects wrong ones.

Run from the repository root: python -m pytest benchmarks -q
"""

import copy
import dataclasses
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import inputs  # noqa: E402
import modlab  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# --- the tail rule -------------------------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    value, pct = run.tail(list(range(1, 48)))
    assert value == 37 and sum(x > value for x in range(1, 48)) == 10
    assert pct == pytest.approx(100 * 37 / 47)


def test_tail_needs_forty_samples():
    with pytest.raises(ValueError):
        run.tail(list(range(39)))


def test_summary_takes_per_round_statistics():
    fast = [0.001] * 30 + [0.002] * 20  # per round: median 1 ms, tail 2 ms
    rounds = [{"wall_s": w, "latency_s": fast} for w in (3.0, 1.0, 2.0)]
    got = run.summarize(rounds)
    assert got["run_s"] == 2.0
    assert got["op_p50_ms"] == pytest.approx(1.0)
    assert got["op_tail_ms"] == pytest.approx(2.0)


# --- the tracer ----------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"op": 6.0, "a": 3.0, "b": 1.0}
    assert tracer.call_counts() == {"op": 1, "a": 2, "b": 1}


def test_install_wraps_cross_module_references_and_uninstall_restores():
    original = modlab.geometry.cell_lengths
    tracer = spans.Tracer()
    spans.install_modlab(tracer)
    try:
        assert modlab.modulus.cell_lengths is not original
        grid = modlab.Grid([0.0, 0.0], [1.0, 1.0], [8, 8])
        fam = modlab.CurveFamily([modlab.Polyline([[0.0, 0.1], [1.0, 0.1]])] * 3)
        modlab.solve_modulus(modlab.assemble_problem(fam, grid, 2.0))
    finally:
        tracer.uninstall()
    assert modlab.modulus.cell_lengths is original
    calls = tracer.call_counts()
    assert calls["geometry.cell_lengths"] == 3 and calls["modulus.lbfgsb"] == 1
    metrics = spans.layer_metrics(tracer, rounds=1)
    assert metrics["modulus.constraint_nnz"] == 24 and metrics["modulus.tight_row_share"] == 1.0
    assert set(metrics) >= {f"{name}_s" for name in spans.TIMED}


# --- modulus checks ------------------------------------------------------------

RES = 16


@pytest.fixture(scope="module")
def parallel_case():
    curves, closed = inputs.parallel_segments(np.random.default_rng(5), RES)
    fam = modlab.CurveFamily([modlab.Polyline(c) for c in curves])
    result = modlab.solve_modulus(modlab.assemble_problem(fam, modlab.Grid([0, 0], [1, 1], [RES, RES]), 2.0), tol=1e-8)
    return result, reference.LineIntegrals(curves, RES), closed


def _check(result, case, **kw):
    _, lines, closed = case
    return ops.check_modulus(result, lines, 2.0, 1e-8, RES, kw.get("closed", closed))


def test_modulus_check_accepts_the_solver(parallel_case):
    assert _check(parallel_case[0], parallel_case) is None


def test_modulus_check_rejects_a_scaled_density(parallel_case):
    bad = copy.deepcopy(parallel_case[0])
    bad.rho_star.values *= 0.99
    assert "not admissible" in _check(bad, parallel_case)


def test_modulus_check_rejects_wrong_values(parallel_case):
    good = parallel_case[0]
    assert "p-energy" in _check(dataclasses.replace(good, value=good.value * (1 + 1e-6)), parallel_case)
    assert "dual" in _check(dataclasses.replace(good, dual_value=good.value * (1 + 1e-6)), parallel_case)
    assert "gap" in _check(dataclasses.replace(good, gap=1e-6), parallel_case)
    assert "certify" in _check(dataclasses.replace(good, converged=False), parallel_case)
    wrong = dict(parallel_case[2], k=parallel_case[2]["k"] + 1)
    assert "closed form" in _check(good, parallel_case, closed=wrong)


def test_line_integrals_split_at_cell_faces():
    rho = np.arange(RES * RES, dtype=float)
    curve = np.array([[0.0, 0.5 / RES], [1.0, 0.5 / RES]])  # along the first cell row
    value, error = reference.LineIntegrals([curve], RES)(rho)
    assert value[0] == pytest.approx(sum(rho[i * RES] for i in range(RES)) / RES, rel=1e-14)
    assert 0.0 < error[0] < 1e-10


# --- field checks --------------------------------------------------------------

def _field(M, tag, res=RES, seed=1):
    values, jac = inputs.smooth_field(np.random.default_rng(seed), res, M)
    return values, jac, modlab.VectorField(modlab.Grid([0, 0], [1, 1], [res, res]), values, modlab.NormTag(tag))


@pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
def test_norm_check_rejects_a_perturbed_gstar(tag):
    values, _, f = _field(3, tag)
    rep = modlab.norm_equivalence_check(f, 2.0).to_dict()
    ref = reference.norms(values, tag, 2.0, RES)
    assert ops.check_norms(rep, ref, 3) is None
    gstar_norm = ref["r"] - reference.lp(reference.value_norm(values, tag), 2.0, RES)
    bad = copy.deepcopy(rep)
    bad["meta"]["r_norm"] += 1e-6 * gstar_norm  # g* scaled by 1 + 1e-6 everywhere
    assert "R norm" in ops.check_norms(bad, ref, 3)
    bad = copy.deepcopy(rep)
    bad["meta"]["w_norm"] *= 1 + 1e-8
    assert "W norm" in ops.check_norms(bad, ref, 3)


def test_norm_check_requires_r_equal_w_for_scalar_fields():
    values, _, f = _field(1, "l2")
    rep = modlab.norm_equivalence_check(f, 1.0).to_dict()
    ref = reference.norms(values, "l2", 1.0, RES)
    assert ops.check_norms(rep, ref, 1) is None
    rep["meta"]["r_norm"] *= 1 - 1e-10
    ref = dict(ref, r=rep["meta"]["r_norm"])
    assert "R != W" in ops.check_norms(rep, ref, 1)


def test_reference_gstar_modes_agree_for_one_component():
    J = np.random.default_rng(2).normal(size=(50, 2, 1))
    modes = [reference.gstar(J, tag) for tag in ("l1", "l2", "linf")]
    np.testing.assert_allclose(modes[0], modes[1], rtol=1e-14)
    np.testing.assert_allclose(modes[2], modes[1], rtol=1e-14)


def test_ac_check_rejects_wrong_increment_and_integral():
    res = 32
    values, jac, f = _field(2, "linf", res)
    g = inputs.majorant(jac, "linf", res)
    curve = inputs.fixed_length_polyline(np.random.default_rng(3))
    rep = modlab.ac_bound_check(f, modlab.ScalarField(f.grid, g), modlab.Polyline(curve), 1e-3).to_dict()
    args = (values, g, curve, "linf", res, 1e-3)
    assert ops.check_ac(rep, *args) is None
    for key in ("value", "bound"):
        bad = copy.deepcopy(rep)
        bad["checks"][11][key] *= 1 + 1e-6
        assert ops.check_ac(bad, *args) is not None


def test_rung_and_lipschitz_checks_reject_perturbations():
    rep = modlab.dichotomy_report(0.6, [0.1], 2.0, 64).to_dict()
    assert ops.check_rung(rep, 0.6, [0.1]) is None
    rep["series"][0]["rows"][0][3] *= 1 + 1e-6
    assert "gap" in ops.check_rung(rep, 0.6, [0.1])
    rep = modlab.lipschitz_certificate(modlab.sin_family(8, 32)).to_dict()
    assert ops.check_lipschitz(rep, 8, 32) is None
    rep["checks"][0]["value"] *= 1 - 1e-9
    assert "adjacent slope" in ops.check_lipschitz(rep, 8, 32)


def test_adjacent_slope_is_the_largest_chord_slope():
    M, res = 6, 24
    t = [(i + 0.5) / res for i in range(res)]
    chords = max(abs(math.sin(n * b) - math.sin(n * a)) / n / (b - a)
                 for n in range(1, M + 1) for i, a in enumerate(t) for b in t[i + 1:])
    assert reference.adjacent_slope(M, res) == pytest.approx(chords, rel=1e-12)


# --- cli checks ----------------------------------------------------------------

def test_cli_check_rejects_wrong_exit_codes_and_missing_reports(tmp_path):
    spec = {"kind": "weakcheck", "bumps": 4, "exit": 1, "argv": ["weakcheck", "--out", str(tmp_path / "r.json")]}
    assert "exit code" in ops.check_cli(spec, 0, {}, {})
    assert "unreadable" in ops.check_cli(spec, 1, {}, {})
    (tmp_path / "r.json").write_text('{"checks": [1, 2, 3, 4]}')
    assert ops.check_cli(spec, 1, {}, {}) is None


def test_generation_is_a_function_of_the_seed(tmp_path):
    for name, generate in inputs.GENERATORS.items():
        directory = tmp_path / name
        manifest = generate(7, directory)
        assert len(manifest["ops"]) >= 4 * run.BEYOND
        files = {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}
        assert generate(7, directory) == manifest
        assert all(p.read_bytes() == data for p, data in files.items())
        assert generate(8, directory) != manifest
