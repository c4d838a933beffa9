import json
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from modlab import (
    CurveFamily,
    Grid,
    Polyline,
    ScalarField,
    ScheduleError,
    analytic_parallel_segments,
    assemble_problem,
    chebyshev_modulus_bound,
    curve_integral,
    fuglede_schedule,
    restrict,
    solve_modulus,
)
from modlab import modulus
from modlab.acceptance import random_polyline
from modlab.modulus import ModulusProblem, chebyshev_bound_from_norm
from oracles import bincount_normal_matrix, enumerated_pair_operator, kkt_single_row


def unit_grid(res):
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[res, res])


def random_curves(rng, count, lo=0.05, hi=0.95):
    return [Polyline(rng.uniform(lo, hi, size=(rng.integers(2, 5), 2))) for _ in range(count)]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemble:
    def test_single_unit_segment_on_unit_cells(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[4.0, 4.0], resolution=[4, 4])
        fam = CurveFamily(curves=[Polyline([[1.0, 2.5], [2.0, 2.5]])])
        prob = assemble_problem(fam, g, 2.0)
        assert prob.constraint_rows.shape[0] == 1
        assert prob.constraint_rows.sum() == pytest.approx(1.0, rel=1e-12)

    def test_duplicated_curve_leaves_modulus_unchanged(self, rng):
        g = unit_grid(16)
        c = random_curves(rng, 1)[0]
        prob_single = assemble_problem(CurveFamily(curves=[c]), g, 2.0)
        prob_double = assemble_problem(CurveFamily(curves=[c, c]), g, 2.0)
        assert prob_double.constraint_rows.shape[0] == 2
        assert np.allclose(
            prob_double.constraint_rows.toarray()[0], prob_double.constraint_rows.toarray()[1]
        )
        single = solve_modulus(prob_single, tol=1e-10)
        doubled = solve_modulus(prob_double, tol=1e-10)
        assert doubled.value == pytest.approx(single.value, rel=1e-8)

    def test_admissibility_matches_curve_integral(self, rng):
        g = unit_grid(8)
        curves = random_curves(rng, 4)
        prob = assemble_problem(CurveFamily(curves=curves), g, 2.0)
        rho = ScalarField(grid=g, values=rng.uniform(0.0, 3.0, g.num_cells))
        lhs = prob.constraint_rows @ rho.values
        for j, c in enumerate(curves):
            assert lhs[j] == pytest.approx(curve_integral(rho, c), abs=1e-9)

    def test_empty_family_gives_zero_modulus(self):
        g = unit_grid(8)
        prob = assemble_problem(CurveFamily(curves=[], label="empty"), g, 2.0)
        res = solve_modulus(prob)
        assert res.value == 0.0
        assert res.converged
        assert np.all(res.rho_star.values == 0.0)

    def test_p_below_one_rejected(self, rng):
        g = unit_grid(8)
        with pytest.raises(ValueError):
            assemble_problem(CurveFamily(curves=random_curves(rng, 1)), g, 0.9)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_bounds_reject_a_p_that_is_not_finite(self, p):
        for bound in (lambda: analytic_parallel_segments(1.0, 1.0, p), lambda: fuglede_schedule([0.1], p, 0.5)):
            with pytest.raises(ValueError, match="finite p >= 1"):
                bound()

    @pytest.mark.parametrize("p", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_a_bool_exponent_rejected(self, rng, p):
        # the rule only compared, so True passed as p = 1
        for bound in (lambda: analytic_parallel_segments(1.0, 1.0, p), lambda: fuglede_schedule([0.1], p, 0.5),
                      lambda: assemble_problem(CurveFamily(curves=random_curves(rng, 1)), unit_grid(8), p)):
            with pytest.raises(ValueError, match="finite p >= 1"):
                bound()

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_p_not_finite_rejected(self, rng, monkeypatch, p):
        # rejected before the rows are assembled, as is a ModulusProblem built directly
        monkeypatch.setattr(modulus, "cell_length_rows", None)
        with pytest.raises(ValueError, match="finite p >= 1"):
            assemble_problem(CurveFamily(curves=random_curves(rng, 1)), unit_grid(8), p)
        with pytest.raises(ValueError, match="finite p >= 1"):
            ModulusProblem(sp.csr_matrix(np.ones((1, 4))), p, Grid([0.0, 0.0], [1.0, 1.0], [2, 2]))


class TestSolve:
    def test_single_constraint_matches_kkt_oracle(self, rng):
        g = unit_grid(6)
        for p in (1.5, 2.0, 3.0):
            c = random_curves(rng, 1)[0]
            prob = assemble_problem(CurveFamily(curves=[c]), g, p)
            res = solve_modulus(prob, tol=1e-10)
            a = prob.constraint_rows.toarray().ravel()
            mask = a > 0
            rho_oracle = np.zeros_like(a)
            rho_oracle[mask], value_oracle = kkt_single_row(a[mask], np.full(g.num_cells, g.cell_volume)[mask], p)
            assert res.converged
            assert res.value == pytest.approx(value_oracle, rel=1e-8)
            assert np.allclose(res.rho_star.values, rho_oracle, atol=1e-6)

    @pytest.mark.parametrize(
        "p,max_iter,solver,hit",
        [(3.0, 1, "primal-dual-ipm", True), (2.0, 2000, "primal-dual-ipm", False),
         (1.0, 1, "primal-dual-ipm", True)],
        ids=["p3-max-iter-1", "p2-default", "p1"],
    )
    def test_diagnostics_name_the_solver_and_a_max_iter_stop(self, rng, p, max_iter, solver, hit):
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 12)), unit_grid(8), p)
        diagnostics = solve_modulus(prob, max_iter=max_iter).diagnostics
        assert diagnostics["solver"] == solver
        assert diagnostics["max_iter_hit"] is hit

    def test_parallel_segments_match_analytic_value(self):
        res = 16
        g = unit_grid(res)
        h = 1.0 / res
        curves = [Polyline([[0.0, (j + 0.5) * h], [1.0, (j + 0.5) * h]]) for j in range(res)]
        for p in (1.5, 2.0, 3.0):
            sol = solve_modulus(assemble_problem(CurveFamily(curves=curves), g, p), tol=1e-9)
            assert sol.converged
            assert sol.value == pytest.approx(analytic_parallel_segments(1.0, 1.0, p), rel=1e-6)

    def test_p_one_linear_program(self):
        res = 16
        g = unit_grid(res)
        h = 1.0 / res
        curves = [Polyline([[0.0, (j + 0.5) * h], [1.0, (j + 0.5) * h]]) for j in range(res // 2)]
        sol = solve_modulus(assemble_problem(CurveFamily(curves=curves), g, 1.0), tol=1e-4)
        assert sol.converged
        assert sol.value == pytest.approx(0.5, rel=1e-4)
        assert sol.gap <= 1e-4 * (1 + sol.value)

    def test_duality_gap_certificate(self, rng):
        g = unit_grid(16)
        for trial in range(5):
            fam = CurveFamily(curves=random_curves(rng, int(rng.integers(1, 5))))
            sol = solve_modulus(assemble_problem(fam, g, 2.0), tol=1e-9)
            assert sol.converged
            assert sol.gap <= 1e-9 * (1 + sol.value)
            assert sol.max_constraint_violation <= 1e-9

    def test_overlap_monotonicity(self, rng):
        # curves of the larger family contain subcurves forming the smaller one
        g = unit_grid(16)
        long_curves = random_curves(rng, 3)
        short_curves = [
            restrict(c, 0.25 * c.length, 0.75 * c.length) for c in long_curves
        ]
        v_long = solve_modulus(assemble_problem(CurveFamily(curves=long_curves), g, 2.0), tol=1e-10).value
        v_short = solve_modulus(assemble_problem(CurveFamily(curves=short_curves), g, 2.0), tol=1e-10).value
        assert v_long <= v_short + 1e-8

    def test_disjoint_support_additivity(self, rng):
        g = unit_grid(16)
        left = random_curves(rng, 2, 0.05, 0.4)
        right = random_curves(rng, 2, 0.6, 0.95)
        v_l = solve_modulus(assemble_problem(CurveFamily(curves=left), g, 2.0), tol=1e-10).value
        v_r = solve_modulus(assemble_problem(CurveFamily(curves=right), g, 2.0), tol=1e-10).value
        v_u = solve_modulus(assemble_problem(CurveFamily(curves=left + right), g, 2.0), tol=1e-10).value
        assert v_u == pytest.approx(v_l + v_r, rel=1e-6)

    def test_invalid_tolerance(self, rng):
        g = unit_grid(8)
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 1)), g, 2.0)
        with pytest.raises(ValueError):
            solve_modulus(prob, tol=0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-8])
    def test_tolerance_not_finite_and_positive_rejected(self, monkeypatch, tol):
        # tol=inf used to report an uncertified density as converged after 0 steps
        prob = assemble_problem(CurveFamily([Polyline([[0.1, 0.2], [0.9, 0.7]]), Polyline([[0.2, 0.9], [0.8, 0.1]])]), unit_grid(16), 2.0)
        monkeypatch.setattr(modulus, "_interior_point", None)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_modulus(prob, tol=tol)

    @pytest.mark.parametrize("tol", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_a_bool_tolerance_rejected(self, monkeypatch, tol):
        # True once passed as tol = 1, and one step "certified" a gap of 0.0109
        prob = assemble_problem(CurveFamily([Polyline([[0.1, 0.2], [0.9, 0.7]])]), unit_grid(4), 2.0)
        monkeypatch.setattr(modulus, "_interior_point", None)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_modulus(prob, tol=tol)

    @pytest.mark.parametrize("max_iter", [-1, 2.5, None, True])
    def test_max_iter_not_a_count_rejected(self, rng, monkeypatch, max_iter):
        # a negative or fractional cap was never met, so it removed the step cap
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 2)), unit_grid(8), 2.0)
        monkeypatch.setattr(modulus, "_interior_point", None)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            solve_modulus(prob, max_iter=max_iter)

    def test_zero_max_iter_returns_the_starting_point(self, rng):
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 2)), unit_grid(8), 2.0)
        result = solve_modulus(prob, max_iter=0)
        assert result.iterations == 0 and result.diagnostics["max_iter_hit"]

    def test_lp_solution_with_a_zero_margin_is_unconverged(self, monkeypatch):
        g = unit_grid(4)
        prob = assemble_problem(CurveFamily([Polyline([[0.0, 0.3], [1.0, 0.3]])]), g, 1.0)

        def zero_solution(prob, tol, max_iter):
            return None, 0.0, 3, {"solver": "primal-dual-ipm", "max_iter_hit": False}

        monkeypatch.setattr(modulus, "_interior_point", zero_solution)
        result = solve_modulus(prob)
        assert not result.converged
        assert result.gap == float("inf") and result.iterations == 3
        assert np.all(result.rho_star.values == 0.0)

    @staticmethod
    def stub_potrf(monkeypatch, info, calls):
        """Make the solve's LAPACK potrf return ``info`` on its first ``calls``
        calls (on every call when None) and factor normally after that.
        Returns the list of the infos it returned."""
        import scipy.linalg

        lapack = scipy.linalg.get_lapack_funcs
        seen = []

        def get_lapack_funcs(names, *args, **kwargs):
            potrf, potrs = lapack(names, *args, **kwargs)

            def stub(a, **flags):
                if calls is None or len(seen) < calls:
                    seen.append(info)
                    return a, info
                factor, got = potrf(a, **flags)
                seen.append(got)
                return factor, got

            return stub, potrs

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
        return seen

    def test_a_failed_factorization_ends_the_solve_with_a_result(self, monkeypatch, rng):
        seen = self.stub_potrf(monkeypatch, 1, None)
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 5)), unit_grid(8), 2.0)
        result = solve_modulus(prob)
        assert not result.converged and result.iterations == 0
        assert "factorization failed" in result.diagnostics["message"]
        assert result.dual_value <= result.value and np.isfinite(result.gap)
        assert np.all(prob.constraint_rows @ result.rho_star.values >= 1.0 - 1e-12)
        # the first failure raises the diagonal, the second ends the solve
        assert seen == [1, 1]
        assert result.diagnostics["message"] == (
            "factorization failed: 1-th leading minor of the array is not positive definite"
        )

    def test_a_factorization_that_fails_once_is_retried_with_the_ridge(self, monkeypatch, rng):
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 5)), unit_grid(8), 2.0)
        plain = solve_modulus(prob)
        seen = self.stub_potrf(monkeypatch, 3, 1)
        result = solve_modulus(prob)
        assert seen[0] == 3 and len(seen) > 1 and not any(seen[1:])
        assert result.converged and result.diagnostics["message"] == "certificates met"
        assert result.gap <= 1e-8 * (1.0 + result.value)
        assert result.dual_value <= result.value + ROUNDOFF * (1.0 + result.value)
        assert abs(result.value - plain.value) <= 1e-8 * (1.0 + plain.value)

    def test_an_illegal_lapack_argument_raises(self, monkeypatch, rng):
        self.stub_potrf(monkeypatch, -4, None)
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 5)), unit_grid(8), 2.0)
        with pytest.raises(ValueError, match="illegal value in 4-th argument"):
            solve_modulus(prob)

    def test_lp_certifies_a_family_the_simplex_left_unconverged(self):
        # 200 random polylines (695 vertices) on 48^2: the benchmark's modulus
        # workload, seed 0, operation 6. The dual simplex left a relative gap
        # of 3.0e-7 here once its duals were rescaled to A^T lam <= w.
        data = json.loads((Path(__file__).parent / "data" / "lp_gap_family.json").read_text())
        vertices = np.array(data["vertices"])
        curves = np.split(vertices, np.cumsum(data["counts"])[:-1])
        fam = CurveFamily(curves=[Polyline(c) for c in curves])
        result = solve_modulus(assemble_problem(fam, unit_grid(data["resolution"]), 1.0), tol=1e-8)
        assert result.converged
        assert result.gap <= 1e-8 * (1.0 + result.value)
        assert result.max_constraint_violation <= 1e-8


# weak duality up to the rounding of the two certificate sums
ROUNDOFF = 1e-14


class TestInteriorPoint:
    def test_p3_segment_family_certifies_in_few_steps(self):
        # 500 two-vertex segments on 64^2: L-BFGS-B ran 2002 iterations here
        # and stopped at max_iter before its Newton polish.
        rng = np.random.default_rng(3)
        fam = CurveFamily(curves=[random_polyline(rng, 2) for _ in range(500)])
        result = solve_modulus(assemble_problem(fam, unit_grid(64), 3.0), tol=1e-8)
        assert result.converged and not result.diagnostics["max_iter_hit"]
        assert result.iterations <= 60

    @pytest.mark.parametrize("seed", range(6))
    def test_p1_value_agrees_with_highs(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        fam = CurveFamily(curves=random_curves(rng, int(rng.integers(1, 40))))
        prob = assemble_problem(fam, unit_grid(int(rng.integers(8, 33))), 1.0)
        result = solve_modulus(prob, tol=1e-10)
        highs = linprog(
            np.full(prob.grid.num_cells, prob.grid.cell_volume), A_ub=-prob.constraint_rows,
            b_ub=-np.ones(prob.num_curves), bounds=(0.0, None), method="highs",
        )
        assert result.converged and highs.status == 0
        # HiGHS's optimum is itself accurate only to its tolerances
        slack = 1e-9 * (1.0 + result.value)
        assert result.dual_value - slack <= highs.fun <= result.value + slack

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_certificates_meet_a_tight_tolerance(self, p, seed):
        rng = np.random.default_rng(100 + seed)
        fam = CurveFamily(curves=random_curves(rng, int(rng.integers(1, 40))))
        result = solve_modulus(assemble_problem(fam, unit_grid(int(rng.integers(8, 33))), p), tol=1e-10)
        assert result.converged
        assert result.dual_value <= result.value + ROUNDOFF * (1.0 + result.value)
        assert result.gap <= 1e-10 * (1.0 + result.value)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["identical", "oblique", "disjoint"])
    def test_degenerate_families_certify(self, p, kind):
        # three identical curves make duplicate rows and a nearly singular A D A^T
        curves = {
            "identical": [Polyline([[0.1, 0.2], [0.5, 0.8], [0.9, 0.3]])] * 3,
            "oblique": [Polyline([[0.1, 0.2], [0.9, 0.7]])],
            "disjoint": [Polyline([[0.1, 0.1], [0.3, 0.4]]), Polyline([[0.6, 0.9], [0.9, 0.6]])],
        }[kind]
        result = solve_modulus(assemble_problem(CurveFamily(curves=curves), unit_grid(16), p), tol=1e-10)
        assert result.converged
        assert result.dual_value <= result.value + ROUNDOFF * (1.0 + result.value)
        assert result.gap <= 1e-10 * (1.0 + result.value)


    @pytest.mark.parametrize(
        "p,tol,message",
        [(1.0, 2.3e-16, r"certified gap stalled at \S+ since step \d+"),
         (2.0, 1e-320, r"step {} stopped in float64 arithmetic: divide by zero encountered in divide")],
        ids=["p1-tol-above-eps", "p2-subnormal-tol"],
    )
    def test_a_coordinate_at_zero_ends_the_solve_with_a_result(self, p, tol, message):
        # 20 random curves on 8^2: a tolerance below reach once drove a
        # coordinate to exactly 0, and min(dv / v) divided by it each step
        # until max_iter; at p = 1 the stall rule now ends the solve first
        fam = CurveFamily(curves=random_curves(np.random.default_rng(0), 20))
        prob = assemble_problem(fam, unit_grid(8), p)
        result = solve_modulus(prob, tol=tol)
        assert not result.diagnostics["max_iter_hit"] and result.iterations < 2000
        assert re.fullmatch(message.format(result.iterations + 1), result.diagnostics["message"])
        assert result.dual_value <= result.value + ROUNDOFF * (1.0 + result.value)
        assert result.gap <= 1e-8 * (1.0 + result.value)
        assert np.all(prob.constraint_rows @ result.rho_star.values >= 1.0 - 1e-12)

    @pytest.mark.parametrize("p", [2000.0, 1e308])
    def test_an_energy_past_float64_names_the_exponent(self, p):
        # rho^(p - 1) once overflowed with numpy warnings, and the NaN density
        # failed later as "field values must be finite"
        fam = CurveFamily(curves=[Polyline([[0.1, 0.2], [0.9, 0.7]]), Polyline([[0.2, 0.1], [0.3, 0.9]])])
        with pytest.raises(ValueError, match=rf"^the energy rho\^p at the exponent p = {re.escape(repr(p))} overflows float64$"):
            solve_modulus(assemble_problem(fam, unit_grid(8), p))

    def test_a_solve_holds_one_normal_matrix(self):
        # 625 segments, one in each cell of 25^2: P has one entry per curve,
        # and the m x m normal matrix (3.1 MB) is most of what a step holds
        res = 25
        h = 1.0 / res
        starts = (np.indices((res, res)).reshape(2, -1).T + 0.2) * h
        lengths = np.random.default_rng(3).uniform(0.1, 0.6, size=res * res) * h
        curves = [Polyline([a, a + [b, 0.5 * h]]) for a, b in zip(starts, lengths)]
        prob = assemble_problem(CurveFamily(curves=curves), unit_grid(res), 2.0)
        solve_modulus(prob)  # scipy.linalg loads on the first solve
        result, peak = traced_peak(solve_modulus, prob)
        assert result.converged
        assert peak < 1.5 * prob.num_curves**2 * 8

    @staticmethod
    def radial_segments(n, half_turn):
        """4n segments of length 0.45 from just off the centre of the unit square,
        at angles 2 pi k / 4n, or 2 pi (k + 1/2) / 4n with ``half_turn``."""
        K = 4 * n
        c = np.array([0.5, 0.5]) + 1e-7 * np.array([1.0, math.sqrt(2.0)])
        angles = 2.0 * np.pi * (np.arange(K) + (0.5 if half_turn else 0.0)) / K
        return CurveFamily(curves=[Polyline([c, c + 0.45 * np.array([np.cos(a), np.sin(a)])]) for a in angles])

    def test_a_stalled_gap_returns_the_best_certificate(self, monkeypatch):
        # no iterate meets 1e-12 here: the complementarity plateaus above the
        # gate, and the solve once ran all 2000 steps and returned its last
        # iterate, whatever its gap; some BLAS kernels certify 1e-11
        gaps = []
        real = modulus._certify

        def recorded(*args):
            cert = real(*args)
            gaps.append(cert[3])
            return cert

        monkeypatch.setattr(modulus, "_certify", recorded)
        result = solve_modulus(assemble_problem(self.radial_segments(32, False), unit_grid(32), 1.0), tol=1e-12)
        step = result.diagnostics["certificate_step"]
        assert not result.converged and result.iterations <= 100
        assert result.iterations == step + modulus.STALL_PATIENCE
        assert result.diagnostics["message"] == f"certified gap stalled at {result.gap:.3g} since step {step}"
        assert result.gap == min(gaps) and result.gap > 1e-12 * (1.0 + result.value)

    def test_a_certificate_below_the_gate_is_returned(self):
        # the gate never opened, and the solve ran all 2000 steps although
        # its 13th iterate met the tolerance
        result = solve_modulus(assemble_problem(self.radial_segments(32, True), unit_grid(32), 1.0), tol=1e-10)
        assert result.converged and result.diagnostics["message"] == "certificates met"
        assert result.iterations < 100 and result.diagnostics["certificate_step"] == result.iterations
        assert result.gap <= 1e-10 * (1.0 + result.value)

    def test_a_tolerance_below_reach_names_the_stall(self):
        # ran all 2000 steps; its best certificate is 1.8 to 3 times what tol asks for,
        # as the BLAS kernel goes, and one kernel certified the 2.3e-16 this test once asked
        fam = CurveFamily(curves=random_curves(np.random.default_rng(1), 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_modulus(assemble_problem(fam, unit_grid(8), 1.0), tol=1e-16)
        assert not result.converged and not result.diagnostics["max_iter_hit"]
        assert result.iterations < 300
        assert result.diagnostics["message"].startswith("certified gap stalled at ")

    @pytest.mark.parametrize("seed,res,p", [(1, 8, 1.5), (3, 16, 2.0), (4, 16, 3.0)])
    def test_the_returned_certificate_is_the_one_the_loop_stopped_on(self, monkeypatch, seed, res, p):
        # the gate once certified the density on the crossed cells, and
        # solve_modulus the whole grid's again; the two sums round apart, so a
        # solve at a tol within an ulp of a gap said "certificates met" and
        # returned converged False
        calls = []  # (the caller's step, if it has one, the rows, the certificate)
        real = modulus._certify

        def recorded(*args):
            cert = real(*args)
            calls.append((sys._getframe(1).f_locals.get("it"), args[0], cert))
            return cert

        monkeypatch.setattr(modulus, "_certify", recorded)
        prob = assemble_problem(CurveFamily(random_curves(np.random.default_rng(seed), 20)), unit_grid(res), p)
        solve_modulus(prob, tol=1e-15)
        # the least tol each certificate meets, so no threshold depends on the BLAS kernel
        tols = [np.nextafter(max(c[3] / (1.0 + c[1]), c[2]), np.inf) for _, _, c in calls if c is not None]
        assert tols
        for tol in tols:
            calls.clear()
            result = solve_modulus(prob, tol=tol)
            step = result.diagnostics["certificate_step"]
            assert (result.diagnostics["message"] == "certificates met") == result.converged
            assert all(rows is prob.constraint_rows for _, rows, _ in calls)
            at_step = [(c[1], c[3]) for s, _, c in calls if s == step]
            assert at_step and all(bits == (result.value, result.gap) for bits in at_step)
            # nothing certifies the met certificate a second time
            assert not result.converged or calls[-1][0] == step


class TestPairOperator:
    """P @ d is C diag(d) C^T's upper triangle, summed in the bincount's order."""

    @staticmethod
    def family(rng, kind):
        if kind == "3d":
            g = Grid([0.0] * 3, [1.0] * 3, [6, 5, 4])
            return [Polyline(rng.uniform(0.0, 1.0, size=(rng.integers(2, 5), 3))) for _ in range(30)], g
        if kind == "column-over-a-block":
            # k curves inside one cell: that column's k (k + 1) / 2 pairs exceed a block
            k = math.isqrt(2 * modulus._PAIR_BLOCK) + 1
            return [Polyline([[0.26, 0.26], [0.26 + u, 0.32]]) for u in rng.uniform(0.0, 0.07, k)], unit_grid(12)
        if kind == "block-ends-mid-column":
            # 10 curves across the same row of cells, 55 pairs per column; the
            # whole columns a block holds leave room for part of the next one
            assert modulus._PAIR_BLOCK % 55 >= 10
            cells = modulus._PAIR_BLOCK // 55 + 2
            g = Grid([0.0, 0.0], [1.0, 1.0], [cells, 4])
            ends = rng.uniform(0.0, 1.0 / cells, size=(10, 2))
            return [Polyline([[a, y], [1.0 - b, y]]) for (a, b), y in zip(ends, np.linspace(0.3, 0.45, 10))], g
        return {
            "random": random_curves(rng, 40),
            "identical": [Polyline([[0.1, 0.2], [0.5, 0.8], [0.9, 0.3]])] * 5,
            "disjoint": [Polyline([[0.1, 0.1], [0.3, 0.4]]), Polyline([[0.6, 0.9], [0.9, 0.6]])],
        }[kind], unit_grid(12)

    @pytest.mark.parametrize(
        "kind", ["random", "identical", "disjoint", "3d", "column-over-a-block", "block-ends-mid-column"]
    )
    def test_product_matches_the_bincount_oracle_bit_for_bit(self, rng, kind):
        curves, g = self.family(rng, kind)
        C = assemble_problem(CurveFamily(curves=curves), g, 2.0).constraint_rows.tocsc()
        m, k = C.shape[0], np.diff(C.indptr)
        P = modulus._pair_index(C)
        assert P.shape == (m * m, C.shape[1]) and P.nnz == int(np.sum(k * (k + 1) // 2))
        indptr, indices, data = enumerated_pair_operator(C)
        assert np.array_equal(P.indptr, indptr) and np.array_equal(P.indices, indices)
        assert np.array_equal(P.data, data)
        for _ in range(3):
            d = rng.uniform(1e-3, 1e3, size=C.shape[1])
            K = P @ d
            assert np.array_equal(K, bincount_normal_matrix(C, d))
            dense = (C @ sp.diags(d) @ C.T).toarray()
            assert np.allclose(K.reshape(m, m).T, np.triu(dense), rtol=1e-12, atol=0.0)

    def test_rows_past_int32_do_not_wrap(self):
        # m = 46342 curves put the last row, (m - 1) m + m - 1, past 2^31; only P
        # is built here, never the 17 GB product
        m = 46342
        C = sp.csc_matrix(
            (np.array([2.0, 3.0]), np.array([0, m - 1], dtype=np.int32), np.array([0, 2], dtype=np.int32)),
            shape=(m, 1),
        )
        P = modulus._pair_index(C)
        assert P.indices.tolist() == [0, 2147534622, 2147580963] == enumerated_pair_operator(C)[1].tolist()
        assert P.data.tolist() == [4.0, 6.0, 9.0] and P.indptr.tolist() == [0, 3]

    def test_build_holds_little_beyond_the_operator(self):
        # 400 curves on 48^2: P spans about 27 blocks
        rng = np.random.default_rng(7)
        curves = random_curves(rng, 400)
        C = assemble_problem(CurveFamily(curves=curves), unit_grid(48), 1.0).constraint_rows.tocsc()
        P, peak = traced_peak(modulus._pair_index, C)
        assert P.nnz > 20 * modulus._PAIR_BLOCK
        assert peak <= 1.5 * (P.data.nbytes + P.indices.nbytes + P.indptr.nbytes)


class TestAnalyticParallelSegments:
    def test_unit_case(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert analytic_parallel_segments(1.0, 1.0, p) == 1.0

    def test_null_set(self):
        assert analytic_parallel_segments(0.0, 2.0, 2.0) == 0.0

    def test_direct_substitution(self):
        assert analytic_parallel_segments(0.5, 2.0, 2.0) == pytest.approx(0.125)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            analytic_parallel_segments(1.0, 0.0, 2.0)

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError, match="^measure must be nonnegative$"):
            analytic_parallel_segments(-0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "measure,length,named",
        [(math.nan, 1.0, "the measure"), (True, 1.0, "the measure"), ("1", 1.0, "the measure"),
         (1.0, math.nan, "the segment length"), (1.0, math.inf, "the segment length")],
    )
    def test_measure_and_length_must_be_finite_numbers(self, measure, length, named):
        # a NaN measure or length would give NaN, and an infinite length 0
        with pytest.raises(ValueError, match=f"^{named} must hold finite numbers only"):
            analytic_parallel_segments(measure, length, 2.0)


class TestChebyshevBound:
    def test_zero_density_zero_bound(self, unit_square_16):
        h = ScalarField(grid=unit_square_16, values=np.zeros(unit_square_16.num_cells))
        assert chebyshev_modulus_bound(h, 1.0, 2.0) == 0.0

    def test_indicator_strip_bound(self):
        # h = chi_E / delta with E one cell row: the bound is measure(E)/delta^p
        res, delta = 10, 0.2
        g = unit_grid(res)
        vals = np.zeros(g.shape)
        vals[:, 4] = 1.0 / delta
        h = ScalarField(grid=g, values=vals.ravel())
        measure = res * g.cell_volume
        for p in (1.0, 2.0, 3.0):
            assert chebyshev_modulus_bound(h, 1.0, p) == pytest.approx(measure / delta**p, rel=1e-12)

    def test_solver_dominated_by_bound_on_certified_family(self, rng):
        g = unit_grid(12)
        h = ScalarField(grid=g, values=rng.uniform(0.5, 2.0, g.num_cells))
        curves = random_curves(rng, 5)
        prob = assemble_problem(CurveFamily(curves=curves), g, 2.0)
        eps = float(np.min(prob.constraint_rows @ h.values))
        bound = chebyshev_modulus_bound(h, eps, 2.0)
        value = solve_modulus(prob, tol=1e-10).value
        assert value <= bound + 1e-9

    @pytest.mark.parametrize("norm", [math.nan, math.inf, True, "0.5"])
    def test_norm_must_be_a_finite_number(self, norm):
        # a NaN norm would give a NaN bound
        with pytest.raises(ValueError, match="^the norm must hold finite numbers only"):
            chebyshev_bound_from_norm(norm, 0.5, 2.0)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError, match="^norm must be nonnegative$"):
            chebyshev_bound_from_norm(-0.5, 0.5, 2.0)

    def test_negative_density_rejected(self, unit_square_16):
        values = np.ones(unit_square_16.num_cells)
        values[7] = -1e-3
        with pytest.raises(ValueError, match="^h must be nonnegative$"):
            chebyshev_modulus_bound(ScalarField(grid=unit_square_16, values=values), 0.5, 2.0)

    @pytest.mark.parametrize("eps", [math.inf, True, np.True_], ids=["inf", "bool", "numpy-bool"])
    def test_eps_must_be_finite_and_not_a_bool(self, unit_square_16, eps):
        # an infinite eps made every bound 0, "certifying" a null family, and True read as 1
        h = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        for bound in (
            lambda: chebyshev_bound_from_norm(0.5, eps, 2.0),
            lambda: chebyshev_modulus_bound(h, eps, 2.0),
            lambda: fuglede_schedule([0.2, 0.01], 2.0, eps),
        ):
            with pytest.raises(ValueError, match="^eps must hold finite numbers only"):
                bound()

    def test_invalid_eps(self, unit_square_16):
        h = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        with pytest.raises(ValueError):
            chebyshev_modulus_bound(h, 0.0, 2.0)

    def test_nan_eps_rejected(self, unit_square_16):
        # NaN fails no "eps <= 0" test, and every bound it reaches is NaN
        h = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        nan = float("nan")
        for bound in (
            lambda: chebyshev_bound_from_norm(1.0, nan, 2.0),
            lambda: chebyshev_modulus_bound(h, nan, 2.0),
            lambda: fuglede_schedule([0.1], 2.0, nan),
        ):
            with pytest.raises(ValueError, match="eps must be positive"):
                bound()


class TestFugledeSchedule:
    def test_geometric_sequence_selects_every_other_index(self):
        norms = [2.0**-n for n in range(1, 21)]
        schedule = fuglede_schedule(norms, p=2.0, eps=0.5)
        assert [idx for idx, _ in schedule] == [2 * k for k in range(1, 11)]
        bounds = [b for _, b in schedule]
        # bound_k = (2^-2k)^p / eps^p, strictly decreasing
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx((0.25**2) / 0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.1", None])
    def test_norms_must_be_finite_numbers(self, bad):
        # a NaN or inf would be skipped as a norm never small enough, and True read as 1.0
        with pytest.raises(ValueError, match="^norms must hold finite numbers only"):
            fuglede_schedule([bad, 0.2, 0.01], 2.0, 0.5)

    def test_constant_sequence_errors(self):
        with pytest.raises(ScheduleError):
            fuglede_schedule([1.0] * 10, p=2.0, eps=0.5)

    def test_single_dip_then_rising_errors_after_first_term(self):
        norms = [0.9, 0.2, 0.9, 0.9, 0.9, 0.9]
        with pytest.raises(ScheduleError):
            fuglede_schedule(norms, p=2.0, eps=0.5)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError, match="^norms must be nonnegative$"):
            fuglede_schedule([0.2, -0.01], 2.0, 0.5)

    def test_empty_sequence_raises(self):
        with pytest.raises(ScheduleError, match="^empty norm sequence$"):
            fuglede_schedule([], 2.0, 0.5)

    @pytest.mark.parametrize("norms,n,k", [([0.9, 0.2, 0.9, 0.9], 3, 2), ([0.3], 1, 1), ([0.2, 0.05, 0.01, 0.5], 4, 4)])
    def test_error_names_where_the_scan_stopped(self, norms, n, k):
        # n is the first index after the last pick, and 4^-k the threshold none from it on meets
        with pytest.raises(ScheduleError, match=rf"^no index from n={n} on has norm <= 4\^-{k}; sequence does not certify convergence$"):
            fuglede_schedule(norms, 2.0, 0.5)

    def test_a_zero_norm_is_picked_with_a_zero_bound(self):
        # g_n = g is allowed: a zero norm meets every threshold 4^-k
        assert fuglede_schedule([0.2, 0.0], 2.0, 0.5) == [(1, 0.16000000000000003), (2, 0.0)]

    def test_bound_uses_actual_norm(self):
        norms = [0.2, 0.01]
        schedule = fuglede_schedule(norms, p=2.0, eps=1.0)
        assert [idx for idx, _ in schedule] == [1, 2]
        assert schedule[0][1] == pytest.approx(0.2**2)
        assert schedule[1][1] == pytest.approx(0.01**2)


class TestProblemValidation:
    def test_negative_rows_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix(-np.ones((1, g.num_cells)))
        with pytest.raises(ValueError):
            ModulusProblem(constraint_rows=A, exponent=2.0, grid=g)

    @pytest.mark.parametrize("columns", [15, 17, 64])
    def test_rows_of_another_cell_count_rejected(self, columns):
        g = unit_grid(4)
        with pytest.raises(ValueError, match=f"{columns} columns, the grid 16 cells"):
            ModulusProblem(constraint_rows=sp.csr_matrix(np.ones((1, columns))), exponent=2.0, grid=g)

    def test_zero_row_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix(np.zeros((1, g.num_cells)))
        with pytest.raises(ValueError):
            ModulusProblem(constraint_rows=A, exponent=2.0, grid=g)

    @pytest.mark.parametrize("row", ["no entries", "explicit zeros"])
    def test_a_zero_row_among_positive_rows_rejected(self, row):
        g = unit_grid(4)
        n = g.num_cells
        if row == "no entries":
            A = sp.csr_matrix((np.ones(2), [0, 5], [0, 1, 1, 2]), shape=(3, n))
        else:
            A = sp.csr_matrix((np.array([1.0, 0.0, 0.0, 2.0]), [0, 3, 4, 5], [0, 1, 3, 4]), shape=(3, n))
        with pytest.raises(ValueError, match="positive sum"):
            ModulusProblem(constraint_rows=A, exponent=2.0, grid=g)

    def test_one_negative_entry_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix((np.array([1.0, 3.0, -1e-300]), [0, 1, 2], [0, 3]), shape=(1, g.num_cells))
        with pytest.raises(ValueError, match="nonnegative"):
            ModulusProblem(constraint_rows=A, exponent=2.0, grid=g)
