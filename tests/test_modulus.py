import json
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
from modlab.modulus import ModulusProblem
from oracles import kkt_single_row


def unit_grid(res):
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[res, res])


def random_curves(rng, count, lo=0.05, hi=0.95):
    return [Polyline(rng.uniform(lo, hi, size=(rng.integers(2, 5), 2))) for _ in range(count)]


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
            rho_oracle[mask], value_oracle = kkt_single_row(a[mask], prob.weights[mask], p)
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

    def test_lp_solution_with_a_zero_margin_is_unconverged(self, monkeypatch):
        g = unit_grid(4)
        prob = assemble_problem(CurveFamily([Polyline([[0.0, 0.3], [1.0, 0.3]])]), g, 1.0)

        def zero_solution(prob, tol, max_iter):
            return np.zeros(prob.grid.num_cells), 0.0, 3, {"solver": "primal-dual-ipm", "max_iter_hit": False}

        monkeypatch.setattr(modulus, "_interior_point", zero_solution)
        result = solve_modulus(prob)
        assert not result.converged
        assert result.gap == float("inf") and result.iterations == 3
        assert np.all(result.rho_star.values == 0.0)

    def test_a_failed_factorization_ends_the_solve_with_a_result(self, monkeypatch, rng):
        import scipy.linalg

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("stub: not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", singular)
        prob = assemble_problem(CurveFamily(curves=random_curves(rng, 5)), unit_grid(8), 2.0)
        result = solve_modulus(prob)
        assert not result.converged and result.iterations == 0
        assert "factorization failed" in result.diagnostics["message"]
        assert result.dual_value <= result.value and np.isfinite(result.gap)
        assert np.all(prob.constraint_rows @ result.rho_star.values >= 1.0 - 1e-12)

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
            prob.weights, A_ub=-prob.constraint_rows, b_ub=-np.ones(prob.num_curves), bounds=(0.0, None),
            method="highs",
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

    def test_invalid_eps(self, unit_square_16):
        h = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        with pytest.raises(ValueError):
            chebyshev_modulus_bound(h, 0.0, 2.0)


class TestFugledeSchedule:
    def test_geometric_sequence_selects_every_other_index(self):
        norms = [2.0**-n for n in range(1, 21)]
        schedule = fuglede_schedule(norms, p=2.0, eps=0.5)
        assert [idx for idx, _ in schedule] == [2 * k for k in range(1, 11)]
        bounds = [b for _, b in schedule]
        # bound_k = (2^-2k)^p / eps^p, strictly decreasing
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx((0.25**2) / 0.25)

    def test_constant_sequence_errors(self):
        with pytest.raises(ScheduleError):
            fuglede_schedule([1.0] * 10, p=2.0, eps=0.5)

    def test_single_dip_then_rising_errors_after_first_term(self):
        norms = [0.9, 0.2, 0.9, 0.9, 0.9, 0.9]
        with pytest.raises(ScheduleError):
            fuglede_schedule(norms, p=2.0, eps=0.5)
        # with the schedule capped at one term, the dip is selected cleanly
        schedule = fuglede_schedule(norms, p=2.0, eps=0.5, num_terms=1)
        assert schedule[0][0] == 2

    def test_bound_uses_actual_norm(self):
        norms = [0.2, 0.01]
        schedule = fuglede_schedule(norms, p=2.0, eps=1.0, num_terms=2)
        assert [idx for idx, _ in schedule] == [1, 2]
        assert schedule[0][1] == pytest.approx(0.2**2)
        assert schedule[1][1] == pytest.approx(0.01**2)


class TestProblemValidation:
    def test_negative_rows_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix(-np.ones((1, g.num_cells)))
        with pytest.raises(ValueError):
            ModulusProblem(constraint_rows=A, weights=np.full(g.num_cells, g.cell_volume), exponent=2.0, grid=g)

    def test_zero_row_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix(np.zeros((1, g.num_cells)))
        with pytest.raises(ValueError):
            ModulusProblem(constraint_rows=A, weights=np.full(g.num_cells, g.cell_volume), exponent=2.0, grid=g)
