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
from modlab.modulus import ModulusProblem, chebyshev_bound_from_norm
from oracles import bincount_normal_matrix, kkt_single_row


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

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_bounds_reject_a_p_that_is_not_finite(self, p):
        for bound in (lambda: analytic_parallel_segments(1.0, 1.0, p), lambda: fuglede_schedule([0.1], p, 0.5)):
            with pytest.raises(ValueError, match="finite p >= 1"):
                bound()

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_p_not_finite_rejected(self, rng, monkeypatch, p):
        # rejected before the rows are assembled, as is a ModulusProblem built directly
        monkeypatch.setattr(modulus, "cell_length_rows", None)
        with pytest.raises(ValueError, match="finite p >= 1"):
            assemble_problem(CurveFamily(curves=random_curves(rng, 1)), unit_grid(8), p)
        with pytest.raises(ValueError, match="finite p >= 1"):
            ModulusProblem(sp.csr_matrix(np.ones((1, 4))), np.ones(4), p, Grid([0.0, 0.0], [1.0, 1.0], [2, 2]))


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

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-8])
    def test_tolerance_not_finite_and_positive_rejected(self, monkeypatch, tol):
        # tol=inf used to report an uncertified density as converged after 0 steps
        prob = assemble_problem(CurveFamily([Polyline([[0.1, 0.2], [0.9, 0.7]]), Polyline([[0.2, 0.9], [0.8, 0.1]])]), unit_grid(16), 2.0)
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
            return np.zeros(prob.grid.num_cells), 0.0, 3, {"solver": "primal-dual-ipm", "max_iter_hit": False}

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


GOLDEN = json.loads((Path(__file__).parent / "data" / "modulus_golden.json").read_text())


class TestGoldenOutputs:
    """Every output bit of twelve seeded solves, recorded in tests/data: random,
    parallel, duplicate-curve (whose p = 1 solve takes the ridge path) and
    3-D families at p = 1, 1.5, 2 and 3. A change to the assembly or the
    solver that moves any of them moves a report."""

    @pytest.mark.parametrize(
        "family", GOLDEN["families"], ids=[f"{f['kind']}-p{f['p']}-{i}" for i, f in enumerate(GOLDEN["families"])]
    )
    def test_outputs_are_bit_identical(self, family):
        import hashlib

        vertices = np.array(family["vertices"])
        curves = np.split(vertices, np.cumsum(family["counts"])[:-1])
        dim = vertices.shape[1]
        g = Grid([0.0] * dim, [1.0] * dim, family["resolution"])
        prob = assemble_problem(CurveFamily(curves=[Polyline(c) for c in curves]), g, family["p"])
        result = solve_modulus(prob, tol=GOLDEN["tol"])
        rho = np.ascontiguousarray(result.rho_star.values, dtype="<f8")
        assert float(result.value).hex() == family["value"]
        assert float(result.dual_value).hex() == family["dual_value"]
        assert float(result.gap).hex() == family["gap"]
        assert result.iterations == family["iterations"]
        assert result.converged == family["converged"]
        assert hashlib.sha256(rho.tobytes()).hexdigest() == family["rho_sha256"]


class TestPairOperator:
    """P @ d is C diag(d) C^T's upper triangle, summed in the bincount's order."""

    @pytest.mark.parametrize("kind", ["random", "identical", "disjoint", "3d"])
    def test_product_matches_the_bincount_oracle_bit_for_bit(self, rng, kind):
        if kind == "3d":
            g = Grid([0.0] * 3, [1.0] * 3, [6, 5, 4])
            curves = [Polyline(rng.uniform(0.0, 1.0, size=(rng.integers(2, 5), 3))) for _ in range(30)]
        else:
            g = unit_grid(12)
            curves = {
                "random": random_curves(rng, 40),
                "identical": [Polyline([[0.1, 0.2], [0.5, 0.8], [0.9, 0.3]])] * 5,
                "disjoint": [Polyline([[0.1, 0.1], [0.3, 0.4]]), Polyline([[0.6, 0.9], [0.9, 0.6]])],
            }[kind]
        C = assemble_problem(CurveFamily(curves=curves), g, 2.0).constraint_rows.tocsc()
        m, k = C.shape[0], np.diff(C.indptr)
        P = modulus._pair_index(C)
        assert P.shape == (m * m, C.shape[1]) and P.nnz == int(np.sum(k * (k + 1) // 2))
        for _ in range(3):
            d = rng.uniform(1e-3, 1e3, size=C.shape[1])
            K = P @ d
            assert np.array_equal(K, bincount_normal_matrix(C, d))
            dense = (C @ sp.diags(d) @ C.T).toarray()
            assert np.allclose(K.reshape(m, m).T, np.triu(dense), rtol=1e-12, atol=0.0)


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

    def test_constant_sequence_errors(self):
        with pytest.raises(ScheduleError):
            fuglede_schedule([1.0] * 10, p=2.0, eps=0.5)

    def test_single_dip_then_rising_errors_after_first_term(self):
        norms = [0.9, 0.2, 0.9, 0.9, 0.9, 0.9]
        with pytest.raises(ScheduleError):
            fuglede_schedule(norms, p=2.0, eps=0.5)

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
            ModulusProblem(constraint_rows=A, weights=np.full(g.num_cells, g.cell_volume), exponent=2.0, grid=g)

    def test_zero_row_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix(np.zeros((1, g.num_cells)))
        with pytest.raises(ValueError):
            ModulusProblem(constraint_rows=A, weights=np.full(g.num_cells, g.cell_volume), exponent=2.0, grid=g)

    @pytest.mark.parametrize("row", ["no entries", "explicit zeros"])
    def test_a_zero_row_among_positive_rows_rejected(self, row):
        g = unit_grid(4)
        n = g.num_cells
        if row == "no entries":
            A = sp.csr_matrix((np.ones(2), [0, 5], [0, 1, 1, 2]), shape=(3, n))
        else:
            A = sp.csr_matrix((np.array([1.0, 0.0, 0.0, 2.0]), [0, 3, 4, 5], [0, 1, 3, 4]), shape=(3, n))
        with pytest.raises(ValueError, match="positive sum"):
            ModulusProblem(constraint_rows=A, weights=np.full(n, g.cell_volume), exponent=2.0, grid=g)

    def test_one_negative_entry_rejected(self):
        g = unit_grid(4)
        A = sp.csr_matrix((np.array([1.0, 3.0, -1e-300]), [0, 1, 2], [0, 3]), shape=(1, g.num_cells))
        with pytest.raises(ValueError, match="nonnegative"):
            ModulusProblem(constraint_rows=A, weights=np.full(g.num_cells, g.cell_volume), exponent=2.0, grid=g)
