import math

import numpy as np
import pytest

from modlab import (
    Grid,
    NormTag,
    Polyline,
    TestFunction,
    VectorField,
    finite_diff_gradient,
    ftc_along_curve_check,
    gradient_length,
    w_norm,
    weak_derivative_check,
)
from oracles import ftc_residuals, midpoint_quadrature


def interval_grid(res):
    return Grid(box_min=[0.0], box_max=[1.0], resolution=[res])


def square_grid(res):
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[res, res])


def field_from(grid, fn, M, tag=NormTag.L2):
    centers = grid.cell_centers()
    return VectorField(grid=grid, values=fn(centers).reshape(-1, M), norm=tag)


class TestFiniteDiffGradient:
    def test_linear_field_has_unit_gradient(self):
        g = interval_grid(32)
        f = field_from(g, lambda x: x[:, 0], 1)
        G = finite_diff_gradient(f)
        assert np.allclose(G.components[0].values, 1.0)

    def test_constant_field_has_zero_gradient(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.full((g.num_cells, 2), 3.0), norm=NormTag.L2)
        G = finite_diff_gradient(f)
        for comp in G.components:
            assert np.allclose(comp.values, 0.0)

    def test_polynomial_field_matches_analytic_partials(self):
        g = square_grid(64)
        centers = g.cell_centers()
        x, y = centers[:, 0], centers[:, 1]
        f = VectorField(grid=g, values=np.stack([x**2, x * y], axis=-1), norm=NormTag.L2)
        G = finite_diff_gradient(f)
        h = g.spacing[0]
        interior = (x > h) & (x < 1 - h) & (y > h) & (y < 1 - h)
        dx_exact = np.stack([2 * x, y], axis=-1)
        dy_exact = np.stack([np.zeros_like(x), x], axis=-1)
        # central differences are exact for quadratics; tolerance covers roundoff
        assert np.max(np.abs(G.components[0].values[interior] - dx_exact[interior])) < 1e-10
        assert np.max(np.abs(G.components[1].values[interior] - dy_exact[interior])) < 1e-10

    def test_second_order_convergence_for_smooth_fields(self):
        errors = []
        resolutions = [16, 32, 64, 128]
        for res in resolutions:
            g = interval_grid(res)
            x = g.cell_centers()[:, 0]
            f = VectorField(grid=g, values=np.sin(3.0 * x)[:, None], norm=NormTag.L2)
            G = finite_diff_gradient(f)
            interior = slice(1, -1)
            err = np.max(np.abs(G.components[0].values[interior, 0] - 3.0 * np.cos(3.0 * x[interior])))
            errors.append(err)
        rates = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(rates) >= 1.8

    def test_low_resolution_rejected(self):
        g = interval_grid(2)
        f = VectorField(grid=g, values=np.zeros((2, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError):
            finite_diff_gradient(f)


class TestWeakDerivativeCheck:
    def test_x_squared_with_true_derivative_passes(self):
        g = interval_grid(256)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2)
        cand = VectorField(grid=g, values=(2 * x)[:, None], norm=NormTag.L2)
        rng = np.random.default_rng(0)
        bumps = [TestFunction([rng.uniform(0.3, 0.7)], rng.uniform(0.1, 0.25)) for _ in range(20)]
        assert weak_derivative_check(f, cand, 0, bumps, tol=5e-3).passed

    def test_wrong_candidate_fails(self):
        g = interval_grid(256)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2)
        zero = VectorField(grid=g, values=np.zeros((256, 1)), norm=NormTag.L2)
        bump = TestFunction([0.5], 0.3)
        report = weak_derivative_check(f, zero, 0, [bump], tol=5e-3)
        assert not report.passed
        # the residual is the nonzero moment |int phi' x^2| = 2 |int phi x|
        expected = 2.0 * midpoint_quadrature(lambda t: np.exp(1 - 1 / (1 - ((t - 0.5) / 0.3) ** 2)) * t, 0.2, 0.8)
        assert report.checks[0].value == pytest.approx(expected, rel=1e-3)

    def test_constant_field_zero_candidate_exact(self):
        g = interval_grid(256)
        f = VectorField(grid=g, values=np.tile([2.0, -1.0], (256, 1)), norm=NormTag.L2)
        zero = VectorField(grid=g, values=np.zeros((256, 2)), norm=NormTag.L2)
        bumps = [TestFunction([0.5], 0.3), TestFunction([0.25], 0.2)]
        report = weak_derivative_check(f, zero, 0, bumps, tol=1e-12)
        assert report.passed

    def test_linearity_in_the_candidate_slot(self, rng):
        g = interval_grid(128)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(x**3)[:, None], norm=NormTag.L2)
        cand = VectorField(grid=g, values=(3 * x**2)[:, None], norm=NormTag.L2)
        bumps = [TestFunction([0.5], 0.25)]
        assert weak_derivative_check(f, cand, 0, bumps, tol=5e-3).passed

    def test_affine_field_residual_at_quadrature_floor(self):
        # the identity is exact in the continuum for affine f; the discrete
        # midpoint sums leave only the bump quadrature's superalgebraic tail
        g = interval_grid(512)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(2.0 * x - 0.7)[:, None], norm=NormTag.L2)
        cand = VectorField(grid=g, values=np.full((512, 1), 2.0), norm=NormTag.L2)
        for c, r in [(0.5, 0.3), (0.4375, 0.25), (0.55, 0.35)]:
            rep = weak_derivative_check(f, cand, 0, [TestFunction([c], r)], tol=1.0)
            assert rep.checks[0].value <= 1e-10

    def test_boundary_touching_support_rejected(self):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError):
            weak_derivative_check(f, f, 0, [TestFunction([0.1], 0.2)], tol=1e-3)

    def test_2d_identity(self):
        g = square_grid(64)
        centers = g.cell_centers()
        f = VectorField(grid=g, values=(centers[:, 0] * centers[:, 1])[:, None], norm=NormTag.L2)
        cand = VectorField(grid=g, values=centers[:, 1][:, None], norm=NormTag.L2)
        bumps = [TestFunction([0.5, 0.5], 0.3), TestFunction([0.4, 0.6], 0.25)]
        assert weak_derivative_check(f, cand, 0, bumps, tol=5e-3).passed

    def test_2d_vector_valued_candidate(self):
        g = square_grid(64)
        centers = g.cell_centers()
        x, y = centers[:, 0], centers[:, 1]
        f = VectorField(grid=g, values=np.stack([x * y, y**2], axis=-1), norm=NormTag.LINF)
        d_dy = VectorField(grid=g, values=np.stack([x, 2 * y], axis=-1), norm=NormTag.LINF)
        bumps = [TestFunction([0.5, 0.45], 0.3)]
        assert weak_derivative_check(f, d_dy, 1, bumps, tol=5e-3).passed
        wrong = VectorField(grid=g, values=np.stack([x, np.zeros_like(y)], axis=-1), norm=NormTag.LINF)
        assert not weak_derivative_check(f, wrong, 1, bumps, tol=5e-3).passed


class TestGradientLength:
    def test_identity_map_linf(self):
        g = square_grid(16)
        f = VectorField(grid=g, values=g.cell_centers().copy(), norm=NormTag.LINF)
        gl = gradient_length(finite_diff_gradient(f))
        # each partial is a coordinate vector of sup norm 1
        assert np.allclose(gl.values, math.sqrt(2.0))

    def test_constant_field(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.ones((g.num_cells, 3)), norm=NormTag.L1)
        assert np.allclose(gradient_length(finite_diff_gradient(f)).values, 0.0)

    def test_scaling_homogeneity(self, rng):
        g = square_grid(8)
        vals = rng.normal(size=(g.num_cells, 2))
        f1 = VectorField(grid=g, values=vals, norm=NormTag.L2)
        f2 = VectorField(grid=g, values=-3.0 * vals, norm=NormTag.L2)
        g1 = gradient_length(finite_diff_gradient(f1)).values
        g2 = gradient_length(finite_diff_gradient(f2)).values
        assert np.allclose(g2, 3.0 * g1)


class TestWNorm:
    def test_linear_function_p1(self):
        g = interval_grid(128)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=x[:, None], norm=NormTag.L2)
        # ||f||_1 = 1/2 exactly at cell centers, |grad f| = 1
        assert w_norm(f, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_zero_field(self):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        assert w_norm(f, 2.0) == 0.0

    def test_triangle_inequality(self, rng):
        g = square_grid(12)
        for p in (1.0, 2.0):
            a = rng.normal(size=(g.num_cells, 2))
            b = rng.normal(size=(g.num_cells, 2))
            fa = VectorField(grid=g, values=a, norm=NormTag.L2)
            fb = VectorField(grid=g, values=b, norm=NormTag.L2)
            fab = VectorField(grid=g, values=a + b, norm=NormTag.L2)
            assert w_norm(fab, p) <= (w_norm(fa, p) + w_norm(fb, p)) * (1 + 1e-6)

    def test_p_below_one_rejected(self):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError):
            w_norm(f, 0.5)


class TestFtcAlongCurve:
    def test_affine_field_is_exact(self):
        g = square_grid(32)
        centers = g.cell_centers()
        f = VectorField(grid=g, values=(2.0 * centers[:, 0] - centers[:, 1])[:, None], norm=NormTag.L2)
        G = finite_diff_gradient(f)
        c = Polyline([[0.1, 0.1], [0.8, 0.3], [0.6, 0.9]])
        report = ftc_along_curve_check(f, G, c, tol=1e-10)
        assert report.passed

    def test_smooth_field_on_diagonal(self):
        g = square_grid(256)
        centers = g.cell_centers()
        f = VectorField(
            grid=g,
            values=np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 1])], axis=-1),
            norm=NormTag.L2,
        )
        G = finite_diff_gradient(f)
        c = Polyline([[0.02, 0.02], [0.98, 0.98]])
        report = ftc_along_curve_check(f, G, c, tol=1e-3)
        assert report.passed

    def test_zero_length_interval(self):
        g = square_grid(32)
        centers = g.cell_centers()
        f = VectorField(grid=g, values=centers[:, 0][:, None], norm=NormTag.L2)
        G = finite_diff_gradient(f)
        c = Polyline([[0.2, 0.5], [0.8, 0.5]])
        report = ftc_along_curve_check(f, G, c, tol=1e-10, num_params=2)
        # the parameter grid includes s = 0 and t = length; add the s = t case
        sub = [ck for ck in report.checks if ck.name.startswith("ftc")]
        assert sub
        from modlab.geometry import restrict

        same = restrict(c, 0.3, 0.3)
        assert same.length == 0.0

    def test_chain_rule_bound_holds(self, rng):
        g = square_grid(24)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=NormTag.L1)
        G = finite_diff_gradient(f)
        c = Polyline(rng.uniform(0.1, 0.9, size=(4, 2)))
        report = ftc_along_curve_check(f, G, c, tol=1e6)  # only the chain check binds
        chain = [ck for ck in report.checks if ck.name == "chain_rule_bound"][0]
        assert chain.passed

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_residuals_equal_the_per_pair_oracle(self, rng, ndim):
        tags = [NormTag.L1, NormTag.L2, NormTag.LINF]
        for case in range(8):
            res = rng.integers(3, 9 if ndim < 3 else 6, size=ndim)
            lo = rng.uniform(-1.0, 0.0, ndim)
            g = Grid(box_min=lo, box_max=lo + rng.uniform(0.5, 2.0, ndim), resolution=res)
            M = int(rng.integers(1, 5))
            f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=tags[case % 3])
            G = finite_diff_gradient(f)
            verts = rng.uniform(g.box_min, g.box_max, size=(int(rng.integers(1, 5)), ndim))
            if case == 0:
                verts = np.repeat(verts[:1], 3, axis=0)  # constant curve
            elif case == 1:
                verts = np.vstack([verts[:1], verts])  # repeated vertex
            c = Polyline(verts)
            num_params = int(rng.integers(2, 10))
            step = None if case % 2 else float(rng.uniform(0.05, 0.4))
            report = ftc_along_curve_check(f, G, c, tol=1e-2, num_params=num_params, step=step)
            expected = ftc_residuals(f, G, c, num_params, step or float(np.min(g.spacing)) / 2.0)
            assert [ck.value for ck in report.checks[:-1]] == expected
