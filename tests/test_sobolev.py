import math

import numpy as np
import pytest

from modlab import (
    Grid,
    NormTag,
    Polyline,
    ScalarField,
    TestFunction,
    VectorField,
    ac_bound_check,
    finite_diff_gradient,
    ftc_along_curve_check,
    gradient_length,
    w_norm,
    weak_derivative_check,
)
from modlab.sobolev import _gauss_legendre, _interpolate
from oracles import LAYOUTS, ftc_residuals, midpoint_quadrature, scipy_interpolator, stacked_jacobian


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
        assert np.allclose(G[:, 0, :], 1.0)

    def test_constant_field_has_zero_gradient(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.full((g.num_cells, 2), 3.0), norm=NormTag.L2)
        G = finite_diff_gradient(f)
        assert np.allclose(G, 0.0)

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
        assert np.max(np.abs(G[interior, 0, :] - dx_exact[interior])) < 1e-10
        assert np.max(np.abs(G[interior, 1, :] - dy_exact[interior])) < 1e-10

    def test_second_order_convergence_for_smooth_fields(self):
        errors = []
        resolutions = [16, 32, 64, 128]
        for res in resolutions:
            g = interval_grid(res)
            x = g.cell_centers()[:, 0]
            f = VectorField(grid=g, values=np.sin(3.0 * x)[:, None], norm=NormTag.L2)
            G = finite_diff_gradient(f)
            interior = slice(1, -1)
            err = np.max(np.abs(G[interior, 0, 0] - 3.0 * np.cos(3.0 * x[interior])))
            errors.append(err)
        rates = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(rates) >= 1.8

    @pytest.mark.parametrize("resolution", [[9], [5, 7], [3, 4, 5], [3, 4, 3, 5]], ids=["1d", "2d", "3d", "4d"])
    def test_rows_are_np_gradient_along_each_axis(self, rng, resolution):
        ndim, M = len(resolution), 3
        g = Grid(box_min=[0.0] * ndim, box_max=rng.uniform(0.5, 2.0, ndim), resolution=resolution)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L2)
        J = finite_diff_gradient(f)
        assert J.shape == (g.num_cells, ndim, M)
        cube = f.values.reshape(*g.shape, M)
        for i in range(ndim):
            assert J[:, i, :].tobytes() == np.gradient(cube, g.spacing[i], axis=i).reshape(-1, M).tobytes()

    def test_low_resolution_rejected(self):
        g = interval_grid(2)
        f = VectorField(grid=g, values=np.zeros((2, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError):
            finite_diff_gradient(f)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("M", [1, 2, 3, 12, 40])
    @pytest.mark.parametrize("resolution", [[9], [5, 7], [3, 4, 5], [3, 4, 3, 5]], ids=["1d", "2d", "3d", "4d"])
    def test_equals_the_stacked_jacobian_for_every_layout(self, rng, resolution, M, layout):
        ndim = len(resolution)
        g = Grid(box_min=[0.0] * ndim, box_max=rng.uniform(0.5, 2.0, ndim), resolution=resolution)
        values = rng.normal(size=(g.num_cells, M))
        laid_out = LAYOUTS[layout](values)
        assert np.array_equal(laid_out, values)
        f = VectorField(grid=g, values=laid_out, norm=NormTag.L2)
        assert finite_diff_gradient(f).tobytes() == stacked_jacobian(f).tobytes()

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_overflow_names_the_axis_for_every_layout(self, layout):
        # the values alternate along axis 1 only, so axis 0's differences are zero
        g = square_grid(3)
        values = np.tile([[1.7e308, 1.7e308], [-1.7e308, -1.7e308], [1.7e308, 1.7e308]], (3, 1))
        f = VectorField(grid=g, values=LAYOUTS[layout](values), norm=NormTag.L2)
        with pytest.raises(ValueError, match=r"^the field's finite differences along axis 1 overflow float64$"):
            finite_diff_gradient(f)

    def test_zero_dimensional_grid_rejected(self):
        f = VectorField(grid=Grid(box_min=[], box_max=[], resolution=[]), values=[[1.0, 2.0]], norm=NormTag.L1)
        with pytest.raises(ValueError, match="at least one axis"):
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

    def test_bound_is_tol_times_one_plus_the_larger_side(self):
        g = interval_grid(256)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2)
        cand = VectorField(grid=g, values=(3 * x)[:, None], norm=NormTag.L2)
        bump, tol = TestFunction([0.5], 0.3), 0.25
        (check,) = weak_derivative_check(f, cand, 0, [bump], tol=tol).checks
        lhs = g.cell_volume * np.sum(bump.dphi(g.cell_centers(), 0) * x**2)
        rhs = g.cell_volume * np.sum(bump.phi(g.cell_centers()) * 3 * x)
        assert abs(rhs) > abs(lhs) > 0.05
        assert check["value"] == pytest.approx(abs(lhs + rhs), rel=1e-12)
        assert check["bound"] == pytest.approx(tol * (1.0 + abs(rhs)), rel=1e-12)
        assert check["margin"] == pytest.approx(check["bound"] - check["value"], rel=1e-12)

    def test_one_evaluation_gives_the_bits_of_phi_and_dphi(self):
        bump = TestFunction([0.4, 0.6], 0.3)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(500, 2))
        d = pts - bump.center
        u = np.sum(d * d, axis=1) / bump.radius**2
        inside = u < 1.0
        assert inside.any() and not inside.all()
        # the bump and its partial derivatives written out apart from the library
        want_phi = np.zeros(500)
        want_phi[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
        assert np.array_equal(bump.phi(pts), want_phi)
        for axis in (0, 1):
            phi, dphi = bump.phi_dphi(pts, axis)
            want = np.zeros(500)
            want[inside] = (np.exp(1.0 - 1.0 / (1.0 - u[inside])) * (-2.0 * d[inside, axis] / bump.radius**2)
                            / (1.0 - u[inside]) ** 2)
            assert np.array_equal(phi, want_phi) and np.array_equal(dphi, want)
            assert np.array_equal(bump.dphi(pts, axis), want)

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
        assert report.checks[0]["value"] == pytest.approx(expected, rel=1e-3)

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
            assert rep.checks[0]["value"] <= 1e-10

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # tol = inf would pass the zero candidate for 100 x, and tol = nan fail every bump
        g = square_grid(8)
        f = VectorField(grid=g, values=100.0 * g.cell_centers(), norm=NormTag.L2)
        zero = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.L2)
        bumps = [TestFunction([0.5, 0.5], 0.3)]
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            weak_derivative_check(f, zero, 0, bumps, tol=tol)
        assert not weak_derivative_check(f, zero, 0, bumps, tol=0.0).passed

    @pytest.mark.parametrize("tol", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_a_bool_tolerance_rejected(self, tol):
        g = square_grid(8)
        f = VectorField(grid=g, values=g.cell_centers(), norm=NormTag.L2)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            weak_derivative_check(f, f, 0, [TestFunction([0.5, 0.5], 0.3)], tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            ftc_along_curve_check(f, finite_diff_gradient(f), Polyline([[0.1, 0.1], [0.9, 0.8]]), tol=tol)

    def test_empty_battery_rejected(self):
        # with no bump there is no check, and the zero candidate would pass for x^2
        g = interval_grid(64)
        x = g.cell_centers()[:, 0]
        f = VectorField(grid=g, values=(x**2)[:, None], norm=NormTag.L2)
        zero = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError, match="at least one bump"):
            weak_derivative_check(f, zero, 0, [], tol=5e-3)

    @pytest.mark.parametrize(
        "center,radius,named",
        [(["0.5", 0.5], 0.3, "bump center"), ([0.5, None], 0.3, "bump center"), ([[0.5, 0.5]], 0.3, "bump center"),
         ([0.5, float("inf")], 0.3, "bump center"), ([0.5, 0.5], "0.3", "bump radius"), ([0.5, 0.5], [0.3], "bump radius"),
         ([0.5, 0.5], True, "bump radius"), ([0.5, 0.5], 0.0, "bump radius must be positive")],
    )
    def test_bump_needs_finite_numbers(self, center, radius, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            TestFunction(center, radius)

    def test_boundary_touching_support_rejected(self):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError):
            weak_derivative_check(f, f, 0, [TestFunction([0.1], 0.2)], tol=1e-3)

    @pytest.mark.parametrize(
        "box_min,box_max,resolution",
        [([0.0], [2.0], [64]), ([-1.0], [1.0], [64]), ([0.0], [1.0], [32])],
        ids=["box_max", "box_min", "resolution"],
    )
    def test_candidate_on_another_grid_rejected(self, box_min, box_max, resolution):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        other = Grid(box_min=box_min, box_max=box_max, resolution=resolution)
        cand = VectorField(grid=other, values=np.zeros((other.num_cells, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError, match="candidate's grid"):
            weak_derivative_check(f, cand, 0, [TestFunction([0.5], 0.2)], tol=1e-3)

    @pytest.mark.parametrize("tag,M", [(NormTag.LINF, 1), (NormTag.L2, 2)], ids=["norm-tag", "dimension"])
    def test_candidate_of_another_kind_rejected(self, tag, M):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        cand = VectorField(grid=g, values=np.zeros((64, M)), norm=tag)
        with pytest.raises(ValueError, match="^candidate must match the field's norm tag and dimension$"):
            weak_derivative_check(f, cand, 0, [TestFunction([0.5], 0.2)], tol=1e-3)

    @pytest.mark.parametrize("axis", [1, -1])
    def test_axis_out_of_range_rejected(self, axis):
        g = interval_grid(64)
        f = VectorField(grid=g, values=np.zeros((64, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError, match="^axis out of range$"):
            weak_derivative_check(f, f, axis, [TestFunction([0.5], 0.2)], tol=1e-3)

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
        gl = gradient_length(finite_diff_gradient(f), f.norm)
        # each partial is a coordinate vector of sup norm 1
        assert np.allclose(gl, math.sqrt(2.0))

    def test_constant_field(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.ones((g.num_cells, 3)), norm=NormTag.L1)
        assert np.allclose(gradient_length(finite_diff_gradient(f), f.norm), 0.0)

    def test_scaling_homogeneity(self, rng):
        g = square_grid(8)
        vals = rng.normal(size=(g.num_cells, 2))
        f1 = VectorField(grid=g, values=vals, norm=NormTag.L2)
        f2 = VectorField(grid=g, values=-3.0 * vals, norm=NormTag.L2)
        g1 = gradient_length(finite_diff_gradient(f1), f1.norm)
        g2 = gradient_length(finite_diff_gradient(f2), f2.norm)
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


def interpolant_bound(ndim: int, fmax: float) -> float:
    """Roundoff bound between two evaluations of the multilinear interpolant
    of values at most fmax in size, at points in the closed box.

    In the box every weight t lies in [-1/2, 3/2], so |1 - t| + |t| <= 2 and
    the 2^N corner terms add up to at most 2^N fmax in size. One evaluation
    errs by at most: 4 eps (|1 - t| + |t|) per factor from forming t and
    1 - t (three roundings and one), which over the N factors and the 2^N
    corners is at most 8 N eps 2^N fmax; N eps relative per term from its N
    products; and 2^N eps times the terms' size from the sum. So one
    evaluation errs by at most 2^N (9 N + 2^N) eps fmax, and two, in any
    order of summation, differ by at most twice that.
    """
    return 2.0 ** (ndim + 1) * (9 * ndim + 2.0**ndim) * np.finfo(float).eps * fmax


def box_points(rng, g: Grid, count: int) -> np.ndarray:
    """Random points of the box, its corners, and points in the half-cells
    between each face and the first or last plane of cell centres."""
    random = rng.uniform(g.box_min, g.box_max, size=(count, g.ndim))
    corners = np.array(list(np.ndindex(*[2] * g.ndim))) * (g.box_max - g.box_min) + g.box_min
    half = []
    for axis in range(g.ndim):
        for face, inward in ((g.box_min[axis], 1.0), (g.box_max[axis], -1.0)):
            pts = rng.uniform(g.box_min, g.box_max, size=(8, g.ndim))
            pts[:, axis] = face + inward * rng.uniform(0.0, 0.5, 8) * g.spacing[axis]
            half.append(pts)
    return np.vstack([random, corners, *half])


class TestInterpolant:
    @pytest.mark.parametrize(
        "resolution",
        [[7], [6, 6], [5, 9], [4, 3, 5], [1, 8], [5, 1, 4], [1, 1]],
        ids=["1d", "square", "non-square", "3d", "single-cell-axis", "single-cell-middle-axis", "one-cell"],
    )
    def test_matches_scipy_within_roundoff(self, rng, resolution):
        ndim = len(resolution)
        lo = rng.uniform(-2.0, 1.0, ndim)
        g = Grid(box_min=lo, box_max=lo + rng.uniform(0.5, 3.0, ndim), resolution=resolution)
        values = rng.normal(size=(g.num_cells, 3))
        points = box_points(rng, g, 200)
        got = _interpolate(g, values, points)
        assert got.shape == (len(points), 3)
        expected = scipy_interpolator(g, values)(points)
        assert np.all(np.abs(got - expected) <= interpolant_bound(ndim, np.max(np.abs(values))))

    @pytest.mark.parametrize("resolution", [[7], [5, 9], [4, 1, 5]], ids=["1d", "2d", "single-cell-axis"])
    def test_columns_at_once_equal_columns_apart(self, rng, resolution):
        ndim = len(resolution)
        g = Grid(box_min=[0.0] * ndim, box_max=rng.uniform(0.5, 2.0, ndim), resolution=resolution)
        values = rng.normal(size=(g.num_cells, 5))
        points = box_points(rng, g, 100)
        apart = np.hstack([_interpolate(g, values[:, [k]], points) for k in range(5)])
        assert _interpolate(g, values, points).tobytes() == apart.tobytes()

    def test_single_cell_axis_is_ignored(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[1, 8])
        out = _interpolate(g, np.arange(8.0)[:, None], np.array([[x, 0.3] for x in (0.0, 0.1, 0.5, 0.9, 1.0)]))
        assert np.all(out == out[0])

    @pytest.mark.parametrize("resolution", [[6], [5, 7], [3, 4, 5]], ids=["1d", "2d", "3d"])
    def test_multilinear_field_is_reproduced_in_the_whole_box(self, rng, resolution):
        """prod_i (a_i + b_i x_i) and a + sum_i b_i x_i are affine in each
        coordinate separately, so each is its own interpolant on every
        lattice cell, extended linearly into the boundary half-cells. The
        coefficients and the box are positive, so evaluating them here errs
        by a few eps of their size, well inside the bound."""
        ndim = len(resolution)
        g = Grid(box_min=np.full(ndim, 0.25), box_max=np.full(ndim, 1.75), resolution=resolution)
        a, b = rng.uniform(0.5, 2.0, size=(2, ndim))

        def f(x):
            return np.stack([np.prod(a + b * x, axis=1), a[0] + x @ b], axis=1)

        points = box_points(rng, g, 200)
        expected = f(points)
        assert np.all(np.abs(_interpolate(g, f(g.cell_centers()), points) - expected) <= interpolant_bound(ndim, np.max(expected)))


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
        sub = [ck for ck in report.checks if ck["name"].startswith("ftc")]
        assert sub
        from modlab.geometry import restrict

        same = restrict(c, 0.3, 0.3)
        assert same.length == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gauss_legendre_nodes_are_one_read_only_pair(self, n):
        x, w = _gauss_legendre(n)
        expected = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, expected[0]) and np.array_equal(w, expected[1])
        assert _gauss_legendre(n)[0] is x
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # tol = inf would pass a zero gradient for 100 x, and tol = nan fail every pair
        g = square_grid(8)
        f = VectorField(grid=g, values=100.0 * g.cell_centers(), norm=NormTag.L2)
        zero = np.zeros((g.num_cells, 2, 2))
        c = Polyline([[0.1, 0.1], [0.9, 0.8]])
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            ftc_along_curve_check(f, zero, c, tol=tol)
        assert not ftc_along_curve_check(f, zero, c, tol=0.0).passed

    @pytest.mark.parametrize("num_params", [0, 1])
    def test_fewer_than_two_parameters_rejected(self, num_params):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 1)), norm=NormTag.L2)
        with pytest.raises(ValueError, match="num_params"):
            ftc_along_curve_check(f, finite_diff_gradient(f), Polyline([[0.2, 0.2], [0.8, 0.8]]), 1e-6, num_params)

    @pytest.mark.parametrize("shape", [(64, 2, 1), (64, 1, 2), (64, 4), (63, 2, 2), (64, 2, 2, 1)])
    def test_gradient_of_another_shape_rejected(self, shape):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.L2)
        with pytest.raises(ValueError, match=r"shape \(num_cells, N, M\) = \(64, 2, 2\)"):
            ftc_along_curve_check(f, np.zeros(shape), Polyline([[0.2, 0.2], [0.8, 0.8]]), 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.L2)
        G = finite_diff_gradient(f)
        G[17, 1, 0] = bad
        with pytest.raises(ValueError, match="gradient must be finite"):
            ftc_along_curve_check(f, G, Polyline([[0.2, 0.2], [0.8, 0.8]]), 1e-6)

    @pytest.mark.parametrize(
        "vertices", [[[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]], [[0.2], [0.8]]], ids=["3-coordinates", "1-coordinate"]
    )
    def test_curve_with_another_coordinate_count_gets_the_ac_message(self, vertices):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.L2)
        c = Polyline(vertices)
        with pytest.raises(ValueError) as ac:
            ac_bound_check(f, ScalarField(grid=g, values=np.ones(g.num_cells)), c, 1e-6)
        with pytest.raises(ValueError, match="coordinates per vertex") as ftc:
            ftc_along_curve_check(f, finite_diff_gradient(f), c, 1e-6)
        assert str(ftc.value) == str(ac.value)

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_field_whose_squares_overflow(self, recwarn, tag):
        # finite values and differences; the squared increments or gradient lengths are not
        g = square_grid(3)
        f = VectorField(grid=g, values=np.outer(np.arange(9.0) * 1e160, [1.0, 1.0]), norm=tag)
        with pytest.raises(ValueError, match="overflows float64"):
            ftc_along_curve_check(f, finite_diff_gradient(f), Polyline([[0.1, 0.1], [0.9, 0.9]]), 1e-3)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_quadrature_sum_that_overflows(self, recwarn):
        """On four axes the three Gauss-Legendre weights halved add up to one
        ulp above 1, so a directional derivative of the largest double at
        every node overflows in the weighted sum, which ignores np.errstate;
        the NaN it leaves in the residuals is raised as the overflow."""
        g = Grid(box_min=[0.0] * 4, box_max=[1.0] * 4, resolution=[1] * 4)
        f = VectorField(grid=g, values=np.zeros((1, 1)), norm=NormTag.L1)
        G = np.zeros((1, 4, 1))
        G[0, 0, 0] = np.finfo(float).max
        c = Polyline([[0.1, 0.5, 0.5, 0.5], [0.9, 0.5, 0.5, 0.5]])
        with pytest.raises(ValueError, match="FTC check along the curve overflows float64"):
            ftc_along_curve_check(f, G, c, 1e-3)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_chain_rule_bound_holds(self, rng):
        g = square_grid(24)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=NormTag.L1)
        G = finite_diff_gradient(f)
        c = Polyline(rng.uniform(0.1, 0.9, size=(4, 2)))
        report = ftc_along_curve_check(f, G, c, tol=1e6)  # only the chain check binds
        chain = [ck for ck in report.checks if ck["name"] == "chain_rule_bound"][0]
        assert chain["pass"]

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_residuals_equal_the_per_pair_oracle(self, rng, ndim):
        """The library and the oracle integrate the same polynomials exactly,
        so they differ by roundoff only. Each side sums fewer than 2^9
        rounded terms per component: at most 11 segments (4 of the curve,
        cut at up to 7 interior parameter points) and 64 centre-plane
        crossings (4 segments, 16 planes) make at most 75 pieces, times 2
        nodes and 3 axes, plus the 16 additions of the prefix sums. The
        interpolant extrapolates by at most half a cell, so at a node it is
        at most 2^N Gmax, and the terms add up to at most 2^N sqrt(N) L Gmax.
        A recursive sum of K terms errs by at most K eps times the sum of
        their sizes, and a norm on R^M is at most M times the largest
        component. So the residuals differ by at most
        M eps (2 2^9 2^3 sqrt(3) L Gmax + 2^5 Fmax) <= 2^14 eps M (L Gmax + Fmax).
        """
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
            report = ftc_along_curve_check(f, G, c, tol=1e-2, num_params=num_params)
            expected = ftc_residuals(f, G, c, num_params)
            g_max = np.max(np.abs(G))
            bound = 2.0**14 * np.finfo(float).eps * M * (c.length * g_max + np.max(np.abs(f.values)))
            assert len(report.checks) == len(expected) + 1
            assert np.all(np.abs(np.array([ck["value"] for ck in report.checks[:-1]]) - expected) <= bound)

    def test_bilinear_gradient_along_the_diagonal(self):
        """G = (x y, 0) is bilinear, so the interpolant reproduces it, also in
        the boundary half-cells. With f = 0 the residual of a pair s < t is
        the integral of x y dx = u^2 du along x = y = u, that is
        (u_t^3 - u_s^3) / 3 with u_s = s / sqrt(2) at arc length s."""
        g = square_grid(16)
        centers = g.cell_centers()
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 1)), norm=NormTag.L2)
        xy = VectorField(grid=g, values=(centers[:, 0] * centers[:, 1])[:, None], norm=NormTag.L2)
        G = np.stack([xy.values, f.values], axis=1)
        c = Polyline([[0.0, 0.0], [1.0, 1.0]])
        report = ftc_along_curve_check(f, G, c, tol=1.0)
        u = np.linspace(0.0, 1.0, 8)
        expected = [(u[b] ** 3 - u[a] ** 3) / 3.0 for a in range(8) for b in range(a + 1, 8)]
        assert len(report.checks) == 29
        assert np.allclose([ck["value"] for ck in report.checks[:-1]], expected, rtol=1e-14, atol=0.0)
