import math

import numpy as np
import pytest

from modlab import (
    DomainError,
    Grid,
    NormTag,
    Polyline,
    ScalarField,
    VectorField,
    ac_bound_check,
    dichotomy_report,
    finite_diff_gradient,
    lp_norm,
    norm_equivalence_check,
    r_norm,
    upper_gradient_star,
    value_norm,
    w_norm,
)
from modlab import reshetnyak
from modlab.geometry import curve_integral
from modlab.reshetnyak import _l1_gstar, _spectral_norms
from modlab.sobolev import _interpolate, gradient_length
from oracles import LAYOUTS, enumerated_l1_gstar, mask_restrict, ray_l1_gstar, sampled_dual_functionals


def square_grid(res):
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[res, res])


def cube_grid(res):
    return Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 1.0], resolution=[res, res, res])


def identity_field(res, tag):
    g = square_grid(res)
    return VectorField(grid=g, values=g.cell_centers().copy(), norm=tag)


def walk_bound(J):
    """The planar walk's roundoff bound per cell: 4 (M + 2) eps sum_i ||j_i||."""
    return 4 * (J.shape[2] + 2) * np.finfo(float).eps * np.sum(np.sqrt(np.sum(J * J, axis=1)), axis=1)


def arc_bisector_l1_gstar(J):
    """O(M^2) oracle for N = 2: one sign vector per arc of directions, no sort, no cumsum.

    sign(J^T u) changes only where u is orthogonal to a column. For each such
    breakpoint the next one counterclockwise is the nearest by angle; u at the
    arc's bisector gives s = sign(J^T u), and ||J s|| is summed directly.
    """
    out = np.zeros(J.shape[0])
    for c, Jc in enumerate(J):
        theta = np.arctan2(Jc[1], Jc[0])
        breaks = np.concatenate([theta + np.pi / 2, theta - np.pi / 2]) % (2 * np.pi)
        gaps = (breaks[None, :] - breaks[:, None]) % (2 * np.pi)
        gaps[gaps == 0.0] = 2 * np.pi
        phi = breaks + gaps.min(axis=1) / 2
        S = np.sign(Jc.T @ np.stack([np.cos(phi), np.sin(phi)]))
        out[c] = np.max(np.sqrt(np.sum((Jc @ S) ** 2, axis=0)))
    return out


class TestUpperGradientStar:
    def test_identity_map_linf_values(self):
        ub = upper_gradient_star(identity_field(16, NormTag.LINF))
        assert ub.exact
        assert ub.dual_set_descriptor == "exact-extreme-points"
        # sup over the signed coordinate functionals of |grad <e_n, f>| = 1
        assert np.allclose(ub.gstar.values, 1.0)

    @pytest.mark.parametrize("M", [1, 3, 40])
    def test_linf_on_an_interval_equals_the_n_general_formula(self, M):
        # values spanning 1e-120..1e120 give Jacobians far from where x * x
        # under- or overflows; there |x| and sqrt(x * x) agree bit for bit
        rng = np.random.default_rng(M)
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[257])
        for _ in range(5):
            vals = rng.standard_normal((g.num_cells, M)) * 10.0 ** rng.integers(-120, 120, size=(g.num_cells, M))
            f = VectorField(grid=g, values=vals, norm=NormTag.LINF)
            J = finite_diff_gradient(f)
            n_general = np.max(np.sqrt(np.sum(J * J, axis=1)), axis=1)
            assert upper_gradient_star(f).gstar.values.tobytes() == n_general.tobytes()

    def test_identity_map_l2_values_spectral(self):
        ub = upper_gradient_star(identity_field(16, NormTag.L2))
        assert ub.dual_set_descriptor == "spectral"
        assert np.allclose(ub.gstar.values, 1.0)

    def test_scalar_field_reduces_to_gradient_length(self, rng):
        g = square_grid(16)
        vals = rng.normal(size=(g.num_cells, 1))
        for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
            f = VectorField(grid=g, values=vals, norm=tag)
            ub = upper_gradient_star(f)
            gl = gradient_length(finite_diff_gradient(f), tag)
            assert np.allclose(ub.gstar.values, gl, atol=1e-12)

    def test_l1_values_exact_via_sign_vectors(self, rng):
        g = square_grid(8)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact
        # brute-force sup over all 8 sign vectors as an oracle
        J = finite_diff_gradient(f)
        worst = np.zeros(g.num_cells)
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                for s3 in (1.0, -1.0):
                    v = np.array([s1, s2, s3])
                    worst = np.maximum(worst, np.sqrt(np.sum((J @ v) ** 2, axis=1)))
        assert np.allclose(ub.gstar.values, worst, atol=1e-12)

    @pytest.mark.parametrize("M", [20, 40, 64])
    def test_three_axes_large_m_match_the_ray_oracle(self, rng, M):
        g = cube_grid(4)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - ray_l1_gstar(J)) <= walk_bound(J))

    def test_planar_l1_large_m_is_exact(self, rng):
        g = square_grid(4)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 20)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact
        assert ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - enumerated_l1_gstar(J)) <= walk_bound(J))

    def test_spectral_norm_matches_svd_oracle(self, rng):
        J = rng.normal(size=(50, 2, 4))
        mine = _spectral_norms(J)
        oracle = np.array([np.linalg.svd(j, compute_uv=False)[0] for j in J])
        assert np.allclose(mine, oracle, atol=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 2.2])
    def test_l2_near_double_singular_value_matches_svd(self, theta):
        # f(x) = R(theta) diag(1, 0.9999) x: the top two singular values differ by 1e-4
        g = square_grid(64)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        f = VectorField(grid=g, values=g.cell_centers() @ (rot @ np.diag([1.0, 0.9999])).T, norm=NormTag.L2)
        J = finite_diff_gradient(f)
        oracle = np.linalg.svd(J, compute_uv=False)[:, 0]
        ub = upper_gradient_star(f)
        assert ub.exact
        assert np.all(np.abs(ub.gstar.values - oracle) <= 1e-12 * oracle)

    def test_domination_of_sampled_scalarizations(self, rng):
        # |grad <v, f>| <= g* pointwise for every dual functional, exact modes
        g = square_grid(12)
        for tag in (NormTag.L2, NormTag.LINF):
            f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=tag)
            ub = upper_gradient_star(f)
            for v in sampled_dual_functionals(tag, 3, 20, seed=2):
                s = f.values @ v
                sg = gradient_length(finite_diff_gradient(VectorField(grid=g, values=s[:, None], norm=tag)), tag)
                assert np.all(sg <= ub.gstar.values + 1e-10)


class TestClosedFormSpectralNorm:
    """l2 g* through the 2 x 2 Gram matrix's closed form, min(N, M) = 2."""

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("grid, M", [(square_grid(24), 2), (square_grid(24), 3), (square_grid(24), 12),
                                         (cube_grid(8), 2)], ids=["2d-M2", "2d-M3", "2d-M12", "3d-M2"])
    def test_matches_svd_oracle(self, rng, grid, M, scale):
        # at 1e-100, ((a - c)/2)^2 + b^2 underflows: without hypot g* came out 29 % low
        f = VectorField(grid=grid, values=rng.normal(size=(grid.num_cells, M)) * scale, norm=NormTag.L2)
        oracle = np.linalg.svd(finite_diff_gradient(f), compute_uv=False)[:, 0]
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "spectral"
        assert np.all(np.abs(ub.gstar.values - oracle) <= 1e-14 * oracle)

    @pytest.mark.parametrize("grid, M", [(square_grid(3), 2), (square_grid(3), 5), (cube_grid(3), 2)])
    def test_entries_near_1e160_raise_the_gstar_error(self, grid, M):
        values = np.outer(np.arange(grid.num_cells) * 1e160, np.ones(M))
        f = VectorField(grid=grid, values=values, norm=NormTag.L2)
        with pytest.raises(ValueError, match=r"^computing the l2 g\* of the field overflows float64$"):
            upper_gradient_star(f)

    def test_eigvalsh_only_above_two(self, rng, monkeypatch):
        def refuse(G):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for grid, M in ((square_grid(8), 3), (square_grid(8), 12), (cube_grid(5), 2)):
            upper_gradient_star(VectorField(grid=grid, values=rng.normal(size=(grid.num_cells, M)), norm=NormTag.L2))
        g = cube_grid(5)
        with pytest.raises(AssertionError, match="eigvalsh reached"):
            upper_gradient_star(VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=NormTag.L2))


class TestShortAxisMaxima:
    @pytest.mark.parametrize(
        "tag, grid, M",
        [
            (NormTag.LINF, Grid(box_min=[0.0], box_max=[1.0], resolution=[300]), 12),
            (NormTag.LINF, Grid(box_min=[0.0], box_max=[1.0], resolution=[64]), 128),
            (NormTag.LINF, square_grid(20), 8),
            (NormTag.LINF, square_grid(20), 40),
            (NormTag.L1, square_grid(20), 12),
            (NormTag.L1, square_grid(12), 40),
            (NormTag.L1, cube_grid(5), 5),
        ],
    )
    def test_gstar_equals_the_np_max_formula(self, rng, monkeypatch, tag, grid, M):
        f = VectorField(grid=grid, values=rng.normal(size=(grid.num_cells, M)), norm=tag)
        mine = upper_gradient_star(f).gstar.values
        monkeypatch.setattr(reshetnyak, "_max_last_axis", lambda x: np.max(x, axis=-1))
        assert mine.tobytes() == upper_gradient_star(f).gstar.values.tobytes()


class TestPlanarL1Walk:
    @pytest.mark.parametrize("M", range(1, 17))
    def test_random_fields_match_the_enumeration(self, rng, M):
        g = square_grid(8)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - enumerated_l1_gstar(J)) <= walk_bound(J))

    @pytest.mark.parametrize(
        "N,M", [(2, M) for M in range(1, 9)] + [(N, M) for N in (3, 4) for M in (1, 2, 3, 5, 8, 12)]
    )
    def test_adversarial_columns_match_the_enumeration(self, N, M):
        rng = np.random.default_rng([N, M])
        cells = 250
        direction = rng.normal(size=(cells, N, 1))
        coplanar = np.einsum("cnk,ckm->cnm", rng.normal(size=(cells, N, 2)), rng.normal(size=(cells, 2, M)))
        # perturbations of 1e-16 to 1e-8 of a unit column
        tiny = 10.0 ** rng.integers(-16, -7, size=(cells, 1, 1)) * rng.normal(size=(cells, N, M))
        cases = {
            "zero columns, signed zeros included": rng.normal(size=(cells, N, M))
            * (rng.random((cells, 1, M)) < 0.5) * rng.choice([-1.0, 1.0], (cells, N, M)),
            "columns with last coordinate +0.0 or -0.0 among free columns": np.where(
                rng.random((cells, 1, M)) < 0.5,
                np.concatenate([rng.normal(size=(cells, N - 1, M)), rng.choice([-0.0, 0.0], (cells, 1, M))], axis=1),
                rng.normal(size=(cells, N, M)),
            ),
            "parallel and antiparallel columns": direction * rng.normal(size=(cells, 1, M)),
            "parallel columns among free columns": np.where(
                rng.random((cells, 1, M)) < 0.5, direction * rng.normal(size=(cells, 1, M)), rng.normal(size=(cells, N, M))
            ),
            "coplanar columns": coplanar,
            # tied angles, ties across the flip, axis-aligned columns
            "integer columns in -2..2": rng.integers(-2, 3, size=(cells, N, M)).astype(float),
            "integer columns in -1..1": rng.integers(-1, 2, size=(cells, N, M)).astype(float),
            "integer multiples of one integer direction next to free columns": np.concatenate(
                [rng.integers(-3, 4, size=(cells, 1, 1)) * rng.integers(-2, 3, size=(cells, N, 1)),
                 rng.integers(-3, 4, size=(cells, N, M - 1)).astype(float)], axis=2),
            "near-parallel columns": direction * rng.normal(size=(cells, 1, M)) + tiny,
            "near-coplanar columns": coplanar + tiny,
        }
        for name, J in cases.items():
            assert np.all(np.abs(_l1_gstar(J) - enumerated_l1_gstar(J)) <= walk_bound(J)), name

    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_interval_closed_form_matches_the_enumeration(self, rng, M):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[65])
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - enumerated_l1_gstar(J)) <= walk_bound(J))

    @pytest.mark.parametrize("M", [64, 256])
    def test_large_m_matches_the_arc_bisector_oracle(self, rng, M):
        g = square_grid(5)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - arc_bisector_l1_gstar(J)) <= walk_bound(J))

    @pytest.mark.parametrize("N,M", [(3, 5), (3, 12), (4, 8)])
    def test_three_and_four_axes_match_the_enumeration(self, rng, N, M):
        g = Grid(box_min=[0.0] * N, box_max=[1.0] * N, resolution=[4] * N)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=NormTag.L1)
        ub = upper_gradient_star(f)
        assert ub.exact and ub.dual_set_descriptor == "exact-extreme-points"
        J = finite_diff_gradient(f)
        assert np.all(np.abs(ub.gstar.values - enumerated_l1_gstar(J)) <= walk_bound(J))

    @pytest.mark.parametrize("shape", [(12, 9), (6, 5, 4)])
    def test_symmetries_leave_gstar_unchanged(self, rng, shape):
        # each walk is within walk_bound of the exact g*, so two walks on
        # symmetric Jacobians agree within twice it
        M, ndim = 9, len(shape)
        box = [1.5, 1.0, 1.25][:ndim]
        g = Grid(box_min=[0.0] * ndim, box_max=box, resolution=list(shape))
        cube = rng.normal(size=(*shape, M))

        def gstar(grid, cube):
            f = VectorField(grid=grid, values=cube.reshape(-1, M), norm=NormTag.L1)
            return upper_gradient_star(f).gstar.values.reshape(grid.shape)

        base = gstar(g, cube)
        J = finite_diff_gradient(VectorField(grid=g, values=cube.reshape(-1, M), norm=NormTag.L1))
        tol = 2 * walk_bound(J).reshape(shape)
        perm, signs = rng.permutation(M), rng.choice([-1.0, 1.0], size=M)
        axes = np.roll(np.arange(ndim), 1)  # swaps two axes, cycles three
        permuted = Grid(box_min=[0.0] * ndim, box_max=[box[i] for i in axes], resolution=[shape[i] for i in axes])
        variants = [
            ("signed permutation of V", gstar(g, cube[..., perm] * signs)),
            ("permuted grid axes", gstar(permuted, cube.transpose(*axes, ndim)).transpose(np.argsort(axes))),
        ] + [(f"reflected axis {k}", np.flip(gstar(g, np.flip(cube, k)), k)) for k in range(ndim)]
        for name, values in variants:
            assert np.all(np.abs(values - base) <= tol), name


class TestRNorm:
    def test_scalar_field_equals_w_norm(self, rng):
        g = square_grid(16)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 1)), norm=NormTag.L2)
        for p in (1.0, 2.0):
            assert abs(r_norm(f, p) - w_norm(f, p)) <= 1e-9 * (1 + w_norm(f, p))

    def test_zero_field(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.LINF)
        assert r_norm(f, 2.0) == 0.0

    def test_identity_linf_strict_gap(self):
        # r = ||f||_2 + 1 while w = ||f||_2 + sqrt(2): the sqrt(N) gap is real
        f = identity_field(32, NormTag.LINF)
        lp = lp_norm(f, 2.0)
        r = r_norm(f, 2.0)
        w = w_norm(f, 2.0)
        assert r == pytest.approx(lp + 1.0, rel=1e-9)
        assert w == pytest.approx(lp + math.sqrt(2.0), rel=1e-9)
        assert r < w

    def test_p_below_one_rejected(self):
        f = identity_field(8, NormTag.L2)
        with pytest.raises(ValueError):
            r_norm(f, 0.99)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_norms_reject_an_exponent_that_is_not_a_finite_p_at_least_one(p):
    f = identity_field(8, NormTag.L2)
    for norm in (lp_norm, w_norm, r_norm, norm_equivalence_check):
        with pytest.raises(ValueError, match="finite p >= 1"):
            norm(f, p)
    with pytest.raises(ValueError, match="finite p >= 1"):
        dichotomy_report(1.0 / math.sqrt(2.0), [1e-1, 1e-2], p=p, resolution=16)


class TestNormEquivalence:
    def test_identity_linf_ratio_strictly_inside(self):
        report = norm_equivalence_check(identity_field(32, NormTag.LINF), 2.0)
        assert report.passed
        assert 1.0 < report.meta["ratio"] < math.sqrt(2.0)

    def test_scalar_ratio_is_one(self, rng):
        g = square_grid(12)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 1)), norm=NormTag.L1)
        report = norm_equivalence_check(f, 2.0)
        assert report.passed
        assert report.meta["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_random_fields_all_tags(self, rng):
        g = square_grid(10)
        for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
            for M in (1, 2, 4):
                f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, M)), norm=tag)
                for p in (1.0, 2.0):
                    report = norm_equivalence_check(f, p, tol=1e-9)
                    assert report.passed, (tag, M, p, report.meta)

    @pytest.mark.parametrize("tag", list(NormTag), ids=lambda t: t.value)
    @pytest.mark.parametrize("resolution", [[11], [6, 5], [4, 3, 5]], ids=["1d", "2d", "3d"])
    def test_meta_norms_are_the_standalone_norms_bit_for_bit(self, rng, tag, resolution):
        # the check shares one Jacobian and one ||f||_p between R and W
        ndim = len(resolution)
        g = Grid(box_min=[0.0] * ndim, box_max=rng.uniform(0.5, 2.0, ndim), resolution=resolution)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 3)), norm=tag)
        for p in (1.0, 1.5, 2.0):
            meta = norm_equivalence_check(f, p).meta
            shared = [meta["r_norm"], meta["w_norm"], meta["lp"]]
            assert [x.hex() for x in shared] == [r_norm(f, p).hex(), w_norm(f, p).hex(), lp_norm(f, p).hex()]

    @pytest.mark.parametrize("tag", list(NormTag), ids=lambda t: t.value)
    @pytest.mark.parametrize("resolution", [[9], [5, 4, 6], [3, 4, 3, 4]], ids=["1d", "3d", "4d"])
    def test_results_do_not_depend_on_the_memory_layout_of_the_values(self, rng, tag, resolution):
        # J is C-ordered whatever the values' layout, so every sum over it
        # runs in one order
        ndim = len(resolution)
        g = Grid(box_min=[0.0] * ndim, box_max=[1.0] * ndim, resolution=resolution)
        for M in (3, 5, 12):
            values = rng.normal(size=(g.num_cells, M))
            results = []
            for layout in LAYOUTS.values():
                f = VectorField(grid=g, values=layout(values), norm=tag)
                meta = norm_equivalence_check(f, 2.0).meta
                results.append((upper_gradient_star(f).gstar.values.tobytes(), meta["r_norm"], meta["w_norm"]))
            assert all(r == results[0] for r in results), M

    @pytest.mark.parametrize(
        "values,res",
        [
            (np.array([1.7e308, -1.7e308] * 5)[:9, None], [3, 3]),
            (np.outer(np.arange(9.0) * 1e160, [1.0, 1.0]), [3, 3]),
            (np.full((9, 1), 1e200), [3, 3]),
            (np.outer(np.arange(9.0) * 1e160, [1.0, 1.0]), [9]),
        ],
        ids=["differences", "squares", "values", "gradient-length"],
    )
    @pytest.mark.parametrize("tag", list(NormTag), ids=lambda t: t.value)
    def test_overflow_message_is_the_one_r_norm_gives(self, recwarn, values, res, tag):
        # the check computes J, g* and ||f||_p in r_norm's order, before W
        g = Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)
        f = VectorField(grid=g, values=values, norm=tag)
        with pytest.raises(ValueError) as from_r:
            r_norm(f, 2.0)
        with pytest.raises(ValueError) as from_check:
            norm_equivalence_check(f, 2.0)
        assert str(from_check.value) == str(from_r.value)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_three_axes_large_m_is_two_sided(self, rng):
        g = cube_grid(6)
        f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 20)), norm=NormTag.L1)
        report = norm_equivalence_check(f, 2.0)
        assert report.passed
        assert not report.meta["one_sided"]
        assert [c["name"] for c in report.checks] == ["r_le_w", "w_le_sqrtN_r"]


class TestAcBound:
    def test_lipschitz_field_with_unit_majorant(self, rng):
        g = square_grid(64)
        centers = g.cell_centers()
        f = VectorField(
            grid=g,
            values=np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 1])], axis=-1),
            norm=NormTag.L2,
        )
        ones = ScalarField(grid=g, values=np.ones(g.num_cells))
        for _ in range(5):
            c = Polyline(rng.uniform(0.05, 0.95, size=(3, 2)))
            assert ac_bound_check(f, ones, c, tol=1e-3).passed

    def test_jump_field_fails_across_the_face(self):
        g = square_grid(64)
        centers = g.cell_centers()
        vals = np.zeros((g.num_cells, 2))
        vals[centers[:, 0] >= 0.5, 0] = 1.0
        f = VectorField(grid=g, values=vals, norm=NormTag.L2)
        ones = ScalarField(grid=g, values=np.ones(g.num_cells))
        c = Polyline([[0.3, 0.5], [0.7, 0.5]])
        report = ac_bound_check(f, ones, c, tol=1e-6)
        assert not report.passed

    def test_s_equals_t_is_trivially_bounded(self):
        g = square_grid(16)
        f = VectorField(grid=g, values=g.cell_centers().copy(), norm=NormTag.L2)
        zero = ScalarField(grid=g, values=np.zeros(g.num_cells))
        c = Polyline([[0.2, 0.2], [0.8, 0.8]])
        report = ac_bound_check(f, zero, c, tol=1e-12, num_params=2)
        trivial = [ck for ck in report.checks if ck["value"] == 0.0 and ck["bound"] <= 1e-12]
        assert trivial  # the s = t pairs give 0 <= 0

    def test_negative_majorant_rejected(self):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 1)), norm=NormTag.L2)
        bad = ScalarField(grid=g, values=-np.ones(g.num_cells))
        with pytest.raises(ValueError):
            ac_bound_check(f, bad, Polyline([[0.2, 0.2], [0.8, 0.8]]), tol=1e-6)

    def test_majorant_whose_integral_overflows(self, recwarn):
        # one piece of length 2.2 under g = 1e308: the sparse product ignores np.errstate
        g = square_grid(3)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 2)), norm=NormTag.L2)
        huge = ScalarField(grid=g, values=np.full(g.num_cells, 1e308))
        c = Polyline([[0.05, 0.05], [0.95, 0.95], [0.05, 0.95]])
        with pytest.raises(ValueError, match="AC bound check along the curve overflows float64"):
            ac_bound_check(f, huge, c, tol=1e-6, num_params=2)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_majorant_on_another_grid_is_checked_in_its_own_box(self):
        # the curve stays in f's box but leaves the majorant's; an equal grid
        # object gives the same report as f's own grid
        g = square_grid(8)
        f = VectorField(grid=g, values=g.cell_centers().copy(), norm=NormTag.L2)
        c = Polyline([[0.2, 0.2], [0.9, 0.6]])
        small = Grid(box_min=[0.0, 0.0], box_max=[0.8, 1.0], resolution=[8, 8])
        with pytest.raises(DomainError, match="exits the grid box"):
            ac_bound_check(f, ScalarField(grid=small, values=np.ones(64)), c, tol=1e-6)
        same = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        ones = np.ones(64)
        assert ac_bound_check(f, ScalarField(grid=same, values=ones), c, 1e-6).to_dict() == ac_bound_check(
            f, ScalarField(grid=g, values=ones), c, 1e-6
        ).to_dict()

    @pytest.mark.parametrize("num_params", [0, 1, 2.5, True])
    def test_fewer_than_two_parameters_rejected(self, num_params):
        g = square_grid(8)
        f = VectorField(grid=g, values=np.zeros((g.num_cells, 1)), norm=NormTag.L2)
        ones = ScalarField(grid=g, values=np.ones(g.num_cells))
        with pytest.raises(ValueError, match="num_params"):
            ac_bound_check(f, ones, Polyline([[0.2, 0.2], [0.8, 0.8]]), tol=1e-6, num_params=num_params)

    def test_bounds_match_pairwise_oracle(self, rng):
        # each bound is a difference of one prefix sum; the oracle integrates
        # g over every restriction c|[s, t] separately. Each increment is the
        # norm of the difference of the two interpolated values, pair by pair.
        g = square_grid(24)
        for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
            f = VectorField(grid=g, values=rng.normal(size=(g.num_cells, 2)), norm=tag)
            for num_params in (2, 3, 5, 8, 12):
                c = Polyline(rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 6)), 2)))
                majorant = ScalarField(grid=g, values=rng.uniform(0.0, 2.0, size=g.num_cells))
                report = ac_bound_check(f, majorant, c, tol=0.0, num_params=num_params)
                params = np.linspace(0.0, c.length, num_params)
                pairs = [(s, t) for i, s in enumerate(params) for t in params[i:]]
                assert len(report.checks) == len(pairs)
                for ck, (s, t) in zip(report.checks, pairs):
                    assert ck["name"] == f"ac[{s:.4g},{t:.4g}]"
                    oracle = curve_integral(majorant, mask_restrict(c, s, t)) if t > s else 0.0
                    assert abs(ck["bound"] - oracle) <= 1e-13 * oracle
                    ends = _interpolate(g, f.values, c.points_at([s, t]))
                    assert ck["value"] == value_norm(ends[1] - ends[0], tag)
