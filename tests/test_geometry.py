import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modlab import (
    CurveFamily,
    DegenerateCurveError,
    DomainError,
    Grid,
    Polyline,
    ScalarField,
    cell_length_rows,
    cell_lengths,
    curve_integral,
    curve_integrals,
    cut,
    load_family,
    load_polyline_csv,
    restrict,
    save_family,
    save_polyline_csv,
)
from modlab.sobolev import _interpolate, _sample_curve
from modlab.vectorvalues import NormTag, VectorField
from oracles import dense_cell_length_rows, lexsort_plane_crossings, mask_restrict, regular_polygon_length


def polyline_on_circle(k):
    theta = np.linspace(0.0, 2 * np.pi, k + 1)
    return Polyline(np.stack([np.cos(theta), np.sin(theta)], axis=-1))


class TestConstructorsRefuseNonNumbers:
    """Strings and bools were once parsed through float64 by the constructors."""

    @pytest.mark.parametrize(
        "vertices",
        [[["0.1", True], ["0.9", "0.7"]], [[0.1, 0.2], [0.9, True]], [[0.1, 0.2], [0.9, None]],
         np.array([[True, False], [False, True]]), np.array([["0.1", "0.2"], ["0.9", "0.7"]]),
         np.array([[0.1, 0.2], [0.9, 0.7]], dtype=object)],
        ids=["strings-and-bool", "bool", "none", "bool-array", "string-array", "object-array"],
    )
    def test_polyline(self, vertices):
        with pytest.raises(ValueError, match="^vertices must hold"):
            Polyline(vertices)

    @pytest.mark.parametrize(
        "values",
        [["1", True, 1.0, 1.0], [1.0, 1.0, 1.0, False], np.ones(4, dtype=bool), np.array(["1", "1", "1", "1"])],
        ids=["strings-and-bool", "bool", "bool-array", "string-array"],
    )
    def test_scalar_field(self, values):
        with pytest.raises(ValueError, match="^values must hold"):
            ScalarField(Grid([0.0, 0.0], [1.0, 1.0], [2, 2]), values)

    def test_numbers_of_every_kind_are_kept(self):
        vertices = [[np.float32(0.25), 0], [1, np.int64(1)]]
        assert Polyline(vertices).vertices.tolist() == [[0.25, 0.0], [1.0, 1.0]]
        assert Polyline(np.array([[0, 0], [3, 4]])).length == 5.0
        assert ScalarField(Grid([0.0], [1.0], [2]), [np.int8(2), 0.5]).values.tolist() == [2.0, 0.5]


class TestLength:
    def test_segment_3_4_5(self):
        assert Polyline([[0.0, 0.0], [3.0, 4.0]]).length == 5.0

    def test_repeated_vertex_is_constant(self):
        assert Polyline([[1.0, 2.0], [1.0, 2.0]]).length == 0.0

    def test_256_gon_close_to_circumference(self):
        c = polyline_on_circle(256)
        expected = regular_polygon_length(256)
        assert c.length == pytest.approx(expected, abs=1e-12)
        assert abs(c.length - 2 * math.pi) < 1e-3

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_collinear_refinement_preserves_length(self, seed):
        r = np.random.default_rng(seed)
        pts = r.uniform(-1, 1, size=(4, 2))
        c = Polyline(pts)
        refined = []
        for a, b in zip(pts[:-1], pts[1:]):
            refined.append(a)
            refined.append(0.5 * (a + b))  # collinear midpoint
        refined.append(pts[-1])
        assert Polyline(refined).length == pytest.approx(c.length, rel=1e-12)

    def test_cumulative_arclength_structure(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        assert np.allclose(c.cumulative_arclength, [0.0, 1.0, 3.0])


class TestPointsAt:
    @pytest.mark.parametrize("ts", [[math.nan], [0.5, math.nan], [math.inf], [-math.inf], [-0.5], [1.5]])
    @pytest.mark.parametrize("verts", [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]])
    def test_parameter_outside_range_or_nan_rejected(self, verts, ts):
        with pytest.raises(ValueError, match=r"arc-length parameter out of \[0, length\]"):
            Polyline(verts).points_at(ts)

    def test_parameters_in_range_accepted(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(c.points_at([0.0, 0.25, 1.0]), [[0.0, 0.0], [0.25, 0.0], [1.0, 0.0]])
        assert c.points_at([]).shape == (0, 2)

    def test_segment_midpoint(self):
        c = Polyline([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(c.points_at([1.0]), [[1.0, 0.0]])

    def test_l_shaped_chain(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(c.points_at([1.5]), [[1.0, 0.5]])


class TestRestrict:
    def test_restriction_length_matches_parameters(self, rng):
        c = Polyline(rng.uniform(0, 1, size=(5, 2)))
        total = c.length
        for s, t in [(0.0, total), (0.1 * total, 0.7 * total), (0.3 * total, 0.3 * total)]:
            assert restrict(c, s, t).length == pytest.approx(t - s, abs=1e-9)

    def test_full_interval_is_identity(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        r = restrict(c, 0.0, c.length)
        assert r.length == pytest.approx(c.length, rel=1e-12)
        assert np.allclose(r.points_at([0.0, 1.0, 2.0]), c.points_at([0.0, 1.0, 2.0]))

    def test_point_interval_is_constant(self, unit_square_16):
        c = Polyline([[0.1, 0.1], [0.9, 0.9]])
        sub = restrict(c, 0.3, 0.3)
        assert sub.length == 0.0
        rho = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        assert curve_integral(rho, sub) == 0.0

    def test_invalid_interval(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            restrict(c, 0.5, 0.2)
        with pytest.raises(ValueError):
            restrict(c, -0.1, 0.5)

    def test_additivity_of_lengths(self, rng):
        c = Polyline(rng.uniform(0, 1, size=(6, 2)))
        total = c.length
        s, t, u = sorted(rng.uniform(0, total, size=3))
        left = restrict(c, s, t).length
        right = restrict(c, t, u).length
        assert left + right == pytest.approx(restrict(c, s, u).length, abs=1e-9)

    def test_nested_integral_monotonicity(self, rng, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=rng.uniform(0, 2, unit_square_16.num_cells))
        c = Polyline(rng.uniform(0.1, 0.9, size=(4, 2)))
        total = c.length
        inner = curve_integral(rho, restrict(c, 0.3 * total, 0.6 * total))
        outer = curve_integral(rho, restrict(c, 0.1 * total, 0.8 * total))
        assert inner <= outer + 1e-12


@st.composite
def integer_curves(draw):
    """Curves in 1, 2 or 3 dimensions on a scaled integer lattice, so that
    vertices repeat and segments of equal length put vertices exactly on
    equispaced parameters; one-segment curves included."""
    n = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(min_value=2, max_value=7))
    ints = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=k, max_size=k))
    return (np.array(ints, dtype=float) * draw(st.sampled_from([1.0, 0.1, 0.37]))).tolist()


@st.composite
def curves_and_parameters(draw):
    """A lattice curve and sorted parameters drawn from its vertices' arc
    positions, 0, its length and points in between, repeats allowed."""
    verts = draw(integer_curves())
    c = Polyline(verts)
    choices = st.sampled_from([*c.cumulative_arclength.tolist(), 0.0, c.length])
    inner = st.floats(min_value=0.0, max_value=1.0).map(lambda u: u * c.length)
    ts = draw(st.lists(choices | inner, min_size=1, max_size=8))
    return verts, sorted(ts)


CUT_CASES = settings(derandomize=True, max_examples=150, deadline=None, database=None)


class TestCut:
    """``cut`` and the pieces of ``_sample_curve`` against the mask-based
    restriction, one pair of parameters at a time, vertex for vertex."""

    @CUT_CASES
    @given(curves_and_parameters())
    @example(([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [0.0, 1.0, 1.0, 2.0]))
    @example(([[0.0], [1.0], [2.0], [3.0], [4.0]], [0.0, 1.0, 2.0, 3.0, 4.0]))
    @example(([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [0.5, 0.5, 1.0, 3.0]))
    @example(([[0.2, 0.3], [0.7, 0.3]], [0.1, 0.1]))
    @example(([[0.2], [0.7]], [0.0, 0.5]))
    def test_pieces_match_mask_restriction(self, case):
        verts, ts = case
        c = Polyline(verts)
        pieces = cut(c, ts)
        assert len(pieces) == len(ts) - 1
        for piece, s, t in zip(pieces, ts[:-1], ts[1:]):
            expected = mask_restrict(c, s, t).vertices
            assert np.array_equal(piece.vertices, expected)
            assert np.array_equal(restrict(c, s, t).vertices, expected)

    @CUT_CASES
    @given(integer_curves(), st.sampled_from([2, 5, 12]))
    @example([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 5)
    @example([[0.0], [1.0], [2.0], [3.0], [4.0]], 5)
    @example([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], 12)
    @example([[0.2], [0.7]], 2)
    def test_sampled_pieces_and_values_match_mask_restriction(self, verts, num_params):
        c = Polyline(verts)
        lo, hi = c.vertices.min(axis=0) - 1.0, c.vertices.max(axis=0) + 1.0
        g = Grid(box_min=lo, box_max=hi, resolution=[4] * c.ndim)
        f = VectorField(grid=g, values=np.random.default_rng(7).normal(size=(g.num_cells, 2)), norm=NormTag.L2)
        params, values, verts, counts = _sample_curve(f, c, num_params)
        assert params[-1] == c.length
        pieces = np.split(verts, np.cumsum(counts)[:-1])
        for piece, s, t in zip(pieces, params[:-1], params[1:], strict=True):
            assert np.array_equal(piece, mask_restrict(c, s, t).vertices)
        assert np.array_equal(values, _interpolate(g, f.values, c.points_at(params)))

    def test_unsorted_or_out_of_range_parameters_rejected(self):
        c = Polyline([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="sorted"):
            cut(c, [0.5, 0.2])
        with pytest.raises(ValueError, match="lie in"):
            cut(c, [0.5, 1.5])

    def test_one_parameter_gives_no_piece(self):
        assert cut(Polyline([[0.0, 0.0], [1.0, 0.0]]), [0.5]) == []


class TestCurveIntegral:
    def test_unit_density_gives_length(self, unit_square_16, rng):
        rho = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        c = Polyline(rng.uniform(0.05, 0.95, size=(4, 2)))
        assert curve_integral(rho, c) == pytest.approx(c.length, rel=1e-12)

    def test_linear_density_on_horizontal_segment(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[64, 64])
        centers = g.cell_centers()
        rho = ScalarField(grid=g, values=centers[:, 0])
        c = Polyline([[0.0, 0.5078125], [1.0, 0.5078125]])
        # piecewise-constant x-values average exactly 1/2 over the row
        assert curve_integral(rho, c) == pytest.approx(0.5, abs=1e-12)

    def test_indicator_admissibility_certificate(self):
        # curve spending length delta in E makes chi_E/delta integrate to >= 1
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[10, 10])
        delta = 0.2
        vals = np.zeros(g.shape)
        vals[:, 4] = 1.0 / delta  # E = the cell row y in [0.4, 0.5]
        rho = ScalarField(grid=g, values=vals.ravel())
        c = Polyline([[0.2, 0.45], [0.2 + delta, 0.45]])
        assert curve_integral(rho, c) >= 1.0 - 1e-12

    def test_negative_density_rejected(self, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=-np.ones(unit_square_16.num_cells))
        with pytest.raises(ValueError):
            curve_integral(rho, Polyline([[0.1, 0.1], [0.5, 0.5]]))

    def test_curve_outside_box_rejected(self, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        with pytest.raises(DomainError):
            curve_integral(rho, Polyline([[0.5, 0.5], [1.5, 0.5]]))

    def test_monotone_in_density(self, rng, unit_square_16):
        v1 = rng.uniform(0, 1, unit_square_16.num_cells)
        v2 = v1 + rng.uniform(0, 1, unit_square_16.num_cells)
        c = Polyline(rng.uniform(0.1, 0.9, size=(3, 2)))
        i1 = curve_integral(ScalarField(grid=unit_square_16, values=v1), c)
        i2 = curve_integral(ScalarField(grid=unit_square_16, values=v2), c)
        assert i1 <= i2 + 1e-12

    def test_additive_under_restriction(self, rng, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=rng.uniform(0, 3, unit_square_16.num_cells))
        c = Polyline(rng.uniform(0.1, 0.9, size=(5, 2)))
        t = 0.37 * c.length
        whole = curve_integral(rho, c)
        parts = curve_integral(rho, restrict(c, 0.0, t)) + curve_integral(rho, restrict(c, t, c.length))
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


class TestCellLengths:
    def test_axis_aligned_unit_segment_unit_spacing(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[4.0, 4.0], resolution=[4, 4])
        row = cell_lengths(Polyline([[0.0, 2.5], [4.0, 2.5]]), g).toarray().ravel()
        traversed = row[row > 0]
        assert len(traversed) == 4
        assert np.allclose(traversed, 1.0)

    def test_cell_diagonal(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[4.0, 4.0], resolution=[4, 4])
        row = cell_lengths(Polyline([[1.0, 1.0], [2.0, 2.0]]), g).toarray().ravel()
        assert row.sum() == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.count_nonzero(row) == 1

    def test_row_dot_density_matches_curve_integral(self, rng):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        for _ in range(25):
            c = Polyline(rng.uniform(0.02, 0.98, size=(rng.integers(2, 5), 2)))
            rho = ScalarField(grid=g, values=rng.uniform(0, 2, g.num_cells))
            row = cell_lengths(c, g)
            assert float((row @ rho.values)[0]) == pytest.approx(curve_integral(rho, c), abs=1e-6)

    def test_row_sums_reproduce_length(self, rng):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
        for _ in range(25):
            c = Polyline(rng.uniform(0.02, 0.98, size=(rng.integers(2, 6), 2)))
            row = cell_lengths(c, g)
            assert row.sum() == pytest.approx(c.length, rel=1e-9)

    def test_boundary_touching_curve_allowed(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        row = cell_lengths(Polyline([[0.0, 0.375], [1.0, 0.375]]), g)
        assert row.sum() == pytest.approx(1.0, rel=1e-12)


def assert_matches_oracle(curves, g):
    rows = cell_length_rows(curves, g)
    dense = dense_cell_length_rows(curves, g)
    assert rows.shape == dense.shape
    assert np.array_equal(rows.toarray(), dense)
    assert rows.nnz == np.count_nonzero(dense)
    return rows


class TestCellLengthRows:
    @pytest.mark.parametrize("res", [[7], [9, 5], [4, 5, 6]])
    def test_random_families_match_oracle_bit_for_bit(self, rng, res):
        g = Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)
        for _ in range(5):
            curves = [
                Polyline(rng.uniform(0.0, 1.0, size=(rng.integers(2, 6), len(res))))
                for _ in range(rng.integers(1, 40))
            ]
            assert_matches_oracle(curves, g)

    def test_offset_box_matches_oracle(self, rng):
        g = Grid(box_min=[-1.3, 0.7], box_max=[2.1, 1.9], resolution=[13, 11])
        lo, hi = g.box_min, g.box_max
        curves = [Polyline(lo + (hi - lo) * rng.uniform(size=(4, 2))) for _ in range(30)]
        assert_matches_oracle(curves, g)

    def test_repeated_vertices_add_nothing(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        plain = Polyline([[0.1, 0.1], [0.9, 0.6], [0.3, 0.8]])
        repeated = Polyline([[0.1, 0.1], [0.1, 0.1], [0.9, 0.6], [0.9, 0.6], [0.3, 0.8]])
        rows = assert_matches_oracle([plain, repeated], g)
        assert np.array_equal(rows[0].toarray(), rows[1].toarray())

    def test_constant_curve_gives_zero_row(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        curves = [Polyline([[0.3, 0.3]]), Polyline([[0.5, 0.5], [0.5, 0.5]]), Polyline([[0.1, 0.2], [0.7, 0.2]])]
        rows = assert_matches_oracle(curves, g)
        assert rows[0].nnz == 0 and rows[1].nnz == 0
        assert rows[2].sum() == pytest.approx(0.6, rel=1e-12)

    def test_segment_on_cell_plane(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        rows = assert_matches_oracle([Polyline([[0.0, 0.5], [1.0, 0.5]]), Polyline([[0.25, 0.1], [0.25, 0.9]])], g)
        assert rows[0].nnz == 4 and rows[0].sum() == pytest.approx(1.0, rel=1e-12)
        assert rows[1].sum() == pytest.approx(0.8, rel=1e-12)

    def test_anti_diagonal_through_vertices_stores_no_zeros(self):
        # zero-width pieces at grid vertices land in cells the curve never enters
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        rows = assert_matches_oracle([Polyline([[1.0, 0.0], [0.0, 1.0]]), Polyline([[0.0, 1.0], [1.0, 0.0]])], g)
        assert np.all(rows.data > 0.0)
        assert rows[0].nnz == 4 and rows[1].nnz == 4

    def test_curves_touching_the_box_boundary(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        curves = [
            Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
            Polyline([[0.0, 0.0], [1.0, 1.0]]),
            Polyline([[0.0, 0.375], [1.0, 0.375]]),
        ]
        rows = assert_matches_oracle(curves, g)
        assert np.asarray(rows.sum(axis=1)).ravel() == pytest.approx([4.0, math.sqrt(2.0), 1.0], rel=1e-12)

    def test_empty_family(self):
        g = Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 1.0], resolution=[2, 3, 4])
        rows = cell_length_rows([], g)
        assert rows.shape == (0, 24) and rows.nnz == 0

    def test_curve_leaving_the_box_rejected(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        with pytest.raises(DomainError):
            cell_length_rows([Polyline([[0.1, 0.1], [0.2, 0.2]]), Polyline([[0.5, 0.5], [1.5, 0.5]])], g)

    def test_dimension_mismatch_rejected(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        with pytest.raises(ValueError):
            cell_length_rows([Polyline([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])], g)

    def test_one_curve_rows_equal_family_rows(self, rng, unit_square_16):
        curves = [Polyline(rng.uniform(0.0, 1.0, size=(4, 2))) for _ in range(10)]
        rows = cell_length_rows(curves, unit_square_16)
        for j, c in enumerate(curves):
            assert np.array_equal(cell_lengths(c, unit_square_16).toarray(), rows[j].toarray())


def assert_integrals_equal_rows(curves, g, rng):
    rho = ScalarField(grid=g, values=rng.normal(0.0, 2.0, g.num_cells))
    integrals = curve_integrals(rho, curves)
    assert integrals.shape == (len(curves),)
    assert np.array_equal(integrals, cell_length_rows(curves, g) @ rho.values)


class TestCurveIntegrals:
    """The numpy line integrals add the entries of the constraint rows in the
    order of the sparse product, so they equal the rows times rho bit for bit."""

    @pytest.mark.parametrize("res", [[7], [9, 5], [4, 5, 6]])
    def test_random_families(self, rng, res):
        g = Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)
        for _ in range(5):
            curves = [
                Polyline(rng.uniform(0.0, 1.0, size=(rng.integers(2, 6), len(res))))
                for _ in range(rng.integers(1, 40))
            ]
            assert_integrals_equal_rows(curves, g, rng)

    def test_constant_and_cell_face_curves(self, rng):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        curves = [
            Polyline([[0.3, 0.3]]),
            Polyline([[0.5, 0.5], [0.5, 0.5]]),
            Polyline([[0.0, 0.5], [1.0, 0.5]]),
            Polyline([[0.25, 0.1], [0.25, 0.9]]),
            Polyline([[1.0, 0.0], [0.0, 1.0]]),
            Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
        ]
        assert_integrals_equal_rows(curves, g, rng)
        rho = ScalarField(grid=g, values=np.ones(g.num_cells))
        assert np.array_equal(curve_integrals(rho, curves[:2]), [0.0, 0.0])

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_lattice_vertex_curves(self, rng, ndim):
        # every vertex on a grid vertex, so segments run along cell faces and
        # edges and through vertices, and vertices repeat
        g = Grid(box_min=[-1.0] * ndim, box_max=[1.0] * ndim, resolution=[8] * ndim)
        for _ in range(5):
            curves = [Polyline(rng.integers(-4, 5, size=(rng.integers(1, 7), ndim)) * 0.25) for _ in range(30)]
            assert_integrals_equal_rows(curves, g, rng)

    def test_empty_family(self, rng):
        g = Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 1.0], resolution=[2, 3, 4])
        assert_integrals_equal_rows([], g, rng)

    def test_curve_outside_box_rejected(self, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=np.ones(unit_square_16.num_cells))
        with pytest.raises(DomainError):
            curve_integrals(rho, [Polyline([[0.1, 0.1], [0.2, 0.2]]), Polyline([[0.5, 0.5], [1.5, 0.5]])])

    def test_overflow_gives_inf_without_a_warning(self):
        # a cell length above 1 times the largest densities overflows in the
        # products, several cells of length below 1 overflow in the sums
        g = Grid(box_min=[0.0, 0.0], box_max=[10.0, 10.0], resolution=[2, 2])
        rho = ScalarField(grid=g, values=np.full(g.num_cells, 1.5e308))
        curves = [Polyline([[0.0, 1.0], [9.0, 1.0]]), Polyline([[4.5, 4.5], [5.5, 5.5]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrals = curve_integrals(rho, curves)
        assert np.array_equal(integrals, [np.inf, np.inf])
        assert np.array_equal(integrals, cell_length_rows(curves, g) @ rho.values)

    def test_curve_integral_is_the_one_curve_case(self, rng, unit_square_16):
        rho = ScalarField(grid=unit_square_16, values=rng.uniform(0.0, 2.0, unit_square_16.num_cells))
        curves = [Polyline(rng.uniform(0.0, 1.0, size=(4, 2))) for _ in range(10)]
        assert [curve_integral(rho, c) for c in curves] == curve_integrals(rho, curves).tolist()


def _interior(seg: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints strictly between a segment's ends: its plane crossings."""
    inside = (t > 0.0) & (t < 1.0)
    return seg[inside], t[inside]


class TestSegmentCrossings:
    # the breakpoint list underlies every per-cell length and line
    # integral, so it gets direct hand-counted checks

    def test_horizontal_segment_crosses_vertical_planes_only(self):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        t = _breakpoints(g, np.array([0.0, 0.3])[None, :], np.array([1.0, 0.3])[None, :])[1]
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_segment_inside_one_cell_has_no_crossings(self):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        t = _breakpoints(g, np.array([0.05, 0.05])[None, :], np.array([0.2, 0.2])[None, :])[1]
        assert np.array_equal(t, [0.0, 1.0])

    def test_diagonal_counts_both_axis_families(self):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 2])
        t = _breakpoints(g, np.array([0.0, 0.0])[None, :], np.array([1.0, 1.0])[None, :])[1]
        # three vertical planes at x=1/4,1/2,3/4 and one horizontal at y=1/2
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.5, 0.75, 1.0])

    def test_endpoint_on_plane_not_counted(self):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        t = _breakpoints(g, np.array([0.25, 0.1])[None, :], np.array([0.5, 0.1])[None, :])[1]
        assert np.array_equal(t, [0.0, 1.0])

    def test_reversed_direction_mirrors_parameters(self):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
        p, q = np.array([0.1, 0.7]), np.array([0.9, 0.2])
        fwd = _breakpoints(g, p[None, :], q[None, :])[1]
        bwd = _breakpoints(g, q[None, :], p[None, :])[1]
        assert np.allclose(np.sort(1.0 - bwd), fwd)

    @pytest.mark.parametrize(
        "box_min,box_max,res,segments",
        [
            # diagonals through grid vertices: ties between the two plane families
            ([0.0, 0.0], [1.0, 1.0], [8, 8], [[[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.5]]]),
            # reversed, axis-parallel, on a plane, and ending on planes
            ([0.0, 0.0], [1.0, 1.0], [4, 8], [[[1.0, 1.0], [0.0, 0.0]], [[0.1, 0.3], [0.9, 0.3]], [[0.5, 0.1], [0.5, 0.9]],
                                              [[0.25, 0.125], [0.75, 0.625]], [[0.2, 0.2], [0.2, 0.2]], [[0.05, 0.05], [0.2, 0.1]]]),
            # 3-D diagonals through vertices and along a face: triple and double ties
            ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [4, 4, 4], [[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                                                         [[0.0, 0.0, 0.5], [1.0, 1.0, 0.5]], [[0.0, 0.25, 0.25], [1.0, 0.25, 0.25]]]),
            ([-1.0, 2.0, 0.0], [3.0, 4.0, 0.5], [8, 4, 2], [[[-1.0, 2.0, 0.0], [3.0, 4.0, 0.5]], [[3.0, 4.0, 0.5], [-1.0, 2.0, 0.0]]]),
        ],
    )
    def test_order_matches_the_lexsort_oracle_bit_for_bit(self, box_min, box_max, res, segments):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=box_min, box_max=box_max, resolution=res)
        pq = np.array(segments, dtype=float)
        seg, t = _interior(*_breakpoints(g, pq[:, 0], pq[:, 1]))
        want_seg, want_t = lexsort_plane_crossings(g, pq[:, 0], pq[:, 1])
        assert t.size > 0 and np.any(np.diff(t)[np.diff(seg) == 0] == 0.0)  # ties present
        assert np.array_equal(seg, want_seg) and np.array_equal(t, want_t)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_random_segments_match_the_lexsort_oracle(self, rng, ndim):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[0.0] * ndim, box_max=[1.0] * ndim, resolution=rng.integers(3, 24, size=ndim))
        # half the endpoints snapped to cell planes, so that crossings tie
        p, q = (np.where(rng.random((300, ndim)) < 0.5, np.round(x * g.resolution) / g.resolution, x)
                for x in rng.uniform(0.0, 1.0, size=(2, 300, ndim)))
        seg, t = _interior(*_breakpoints(g, p, q))
        want_seg, want_t = lexsort_plane_crossings(g, p, q)
        assert np.array_equal(seg, want_seg) and np.array_equal(t, want_t)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_segment_runs_from_0_to_1(self, rng, ndim):
        from modlab.geometry import _breakpoints

        g = Grid(box_min=[-1.0] * ndim, box_max=[2.0] * ndim, resolution=rng.integers(3, 12, size=ndim))
        p, q = rng.uniform(-1.0, 2.0, size=(2, 200, ndim))
        q[:20] = p[:20]  # constant segments have their ends alone
        seg, t = _breakpoints(g, p, q)
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        ends = np.append(starts[1:], seg.size) - 1
        assert np.array_equal(seg[starts], np.arange(200)) and np.all(np.diff(seg) >= 0)
        assert np.all(t[starts] == 0.0) and np.all(t[ends] == 1.0) and np.all(ends[:20] - starts[:20] == 1)
        assert np.sum((t > 0.0) & (t < 1.0)) == seg.size - 400


class TestGrid:
    def test_cell_volume_definition(self):
        g = Grid(box_min=[0.0, -1.0], box_max=[2.0, 1.0], resolution=[4, 8])
        assert g.cell_volume == pytest.approx((2.0 / 4) * (2.0 / 8))

    def test_contains_slack_scales_with_the_box_width_on_a_translated_box(self):
        # BOX_TOL * (1 + width) = 2e-12 on [10, 11]; one scaled by |box_max + box_min|
        # would be 2.2e-11 and accept the outer points too
        g = Grid(box_min=[10.0], box_max=[11.0], resolution=[4])
        assert g.contains([[11.0 + 1.5e-12]]) and g.contains([[10.0 - 1.5e-12]])
        assert not g.contains([[11.0 + 5e-12]]) and not g.contains([[10.0 - 5e-12]])

    def test_invalid_boxes(self):
        with pytest.raises(ValueError):
            Grid(box_min=[0.0], box_max=[0.0], resolution=[4])
        with pytest.raises(ValueError):
            Grid(box_min=[0.0], box_max=[1.0], resolution=[0])

    def test_fractional_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution must be an integer >= 1, got 4.5"):
            Grid(box_min=[0.0], box_max=[1.0], resolution=[4.5])
        with pytest.raises(ValueError, match="resolution must be an integer >= 1, got 4.5"):
            Grid.from_json({"box_min": [0.0], "box_max": [1.0], "resolution": [4.5]})
        assert Grid(box_min=[0.0], box_max=[1.0], resolution=[4.0]).shape == (4,)

    @pytest.mark.parametrize("res", [[2**32, 2**32], [2**32, 2**31], [2**63], [2**64], [2**62, 2, 1]])
    def test_more_cells_than_an_index_holds_rejected_by_resolution(self, res):
        # these counts once wrapped around in int64 (to 0 and to -2^63), and an
        # entry >= 2^63 warned on its cast, then failed as "resolution must be >= 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"resolution {res} has {math.prod(res)} cells")):
                Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)

    @pytest.mark.parametrize("res", [[2**31, 2**31], [2**62, 1], [2**60, 2, 2]])
    def test_largest_cell_counts_are_exact(self, res):
        # a grid holds its bounds and resolution only, so none of these allocates
        assert Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res).num_cells == math.prod(res)

    @pytest.mark.parametrize("res", [[2**53 + 1], np.array([2**53 + 1]), [4, 2**61 - 1], [2**63 - 1]])
    def test_integer_resolution_is_exact_above_two_to_the_53(self, res):
        # float64 once rounded these, 2^53 + 1 to 2^53 without a word
        g = Grid(box_min=[0.0] * len(res), box_max=[1.0] * len(res), resolution=res)
        assert g.resolution.tolist() == list(res)
        assert g.shape == tuple(res) and g.num_cells == math.prod(res)

    def test_json_resolution_is_exact_above_two_to_the_53(self):
        g = Grid.from_json(json.loads('{"box_min": [0], "box_max": [1], "resolution": [9007199254740993]}'))
        assert g.resolution.tolist() == [2**53 + 1]

    def test_count_that_rounding_would_have_accepted_is_rejected(self):
        # float64 gives 3 * 3074457345618258432 cells, which an index holds
        with pytest.raises(ValueError, match=re.escape("resolution [3, 3074457345618258603] has 9223372036854775809 cells")):
            Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3074457345618258603])

    def test_json_record_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            Grid.from_json([0, 1])

    @pytest.mark.parametrize(
        "field,value",
        [("box_min", ["0", 0]), ("box_max", [True, 1]), ("resolution", ["4", 4]), ("resolution", [4, False]),
         ("box_min", [None, 0]), ("box_min", [[0, 0]]), ("resolution", [[4, 4]]), ("box_max", [1, float("nan")]),
         ("box_min", [10**400, 0]), ("resolution", np.array([True, True])), ("box_max", np.ones((1, 2)))],
    )
    def test_entries_that_are_not_finite_numbers_rejected_by_field(self, field, value):
        # strings, bools and nested lists were once parsed through float64
        record = {"box_min": [0, 0], "box_max": [1, 1], "resolution": [4, 4], field: value}
        with pytest.raises(ValueError, match=f"^{field} must hold finite numbers only, got "):
            Grid(**record)
        with pytest.raises(ValueError, match=f"^grid record: {field} must hold finite numbers only"):
            Grid.from_json(record)

    @pytest.mark.parametrize(
        "box_min,box_max,resolution",
        [(np.zeros(2), np.ones(2), np.array([3, 4])), ([np.float64(0), np.int32(0)], (1, np.float32(1)), [np.int8(3), 4.0]),
         (np.float64(0), np.array(1.0), np.int64(4)), (0, 1, 4)],
    )
    def test_numpy_arrays_scalars_and_single_numbers_accepted(self, box_min, box_max, resolution):
        g = Grid(box_min=box_min, box_max=box_max, resolution=resolution)
        want = Grid(box_min=[0.0] * g.ndim, box_max=[1.0] * g.ndim, resolution=np.ravel(resolution).tolist())
        assert g.box_min.dtype == g.box_max.dtype == float and g.resolution.dtype == int
        assert g.to_json() == want.to_json()

    def test_locate_corners(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        assert g.locate([[0.0, 0.0]])[0] == 0
        assert g.locate([[1.0, 1.0]])[0] == g.num_cells - 1

    @pytest.mark.parametrize("res", [[7], [9, 5], [4, 5, 6]])
    def test_locate_matches_ravel_multi_index(self, rng, res):
        g = Grid(box_min=[-0.5] * len(res), box_max=[1.5] * len(res), resolution=res)
        # inside, on cell planes, on the box faces and beyond them (clipped)
        pts = np.concatenate([
            rng.uniform(-0.5, 1.5, size=(200, len(res))),
            np.round(rng.uniform(-0.5, 1.5, size=(100, len(res))) * 4) / 4,
            rng.uniform(-3.0, 3.0, size=(100, len(res))),
        ])
        idx = np.clip(np.floor((pts - g.box_min) / g.spacing).astype(int), 0, g.resolution - 1)
        assert np.array_equal(g.locate(pts), np.ravel_multi_index(tuple(idx.T), g.shape))

    def test_centre_planes_are_the_cell_centres_and_built_once(self):
        g = Grid(box_min=[0.0, -1.0], box_max=[1.0, 2.0], resolution=[4, 6])
        planes = g.centre_planes
        assert planes is g.centre_planes
        assert np.array_equal(planes.resolution, [5, 7])
        for axis in range(2):
            interior = planes.box_min[axis] + np.arange(1, planes.resolution[axis]) * planes.spacing[axis]
            assert np.allclose(interior, g.axis_centers(axis), rtol=0.0, atol=1e-15)

    def test_json_round_trip(self, tmp_path):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 2.0], resolution=[4, 8])
        g.save(tmp_path / "grid.json")
        g2 = Grid.load(tmp_path / "grid.json")
        assert np.array_equal(g2.box_max, g.box_max)
        assert np.array_equal(g2.resolution, g.resolution)


class TestFamilyIO:
    def test_polyline_csv_round_trip(self, tmp_path):
        c = Polyline([[0.125, 0.25], [0.5, 0.75], [0.625, 0.125]])
        save_polyline_csv(c, tmp_path / "c.csv")
        c2 = load_polyline_csv(tmp_path / "c.csv")
        assert np.array_equal(c2.vertices, c.vertices)

    def test_a_crlf_polyline_reads_to_the_same_bits(self, tmp_path):
        c = Polyline([[0.1, 1 / 3], [0.5, 0.75], [2 / 3, 0.125]])
        save_polyline_csv(c, tmp_path / "c.csv")
        (tmp_path / "c.csv").write_bytes((tmp_path / "c.csv").read_bytes().replace(b"\n", b"\r\n"))
        assert load_polyline_csv(tmp_path / "c.csv").vertices.tobytes() == c.vertices.tobytes()

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_polyline_coordinate_that_is_not_finite_names_its_file_and_line(self, tmp_path, coordinate):
        (tmp_path / "c.csv").write_text(f"0.1,0.1\n\n0.5,{coordinate}\n0.7,0.7\n")
        with pytest.raises(ValueError, match=r"line 3 of .*c\.csv holds a coordinate that is not a finite number"):
            load_polyline_csv(tmp_path / "c.csv")

    @pytest.mark.parametrize("body,rule", [
        ("0.1,0.1\n\n0.5,0.5,0.5\n", r"line 3 of .*c\.csv has 3 columns where the first row has 2"),
        ("0.1,0.1\n0.5,x\n", r"line 2 of .*c\.csv: coordinate 'x' is not a number"),
        ("0.1,0.1\n0.5,\x0c0.5\n", r"line 2 of .*c\.csv: character '\\x0c' is neither printable ASCII nor a tab"),
        ("0.1,0.1\n0.5,\u0660\n", r"line 2 of .*c\.csv: character '\u0660' is neither printable ASCII nor a tab"),
        ("\n \n\t\n", r"empty polyline file: .*c\.csv"),
    ], ids=["ragged", "text", "form-feed", "arabic-indic-zero", "blank"])
    def test_polyline_body_outside_the_grammar_names_its_file_and_line(self, tmp_path, body, rule):
        (tmp_path / "c.csv").write_text(body)
        with pytest.raises(ValueError, match=rule):
            load_polyline_csv(tmp_path / "c.csv")

    def test_family_manifest_round_trip(self, tmp_path):
        fam = CurveFamily(
            curves=[Polyline([[0.1, 0.1], [0.9, 0.2]]), Polyline([[0.2, 0.5], [0.8, 0.9]])],
            label="pair",
        )
        save_family(fam, tmp_path / "fam.json")
        fam2 = load_family(tmp_path / "fam.json")
        assert fam2.label == "pair"
        assert len(fam2) == 2
        assert np.array_equal(fam2.curves[1].vertices, fam.curves[1].vertices)

    def test_family_rejects_constant_curves(self):
        with pytest.raises(DegenerateCurveError):
            CurveFamily(curves=[Polyline([[0.5, 0.5], [0.5, 0.5]])])

    @pytest.mark.parametrize(
        "family",
        [
            [[[0.5, 0.5]]],
            [[[0.1, 0.1], [0.9, 0.9]], [[0.3, 0.3]]],
            [[[0.3, 0.3]], [[0.1, 0.1], [0.9, 0.9]]],
            # the joint of two curves moves, but neither curve does
            [[[0.1, 0.1], [0.1, 0.1]], [[0.9, 0.9], [0.9, 0.9]]],
            [[[0.1, 0.1], [0.5, 0.5], [0.5, 0.5]], [[0.2, 0.2], [0.2, 0.2], [0.2, 0.2]]],
            # d.d underflows to 0, so the length is 0 too
            [[[0.0, 0.0], [1e-200, 1e-200]]],
            [[[0.1, 0.1], [0.9, 0.9]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
        ],
    )
    def test_family_rejects_any_constant_curve(self, family):
        curves = [Polyline(c) for c in family]
        assert not all(c.length > 0.0 for c in curves)
        with pytest.raises(DegenerateCurveError, match="nonconstant curves only"):
            CurveFamily(curves=curves)

    @pytest.mark.parametrize(
        "family",
        [
            [],
            [[[0.1, 0.1], [0.1, 0.1], [0.9, 0.9]], [[0.9, 0.9], [0.2, 0.2]]],
            # d.d of 2e-300 is positive, as is the length
            [[[0.0, 0.0], [1e-150, 0.0]], [[0.0, 0.0], [0.0, 1e-150], [0.0, 1e-150]]],
            [[[0.1, 0.1], [0.9, 0.9]], [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
        ],
    )
    def test_family_accepts_nonconstant_curves(self, family):
        curves = [Polyline(c) for c in family]
        assert all(c.length > 0.0 for c in curves)
        assert len(CurveFamily(curves=curves)) == len(curves)

    def test_family_test_agrees_with_curve_lengths(self, rng):
        for _ in range(50):
            # some curves repeat one vertex, so that about a quarter are constant
            curves = [
                Polyline(np.repeat(rng.uniform(size=(1, 2)), k, axis=0) if rng.random() < 0.25
                         else rng.uniform(size=(k, 2)))
                for k in rng.integers(1, 4, size=int(rng.integers(1, 6)))
            ]
            expected = all(c.length > 0.0 for c in curves)
            try:
                CurveFamily(curves=curves)
                accepted = True
            except DegenerateCurveError:
                accepted = False
            assert accepted == expected
