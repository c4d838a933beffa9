import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modlab import Grid, NormTag, VectorField, lp_norm, value_norm
from modlab import errors, vectorvalues
from modlab.cli import main
from modlab.vectorvalues import load_field_csv, save_field_csv
from field_csv_faults import FAULTS, add_fault, line_of, respelled, shuffled_rows, token_rows, write_field
from oracles import dual_ball_extreme_points, sampled_dual_functionals

TAGS = [NormTag.L1, NormTag.L2, NormTag.LINF]


def make_field(grid, values, tag=NormTag.L2):
    return VectorField(grid=grid, values=values, norm=tag)


def bochner_integral(f):
    """The integral of a cell-constant field: the volume-weighted sum of its values."""
    return f.grid.cell_volume * np.sum(f.values, axis=0)


class TestValueNorm:
    def test_3_4_5(self):
        assert value_norm(np.array([3.0, 4.0]), NormTag.L2) == 5.0

    def test_linf_and_l1(self):
        v = np.array([3.0, 4.0])
        assert value_norm(v, NormTag.LINF) == 4.0
        assert value_norm(v, NormTag.L1) == 7.0

    def test_zero_vector(self):
        for tag in TAGS:
            assert value_norm(np.zeros(5), tag) == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, seed, c):
        v = np.random.default_rng(seed).normal(size=4)
        for tag in TAGS:
            assert value_norm(c * v, tag) == pytest.approx(abs(c) * value_norm(v, tag), rel=1e-12, abs=1e-12)


class TestMaxLastAxis:
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("m", [*range(1, 65), 128])
    def test_equals_np_max_bit_for_bit(self, lead, m):
        # lengths up to 64 and 128 cover both sides of the switch at 32
        x = np.random.default_rng(m).normal(size=(*lead, m))
        mine = np.asarray(vectorvalues._max_last_axis(x))
        assert mine.shape == lead
        assert mine.tobytes() == np.asarray(np.max(x, axis=-1)).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 12, 32, 33, 128])
    def test_linf_value_norms_equal_the_np_max_formula(self, rng, m):
        v = rng.normal(size=(500, m)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        assert value_norm(v, NormTag.LINF).tobytes() == np.max(np.abs(v), axis=-1).tobytes()
        assert value_norm(v[0], NormTag.LINF) == float(np.max(np.abs(v[0])))


class TestSumLastAxis:
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5), (4096,)], ids=["1d", "2d", "3d", "tall"])
    @pytest.mark.parametrize("m", range(0, 13))
    def test_equals_np_sum_bit_for_bit(self, lead, m):
        # lengths up to 12 cover both sides of the switch at 8; signed zeros
        # and mixed signs check the order of the additions
        x = np.random.default_rng(m).normal(size=(*lead, m)) * 10.0 ** np.arange(-3, 3).repeat(3)[:m]
        x[..., ::3] = -0.0
        mine = np.asarray(vectorvalues._sum_last_axis(x))
        assert mine.shape == lead
        assert mine.tobytes() == np.asarray(np.sum(x, axis=-1)).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 12])
    def test_l1_and_l2_value_norms_equal_the_np_sum_formulas(self, rng, m):
        v = rng.normal(size=(500, m)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        assert value_norm(v, NormTag.L1).tobytes() == np.sum(np.abs(v), axis=-1).tobytes()
        assert value_norm(v, NormTag.L2).tobytes() == np.sqrt(np.sum(v * v, axis=-1)).tobytes()
        assert value_norm(v[0], NormTag.L2) == float(np.sqrt(np.sum(v[0] * v[0])))


class TestBochnerIntegral:
    def test_constant_field_on_volume_two_box(self):
        g = Grid(box_min=[0.0], box_max=[2.0], resolution=[8])
        v = np.array([1.5, -0.5])
        f = make_field(g, np.tile(v, (8, 1)))
        assert np.allclose(bochner_integral(f), 2.0 * v)

    def test_two_cell_simple_function(self):
        # the simple-function integral: sum of measure(E_i) * v_i
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[2])
        v1, v2 = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        f = make_field(g, np.stack([v1, v2]))
        assert np.allclose(bochner_integral(f), 0.5 * v1 + 0.5 * v2)

    def test_pairing_identity(self, rng, unit_square_16):
        # <v*, integral f> = integral <v*, f>, relative 1e-9
        for tag in TAGS:
            f = make_field(unit_square_16, rng.normal(size=(unit_square_16.num_cells, 3)), tag)
            v = sampled_dual_functionals(tag, 3, 5, seed=11)[3]
            lhs = float(np.dot(v, bochner_integral(f)))
            rhs = float(np.sum(f.values @ v) * unit_square_16.cell_volume)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_linearity(self, rng, unit_square_16):
        a = rng.normal(size=(unit_square_16.num_cells, 2))
        b = rng.normal(size=(unit_square_16.num_cells, 2))
        fa, fb = make_field(unit_square_16, a), make_field(unit_square_16, b)
        fab = make_field(unit_square_16, 2.0 * a - 3.0 * b)
        assert np.allclose(bochner_integral(fab), 2.0 * bochner_integral(fa) - 3.0 * bochner_integral(fb))

    def test_norm_of_integral_bounded_by_l1_norm(self, rng):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[4, 4])
        for tag in TAGS:
            vals = rng.normal(size=(1000, g.num_cells, 3))
            worst = -np.inf
            for k in range(vals.shape[0]):
                f = make_field(g, vals[k], tag)
                excess = value_norm(bochner_integral(f), tag) - lp_norm(f, 1.0)
                worst = max(worst, excess)
            assert worst <= 1e-12


class TestVectorFieldValues:
    @pytest.mark.parametrize(
        "values",
        [[["1"], [2.0]], [[True], [2.0]], np.array([[True], [False]]), np.array([["1"], ["2"]])],
        ids=["string", "bool", "bool-array", "string-array"],
    )
    def test_strings_and_bools_refused(self, values):
        # they were once parsed through float64
        with pytest.raises(ValueError, match="^values must hold"):
            VectorField(grid=Grid(box_min=[0.0], box_max=[1.0], resolution=[2]), values=values, norm=NormTag.L2)

    @pytest.mark.parametrize(
        "values,rule",
        [(np.ones((3, 2)), r"values must have shape \(num_cells, M\)"),
         (np.ones((2, 2, 1)), r"values must have shape \(num_cells, M\)"),
         (np.ones((2, 0)), "value dimension M must be >= 1"),
         (np.array([[1.0, np.nan], [2.0, 3.0]]), "field values must be finite"),
         (np.array([[1.0, 0.0], [np.inf, 3.0]]), "field values must be finite")],
        ids=["rows", "3-d", "M-0", "nan", "inf"],
    )
    def test_wrong_shape_or_values_not_finite_refused(self, values, rule):
        with pytest.raises(ValueError, match=f"^{rule}$"):
            VectorField(grid=Grid(box_min=[0.0], box_max=[1.0], resolution=[2]), values=values, norm=NormTag.L2)


class TestLpNorm:
    def test_constant_on_unit_volume(self):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[4])
        v = np.array([3.0, -4.0])
        f = make_field(g, np.tile(v, (4, 1)), NormTag.L2)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p) == pytest.approx(5.0, rel=1e-12)

    def test_scaling_homogeneity(self, rng, unit_square_16):
        f = make_field(unit_square_16, rng.normal(size=(unit_square_16.num_cells, 2)))
        fc = make_field(unit_square_16, -2.5 * f.values)
        assert lp_norm(fc, 2.0) == pytest.approx(2.5 * lp_norm(f, 2.0), rel=1e-12)

    def test_p_below_one_rejected(self, unit_square_16):
        f = make_field(unit_square_16, np.zeros((unit_square_16.num_cells, 1)))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_minkowski_triangle_inequality(self, seed):
        r = np.random.default_rng(seed)
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[8])
        tag = TAGS[seed % 3]
        p = [1.0, 2.0, 3.0][seed % 3 - 1]
        a = r.normal(size=(8, 3))
        b = r.normal(size=(8, 3))
        fa, fb = make_field(g, a, tag), make_field(g, b, tag)
        fab = make_field(g, a + b, tag)
        lhs = lp_norm(fab, p)
        rhs = lp_norm(fa, p) + lp_norm(fb, p)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestScalarize:
    def test_coordinate_functional_extracts_component(self, unit_square_16, rng):
        f = make_field(unit_square_16, rng.normal(size=(unit_square_16.num_cells, 3)), NormTag.LINF)
        e1 = dual_ball_extreme_points(NormTag.LINF, 3)[0]
        assert np.array_equal(f.values @ e1, f.values[:, 0])

    def test_zero_functional(self, unit_square_16, rng):
        f = make_field(unit_square_16, rng.normal(size=(unit_square_16.num_cells, 2)), NormTag.LINF)
        assert np.all(f.values @ np.zeros(2) == 0.0)

    def test_pairing_dominated_by_value_norm(self, unit_square_16, rng):
        for tag in TAGS:
            f = make_field(unit_square_16, rng.normal(size=(unit_square_16.num_cells, 4)), tag)
            for v in sampled_dual_functionals(tag, 4, 25, seed=3):
                assert np.all(np.abs(f.values @ v) <= f.norms() + 1e-12)


class TestDualBallExtremePoints:
    def test_linf_values_signed_coordinates(self):
        pts = dual_ball_extreme_points(NormTag.LINF, 2)
        assert len(pts) == 4
        coords = sorted(tuple(p) for p in pts)
        assert coords == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]

    def test_l1_values_sign_vectors(self):
        pts = dual_ball_extreme_points(NormTag.L1, 2)
        assert sorted(tuple(p) for p in pts) == [
            (-1.0, -1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (1.0, 1.0),
        ]

    def test_l2_empty_marker(self):
        assert dual_ball_extreme_points(NormTag.L2, 3).shape == (0, 3)

    def test_extreme_point_sup_realizes_dual_pairing_norm(self, rng):
        # sup over the dual ball of <v, w> equals ||w|| by duality
        for tag in (NormTag.L1, NormTag.LINF):
            for _ in range(20):
                w = rng.normal(size=3)
                sup = max(float(np.dot(v, w)) for v in dual_ball_extreme_points(tag, 3))
                assert sup == pytest.approx(value_norm(w, tag), rel=1e-12)


class TestFieldIO:
    @pytest.mark.parametrize("width", [None, 2])
    def test_a_row_narrower_than_its_index_columns_is_named(self, tmp_path, width):
        # every token parses, yet the row type cannot be built: numpy's own
        # "invalid shape in fixed-type tuple" named no file and no line
        path = tmp_path / "short.csv"
        path.write_text("\n1,2\n3,4\n")
        with pytest.raises(ValueError, match=rf"^line 2 of {re.escape(str(path))} has 2 columns; every row needs 3 index columns at least$"):
            errors.read_csv(path, width=width, index_columns=3)

    def test_round_trip(self, tmp_path, rng):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 2.0], resolution=[3, 4])
        f = make_field(g, rng.normal(size=(12, 2)), NormTag.LINF)
        save_field_csv(f, tmp_path / "f.csv")
        f2 = load_field_csv(tmp_path / "f.csv")
        assert f2.norm is NormTag.LINF
        assert np.array_equal(f2.values, f.values)
        assert np.array_equal(f2.grid.resolution, g.resolution)

    def test_repeated_cell_index_rejected(self, tmp_path):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[3, 3])
        f = make_field(g, np.arange(1.0, 10.0)[:, None], NormTag.L2)
        save_field_csv(f, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        # row 0 is the header; row 2 is cell (0,1), replaced by a second (0,0)
        assert lines[1].startswith("0,0,") and lines[2].startswith("0,1,")
        lines[2] = "0,0,99"
        (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="appears twice"):
            load_field_csv(tmp_path / "f.csv")

    def test_rules_are_checked_in_order_finiteness_bounds_repeats(self, tmp_path):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[4])
        body = ["0,1", "1,nan", "1,2", "9,3"]
        for rows, rule in [(body, "line 3 .* not a finite number"), (body[:1] + ["1,2", "1,2", "9,3"], "line 5 .* outside the grid"),
                           (body[:1] + ["1,2", "1,2", "3,3"], "line 4 .* appears twice")]:
            (tmp_path / "f.csv").write_text("i,v\n" + "\n".join(rows) + "\n")
            (tmp_path / "f.csv.json").write_text(json.dumps({"grid": g.to_json(), "dim_M": 1, "norm_tag": "l2"}))
            with pytest.raises(ValueError, match=rule):
                load_field_csv(tmp_path / "f.csv")

    def test_counts_may_be_written_as_whole_floats(self, tmp_path):
        (tmp_path / "f.csv").write_text("i1,v1,v2\n0,1,2\n1,3,4\n")
        grid = {"box_min": [0], "box_max": [1], "resolution": [2.0]}
        (tmp_path / "f.csv.json").write_text(json.dumps({"grid": grid, "dim_M": 2.0, "norm_tag": "l1"}))
        f = load_field_csv(tmp_path / "f.csv")
        assert f.grid.shape == (2,) and f.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_a_zero_dimensional_grid_holds_one_row(self, tmp_path):
        (tmp_path / "f.csv").write_text("v0,v1\n2.5,-1\n")
        grid = {"box_min": [], "box_max": [], "resolution": []}
        (tmp_path / "f.csv.json").write_text(json.dumps({"grid": grid, "dim_M": 2, "norm_tag": "l1"}))
        assert load_field_csv(tmp_path / "f.csv").values.tolist() == [[2.5, -1.0]]

    def test_a_zero_dimensional_grid_is_written_as_one_row(self, tmp_path):
        g = Grid(box_min=[], box_max=[], resolution=[])
        save_field_csv(make_field(g, [[2.5, -1.0]], NormTag.L1), tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text() == "v1,v2\n2.5,-1\n"
        f = load_field_csv(tmp_path / "f.csv")
        assert f.grid.ndim == 0 and f.norm is NormTag.L1
        assert f.values.tolist() == [[2.5, -1.0]]


LOADER_GRIDS = {
    1: Grid(box_min=[0.0], box_max=[1.0], resolution=[12]),
    2: Grid(box_min=[0.0, -1.0], box_max=[1.0, 1.0], resolution=[5, 11]),
    3: Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 2.0], resolution=[3, 2, 10]),
}


class TestFieldLoader:
    """load_field_csv on shuffled, respelled rows, whole or broken one way."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_values_are_bit_identical(self, tmp_path, N, M):
        rng = np.random.default_rng(10 * N + M)
        g = LOADER_GRIDS[N]
        rows = [[respelled(t, rng) for t in row] for row in shuffled_rows(g, M, rng)]
        path = write_field(tmp_path / "f.csv", g, M, rows, rng)
        # every token is ASCII, so Python's float reads each as numpy's reader does
        expected = np.zeros((g.num_cells, M))
        for row in rows:
            expected[np.ravel_multi_index(tuple(int(t) for t in row[:N]), g.shape)] = [float(t) for t in row[N:]]
        f = load_field_csv(path)
        assert f.values.tobytes() == expected.tobytes()
        assert f.norm is NormTag.L2 and np.array_equal(f.grid.resolution, g.resolution)

    RULES = {
        "short-row": "columns", "long-row": "columns", "float-index": "is not an integer",
        "negative-index": "outside the grid", "index-past-the-grid": "outside the grid",
        "index-at-int64-max": "outside the grid", "repeated-cell": "appears twice",
        "two-repeated-cells": "appears twice", "missing-row": "rows in", "extra-row": "rows in",
        "inf": "not a finite number", "-inf": "not a finite number", "nan": "not a finite number",
        "NaN": "not a finite number", "text-value": "is not a number", "index-beyond-int64": "int64",
    }

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_single_fault_names_the_file_line_and_rule(self, tmp_path, N, fault):
        rng = np.random.default_rng(100 * N + FAULTS.index(fault))
        g = LOADER_GRIDS[N]
        M = 1 + FAULTS.index(fault) % 4
        rows = [[respelled(t, rng) for t in row] for row in shuffled_rows(g, M, rng)]
        named = add_fault(fault, rows, g, rng)
        path = write_field(tmp_path / "f.csv", g, M, rows, rng)
        with pytest.raises(ValueError) as new:
            load_field_csv(path)
        message = str(new.value)
        assert str(path) in message and self.RULES[fault] in message, message
        if named is not None:
            assert message.startswith(f"line {line_of(path, rows[named])} of {path}"), message


SMALL_GRIDS = [
    Grid(box_min=[0.0], box_max=[1.0], resolution=[4]),
    Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[2, 3]),
    Grid(box_min=[0.0, 0.0, 0.0], box_max=[1.0, 1.0, 1.0], resolution=[2, 1, 2]),
]


class TestFieldLoaderGrammar:
    """The one grammar: what save_field_csv writes reads to the same bits; ASCII tokens only."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("M", [1, 3])
    def test_saved_files_read_to_the_same_bits(self, tmp_path, N, M):
        g = LOADER_GRIDS[N]
        values = np.random.default_rng(N + M).standard_normal((g.num_cells, M)) * 10.0 ** np.arange(-300, 300, 600 / M)
        f = make_field(g, values)
        save_field_csv(f, tmp_path / "f.csv")
        assert load_field_csv(tmp_path / "f.csv").values.tobytes() == f.values.tobytes()

    def test_a_crlf_file_reads_to_the_same_bits(self, tmp_path):
        g = LOADER_GRIDS[2]
        f = make_field(g, np.random.default_rng(5).standard_normal((g.num_cells, 2)))
        save_field_csv(f, tmp_path / "f.csv")
        text = (tmp_path / "f.csv").read_text()
        (tmp_path / "f.csv").write_bytes(text.replace("\n", "\r\n").encode())
        assert load_field_csv(tmp_path / "f.csv").values.tobytes() == f.values.tobytes()

    # numpy's reader alone would read the middle three: it strips U+001F and
    # U+000B as whitespace and reads U+01FE then "0" as the integer 4640;
    # it refuses U+0001 itself
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("spelling", ["1_0", "\u0661\u0660", "\x1f10", "\x0b10", "\u01fe0", "\x0110"])
    def test_a_token_outside_the_grammar_names_its_line(self, tmp_path, capsys, spelling, column):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[12])
        path = tmp_path / "f.csv"
        save_field_csv(make_field(g, np.arange(12.0)), path)
        lines = path.read_text().splitlines()
        assert lines[11] == "10,10"
        lines[11] = f"{spelling},10" if column == 0 else f"10,{spelling}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^line 12 of {re.escape(str(path))}"):
            load_field_csv(path)
        assert main(["norms", "--f", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"line 12 of {path}" in err
        assert not (tmp_path / "r.json").exists()

    def test_a_control_character_in_the_header_names_line_one(self, tmp_path):
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[4])
        path = tmp_path / "f.csv"
        save_field_csv(make_field(g, np.arange(4.0)), path)
        path.write_text("\n" + path.read_text().replace("i1,v1", "i1,\x01v1"))
        with pytest.raises(ValueError, match=f"^line 2 of {re.escape(str(path))}: character '\\\\x01'"):
            load_field_csv(path)

    @pytest.mark.parametrize("dim_M", [3, 10**15])
    def test_a_sidecar_wider_than_the_rows_gives_the_columns_message(self, tmp_path, dim_M):
        # the first row's width is checked before dim_M sizes the reader's row type
        g = Grid(box_min=[0.0], box_max=[1.0], resolution=[4])
        save_field_csv(make_field(g, np.arange(4.0)), tmp_path / "f.csv")
        side = tmp_path / "f.csv.json"
        side.write_text(side.read_text().replace('"dim_M": 1', f'"dim_M": {dim_M}'))
        with pytest.raises(ValueError, match=f"line 2 of .* has 2 columns; every row needs 1 index and {dim_M} value"):
            load_field_csv(tmp_path / "f.csv")

    @given(data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    def test_a_field_loads_exactly_when_no_refused_token_landed(self, tmp_path, data):
        g = data.draw(st.sampled_from(SMALL_GRIDS))
        M = data.draw(st.integers(1, 3))
        rows, values, refused = data.draw(token_rows(g, M))
        path = write_field(tmp_path / "f.csv", g, M, rows, np.random.default_rng(0))
        if refused:
            with pytest.raises(ValueError, match=f"^line [0-9]+ of {re.escape(str(path))}"):
                load_field_csv(path)
        else:
            loaded = load_field_csv(path).values
            for cell in range(g.num_cells):
                assert loaded[cell].tobytes() == values[cell].tobytes(), (cell, rows)
