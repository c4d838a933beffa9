import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from modlab import (
    Grid,
    NormTag,
    VectorField,
    dichotomy_report,
    lipschitz_certificate,
    noncauchy_gap,
    sin_family,
)
from modlab import rnp_lab
from modlab.rnp_lab import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_CAUCHY,
    VERDICT_RNP_LIKE,
    _sin_family_r_norms,
    dichotomy_gap_floor,
)
from modlab.reshetnyak import r_norm, upper_gradient_star
from modlab.vectorvalues import lp_norm
from oracles import brute_force_quotient_gap, midpoint_quadrature

T_STAR = 1.0 / math.sqrt(2.0)


def sampled_ranges(monkeypatch, fn, *args, **kwargs):
    """The (first, last) coordinate ranges that fn(*args, **kwargs) samples."""
    ranges = []
    real = rnp_lab._sin_samples

    def recorded(t, first, last):
        ranges.append((first, last))
        return real(t, first, last)

    monkeypatch.setattr(rnp_lab, "_sin_samples", recorded)
    fn(*args, **kwargs)
    monkeypatch.setattr(rnp_lab, "_sin_samples", real)
    return ranges


class TestSinFamily:
    def test_m1_is_plain_sine(self):
        f = sin_family(1, 64)
        t = f.grid.axis_centers(0)
        assert np.allclose(f.values[:, 0], np.sin(t))

    def test_values_vanish_toward_zero(self):
        f = sin_family(4, 256)
        assert np.all(np.abs(f.values[0]) < 0.02)

    def test_coordinate_bound_one_over_n(self):
        f = sin_family(32, 64)
        n = np.arange(1, 33)
        assert np.all(np.abs(f.values) <= 1.0 / n + 1e-15)

    def test_sup_norm_bounded_by_one(self):
        f = sin_family(16, 64)
        assert np.all(f.norms() <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sin_family(0, 64)
        with pytest.raises(ValueError):
            sin_family(4, 8)

    @pytest.mark.parametrize("M,resolution,named", [(2.5, 64, "M"), (True, 64, "M"), (4, 64.0, "resolution"), (4, True, "resolution")])
    def test_counts_must_be_integers(self, M, resolution, named):
        # 2.5 once kept 3 coordinates and True one
        with pytest.raises(ValueError, match=f"^{named} must be an integer >= "):
            sin_family(M, resolution)


class TestLipschitzCertificate:
    def test_upper_bound_holds_for_every_m(self):
        for M in (1, 4, 16):
            rep = lipschitz_certificate(sin_family(M, 256))
            cert = rep.checks[0]["value"]
            assert cert <= 1.0 + 1e-9
            assert rep.checks[0]["pass"]

    def test_m1_certificate_below_sup_of_cosine(self):
        rep = lipschitz_certificate(sin_family(1, 512))
        # mean-value bound: quotients of sin are cosines at midpoints
        assert rep.checks[0]["value"] <= 1.0

    def test_certificate_nearly_attained_for_m64(self):
        rep = lipschitz_certificate(sin_family(64, 4096))
        cert = rep.checks[0]["value"]
        # an explicit adjacent pair already gives a slope above 0.9
        t = (np.arange(4096) + 0.5) / 4096
        best = 0.0
        for i in np.argsort(np.abs(np.cos(64 * t)))[-5:]:
            if i + 1 < len(t):
                s = abs(math.sin(64 * t[i + 1]) - math.sin(64 * t[i])) / (64 * (t[i + 1] - t[i]))
                best = max(best, s)
        assert cert >= best >= 0.9
        assert rep.passed

    @pytest.mark.parametrize("M,res", [(1, 256), (16, 64), (8, 1024)])
    def test_adjacent_pairs_match_all_pairs_oracle(self, M, res):
        f = sin_family(M, res)
        t = f.grid.axis_centers(0)
        dt = np.abs(t[:, None] - t[None, :])
        np.fill_diagonal(dt, np.inf)
        s = f.values
        oracle = max(float(np.max(np.abs(s[:, None, n] - s[None, :, n]) * (1.0 / dt))) for n in range(M))
        assert lipschitz_certificate(f).checks[0]["value"] == oracle

    def test_field_on_a_2d_grid_rejected(self):
        g = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])
        f = VectorField(grid=g, values=np.zeros((256, 8)), norm=NormTag.LINF)
        with pytest.raises(ValueError, match="1-D grid, got 2-D"):
            lipschitz_certificate(f)


class TestQuotient:
    def test_m1_approaches_cosine(self):
        for h in (1e-2, 1e-4):
            dq = rnp_lab._quotient(1, 0.5, h)
            assert abs(dq[0] - math.cos(0.5)) < h

    def test_small_nh_close_to_cosine_coordinates(self):
        h = 1e-6
        dq = rnp_lab._quotient(8, 0.3, h)
        n = np.arange(1, 9)
        assert np.allclose(dq, np.cos(n * 0.3), atol=1e-4)

    def test_sup_norm_never_exceeds_one(self, rng):
        for _ in range(20):
            t = rng.uniform(0.05, 0.9)
            h = rng.uniform(1e-6, 0.05)
            dq = rnp_lab._quotient(128, t, h)
            assert np.max(np.abs(dq)) <= 1.0 + 1e-12


class TestQuotientGap:
    def test_blocks_match_the_one_shot_maximum(self):
        M = 2 * rnp_lab._BLOCK_SAMPLES + 5
        for h in (1e-2, 1e-5):
            one_shot = float(np.max(np.abs(rnp_lab._quotient(M, T_STAR, h) - rnp_lab._quotient(M, T_STAR, h / 2))))
            assert rnp_lab._quotient_gap(M, T_STAR, h, h / 2) == one_shot

    def test_memory_stays_bounded_at_a_million_coordinates(self):
        # arrays of length M peak near 40 MB here
        tracemalloc.start()
        try:
            rnp_lab._quotient_gap(10**6, T_STAR, 1e-5, 5e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestNonCauchyGap:
    def test_invalid_step_pairs(self):
        with pytest.raises(ValueError):
            noncauchy_gap(4, 0.5, 1e-2, 1e-2)
        with pytest.raises(ValueError):
            noncauchy_gap(4, 0.5, 1e-3, 1e-2)

    def test_window_validation(self):
        with pytest.raises(ValueError, match=r"need t and t\+h inside \(0, 1\)"):
            noncauchy_gap(4, 0.9, 0.2, 0.1)
        with pytest.raises(ValueError, match=r"need t and t\+h inside \(0, 1\)"):
            noncauchy_gap(4, 1.0, 1e-2, 5e-3)

    @pytest.mark.parametrize("M", [0, -3, 2.5, 4.0, True, "4", None, sin_family(4, 16)])
    def test_truncation_must_be_a_positive_integer(self, M):
        # M = 0 once reached an empty loop and returned a gap of 0.0
        with pytest.raises(ValueError, match=r"^M must be an integer >= 1, got [^\n]+$"):
            noncauchy_gap(M, T_STAR, 1e-2, 5e-3)

    def test_truncation_over_the_cap_refused(self, monkeypatch):
        # M = 10**30 once enumerated coordinates without end
        monkeypatch.setattr(rnp_lab, "_quotient_gap", None)  # never called
        with pytest.raises(ValueError, match=r"^M asks for 2.684e\+08 coordinates in one rung, over the cap of 268435456$"):
            noncauchy_gap(2**28 + 1, T_STAR, 1e-2, 5e-3)

    @pytest.mark.parametrize(
        "t,h,hprime", [(0.7, 1e-320, 5e-321), (0.5, 2.0**-53, 5e-324), (0.5, 2.0**-53, 0.9 * 2.0**-53)],
        ids=["t-plus-hprime-is-t", "hprime-below-the-spacing", "t-plus-hprime-is-t-plus-h"],
    )
    def test_steps_float64_cannot_resolve_refused(self, monkeypatch, t, h, hprime):
        # the first once returned a gap of 0.0
        monkeypatch.setattr(rnp_lab, "_quotient_gap", None)  # never called
        with pytest.raises(ValueError, match=rf"^the step h = {re.escape(repr(h))} is below float64's resolution at t = {t}: "):
            noncauchy_gap(10, t, h, hprime)

    def test_numpy_integer_truncation_accepted(self):
        assert noncauchy_gap(np.int64(40), T_STAR, 1e-2, 5e-3) == noncauchy_gap(40, T_STAR, 1e-2, 5e-3)

    def test_fixed_m_gap_vanishes_with_h(self):
        g_coarse = noncauchy_gap(1, T_STAR, 1e-3, 5e-4)
        g_fine = noncauchy_gap(1, T_STAR, 1e-6, 5e-7)
        assert g_fine <= 10.0 * g_coarse
        assert g_fine < g_coarse

    def test_scaled_m_gap_matches_brute_force_oracle(self):
        for h in (1e-1, 1e-2):
            hp = h / 2.0
            M = math.ceil(10.0 / hp)
            mine = noncauchy_gap(M, T_STAR, h, hp)
            oracle = brute_force_quotient_gap(T_STAR, h, hp, M)
            assert mine == pytest.approx(oracle, rel=1e-12)
            assert mine >= dichotomy_gap_floor()["c0"]


class TestSinFamilyRNorm:
    def test_chunked_path_matches_generic_machinery(self):
        M, res = 8, 64
        f = sin_family(M, res)
        lp_direct = lp_norm(f, 2.0)
        r_direct = r_norm(f, 2.0)
        [(lp_chunked, r_chunked)] = _sin_family_r_norms([M], res, 2.0)
        assert lp_chunked == pytest.approx(lp_direct, rel=1e-13)
        assert r_chunked == pytest.approx(r_direct, rel=1e-13)

    def test_lp_norm_matches_sine_quadrature(self):
        # ||f(t)||_inf = sin t on (0,1), so the l2 norm is that of sin
        [(lp, _)] = _sin_family_r_norms([64], 2048, 2.0)
        oracle = math.sqrt(midpoint_quadrature(lambda t: np.sin(t) ** 2, 0.0, 1.0, n=2048))
        assert lp == pytest.approx(oracle, rel=1e-12)

    def test_r_norm_uniformly_bounded_in_m(self):
        for lp, r in _sin_family_r_norms([8, 64, 512], 128, 2.0):
            assert r <= lp + 1.0 + 1e-6

    def test_unit_majorant_dominates_increments_along_segments(self):
        # the Lipschitz bound is the absolute-continuity inequality with g = 1
        from modlab import Polyline, ScalarField, ac_bound_check

        f = sin_family(32, 128)
        ones = ScalarField(grid=f.grid, values=np.ones(f.grid.num_cells))
        for a, b in [(0.05, 0.95), (0.2, 0.6), (0.47, 0.53)]:
            seg = Polyline([[a], [b]])
            assert ac_bound_check(f, ones, seg, tol=1e-3).passed

    @staticmethod
    def _whole_family_norms(Ms, res, p):
        return [(lp_norm(f, p), r_norm(f, p)) for f in (sin_family(M, res) for M in Ms)]

    @pytest.mark.parametrize("M,res", [(200, 16), (5000, 64), (20000, 128)])
    def test_cut_at_four_resolution_coordinates_is_exact(self, M, res):
        # every rung here samples fewer than M coordinates, alone or as the
        # last rung of a ladder; the dropped tail must not move a single bit
        # of either norm
        ladder = [3, 4 * res, M]
        for p in (1.0, 1.5, 2.0, 3.0):
            assert _sin_family_r_norms([M], res, p) == self._whole_family_norms([M], res, p)
            assert _sin_family_r_norms(ladder, res, p) == self._whole_family_norms(ladder, res, p)

    @pytest.mark.parametrize("res", [16, 17, 64, 100, 128, 300])
    def test_blocked_enumeration_is_bit_identical(self, res):
        # M on both sides of the first block boundaries, where the sinc
        # envelope stops the enumeration at these resolutions, and of the
        # block boundary at or past 2 * res coordinates
        block = min(rnp_lab._BLOCK_SAMPLES // res, 4 * res)
        stop = block * math.ceil(2 * res / block)
        Ms = sorted({1, block - 1, block, block + 1, 2 * block + 1, stop - 1, stop, stop + 1})
        for p in (1.0, 1.5, 2.0, 3.0):
            whole = self._whole_family_norms(Ms, res, p)
            for M, norms in zip(Ms, whole):
                assert _sin_family_r_norms([M], res, p) == [norms], (M, p)
            # the same rungs as one ladder, blocks ending at each M
            assert _sin_family_r_norms(Ms, res, p) == whole, p

    @staticmethod
    def _blocks_sampled(monkeypatch, M, res):
        return [last for _, last in sampled_ranges(monkeypatch, _sin_family_r_norms, [M], res, 2.0)]

    def test_enumeration_stops_after_one_block(self, monkeypatch):
        # the sinc envelope proves every maximum final after the first 128
        # coordinates; the 1/n bound needed 1024
        lasts = self._blocks_sampled(monkeypatch, 20000, 512)
        assert lasts == [rnp_lab._BLOCK_SAMPLES // 512]
        assert lasts[-1] <= 4 * 512
        assert max(b - a for a, b in zip([0] + lasts, lasts)) * 512 <= rnp_lab._BLOCK_SAMPLES

    def test_low_resolution_samples_four_resolution_coordinates(self, monkeypatch):
        # a first block of _BLOCK_SAMPLES // 16 = 4096 coordinates sampled 64
        # times more than the sinc stop needs at resolution 16
        assert self._blocks_sampled(monkeypatch, 20000, 16) == [4 * 16]
        assert self._blocks_sampled(monkeypatch, 50, 16) == [50]

    @pytest.mark.parametrize("res", [512, 1000, 1024])
    def test_bit_identical_around_the_sinc_stop(self, monkeypatch, res):
        stop = self._blocks_sampled(monkeypatch, 4 * res, res)[-1]
        assert stop < 2 * res
        Ms = [stop - 1, stop, stop + 1, 4 * res]
        for p in (1.0, 2.0, 3.0):
            whole = self._whole_family_norms(Ms, res, p)
            for M, norms in zip(Ms, whole):
                assert _sin_family_r_norms([M], res, p) == [norms], (M, p)
            assert _sin_family_r_norms(Ms, res, p) == whole, p

    @pytest.mark.parametrize("res,done", [(16, 40), (100, 60), (512, 128), (1000, 130), (2048, 96)])
    def test_tail_bounds_hold_for_every_later_coordinate(self, res, done):
        # the computed values and g* of coordinates done+1 .. done+4*res,
        # taken through the same path as the R column, stay within the
        # per-cell bounds, and the right end cell needs its sinc(nh/2) bound
        grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[res])
        t, h = grid.axis_centers(0), grid.spacing[0]
        f = VectorField(grid=grid, values=rnp_lab._sin_samples(t, done + 1, done + 4 * res), norm=NormTag.LINF)
        value, stencil = rnp_lab._tail_bounds(done, t, h)
        assert np.all(f.norms() <= value)
        gstar = upper_gradient_star(f).gstar.values
        assert np.all(gstar <= stencil)
        assert gstar[-1] > stencil[1]

    def test_sinc_envelope_bounds_sinc_beyond_its_argument(self):
        # B(x) >= |sin y / y| for every y >= x on a dense grid reaching far
        # past pi, with room for B's own roundoff, and B(x) <= 1/x
        x = np.linspace(1e-3, 40.0, 200001)
        env = rnp_lab._sinc_envelope(x)
        sup_beyond = np.maximum.accumulate(np.abs(np.sin(x) / x)[::-1])[::-1]
        assert np.all(env * (1.0 + 8.0 * np.finfo(float).eps) >= sup_beyond)
        assert np.all(env <= 1.0 / x)
        assert np.all(np.diff(env) <= 0.0)

    @pytest.mark.parametrize("Ms", [[20000], [200, 2000, 20000, 200000]])
    def test_memory_stays_bounded_at_fine_resolution(self, Ms):
        # sampling all 4 * 1024 coordinates at once peaks near 96 MB
        tracemalloc.start()
        try:
            _sin_family_r_norms(Ms, 1024, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("res", [16, 17, 64, 128, 256, 512, 1000, 1024, 4096, 2**16, 2**17])
    def test_first_coordinate_beats_the_bounds_past_four_resolution(self, res):
        # so the stop comes by the first block end at or past 4 * res,
        # whatever the blocks are
        grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[res])
        t, h = grid.axis_centers(0), grid.spacing[0]
        f = VectorField(grid=grid, values=rnp_lab._sin_samples(t, 1, 1), norm=NormTag.LINF)
        value, stencil = rnp_lab._tail_bounds(4 * res, t, h)
        assert np.all(f.norms() >= value)
        assert np.all(upper_gradient_star(f).gstar.values >= stencil)


class TestDichotomyReport:
    @pytest.mark.parametrize("ladder", [["0.1"], [0.1, "0.01"], [True], [0.1, None], "0.1"],
                             ids=["string", "string-rung", "bool", "none", "bare-string"])
    def test_steps_that_are_not_numbers_refused(self, ladder):
        # the ladder once ran from strings parsed through float()
        with pytest.raises(ValueError, match="^h_ladder must hold finite numbers only"):
            dichotomy_report(T_STAR, ladder, resolution=64)

    # the RNP-like verdict needs the last gap at most 0.1 times the first:
    # these two ladders put the ratio at 0.102 and at 0.0969
    @pytest.mark.parametrize("ladder,gaps,verdict", [
        ([0.1, 0.01], [0.12235896063627538, 0.012486243798124352], VERDICT_INCONCLUSIVE),
        ([0.1, 0.0095], [0.12235896063627538, 0.011861303058647327], VERDICT_RNP_LIKE),
    ])
    def test_rnp_like_threshold_is_a_tenth_of_the_first_gap(self, ladder, gaps, verdict):
        rep = dichotomy_report(t=0.3, h_ladder=ladder, fixed_M=5, resolution=64)
        assert [row[3] for row in rep.series[0]["rows"]] == pytest.approx(gaps, rel=1e-9)
        assert rep.meta["verdict"] == verdict

    def test_growing_m_ladder_witnesses_failure(self):
        fixture = dichotomy_gap_floor()
        rep = dichotomy_report(T_STAR, [1e-1, 1e-2], resolution=128, gap_floor=fixture["c0"])
        assert rep.meta["verdict"] == VERDICT_NON_CAUCHY
        assert rep.passed
        rows = rep.series[0]["rows"]
        assert [row[2] for row in rows] == [200.0, 2000.0]

    @pytest.mark.parametrize("resolution", [128, 512])
    @pytest.mark.parametrize("ladder,fixed_M", [([1e-1, 1e-2, 1e-3, 1e-4], None), ([1e-2, 1e-3, 1e-4], 3)])
    def test_ladder_is_one_enumeration(self, monkeypatch, resolution, ladder, fixed_M):
        # the rungs' R column samples each coordinate once, in ascending
        # contiguous blocks, and every row is the single-rung report's
        def rows(steps):
            return dichotomy_report(T_STAR, steps, resolution=resolution, fixed_M=fixed_M).series[0]["rows"]

        ranges = sampled_ranges(monkeypatch, rows, ladder)
        assert [first for first, _ in ranges] == [1] + [last + 1 for _, last in ranges[:-1]]
        assert all(first <= last for first, last in ranges)
        # the checks and the verdict are computed from the rows alone
        assert json.dumps(rows(ladder)) == json.dumps([rows([h])[0] for h in ladder])

    @pytest.mark.parametrize("fixed_M", [0, -3, 2.5, 3.0, True, "3", math.nan])
    def test_fixed_truncation_must_be_a_positive_integer(self, monkeypatch, fixed_M):
        # 2.5 and 3.0 once reached range() as a TypeError, and True passed as 1
        def unreachable(*args, **kwargs):
            raise AssertionError("a rung was computed")

        monkeypatch.setattr(rnp_lab, "_quotient_gap", unreachable)
        with pytest.raises(ValueError, match=r"^fixed_M must be an integer >= 1, got [^\n]+$"):
            dichotomy_report(T_STAR, [1e-2, 1e-3], resolution=128, fixed_M=fixed_M)

    @pytest.mark.parametrize("ladder", [[1e-1, 1e-320], [1e-1, 5e-324], [1e-1, 1e-300], [1e-1, math.nextafter(20.0 / 2**28, 0.0)]])
    def test_steps_over_the_coordinate_cap_refused_before_any_rung(self, monkeypatch, ladder):
        # h / 2 = 0 once raised ZeroDivisionError, 10 / (h / 2) = inf an
        # OverflowError, and M ~ 2e301 enumerated without end
        monkeypatch.setattr(rnp_lab, "_quotient_gap", None)  # never called
        with pytest.raises(ValueError, match=rf"^the step h = {re.escape(repr(ladder[-1]))} asks for \S+ coordinates in one rung, over the cap of 268435456$"):
            dichotomy_report(0.7, ladder)

    @pytest.mark.parametrize("ladder", [[1e-1, 5e-324], [1e-1, 1e-320]], ids=["half-rounds-to-0", "t-plus-half-is-t"])
    def test_fixed_m_steps_float64_cannot_resolve_refused_before_any_rung(self, monkeypatch, ladder):
        # both once read "RNP-like: quotients converge", the first after a NaN warning
        monkeypatch.setattr(rnp_lab, "_quotient_gap", None)  # never called
        with pytest.raises(ValueError, match=rf"^the step h = {re.escape(repr(ladder[-1]))} is below float64's resolution"):
            dichotomy_report(0.7, ladder, resolution=64, fixed_M=10)

    def test_finest_step_under_the_cap_keeps_its_truncation(self, monkeypatch):
        # ceil(10 / (h / 2)) = 2^28 exactly: the rule passes it and M is unchanged
        monkeypatch.setattr(rnp_lab, "_quotient_gap", lambda M, t, h, hprime: float(M))
        monkeypatch.setattr(rnp_lab, "_sin_family_r_norms", lambda Ms, resolution, p: [(1.0, 1.5)] * len(Ms))
        rows = dichotomy_report(0.7, [1e-1, 20.0 / 2**28]).series[0]["rows"]
        assert [row[2] for row in rows] == [200.0, 2.0**28]

    def test_numpy_integer_fixed_truncation_accepted(self):
        rep = dichotomy_report(T_STAR, [1e-2, 1e-3], resolution=128, fixed_M=np.int64(3))
        assert json.dumps(rep.series[0]["rows"]) == json.dumps(
            dichotomy_report(T_STAR, [1e-2, 1e-3], resolution=128, fixed_M=3).series[0]["rows"]
        )
        assert type(rep.meta["fixed_M"]) is int

    def test_window_checked_before_any_coordinate_is_sampled(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a coordinate was sampled")

        monkeypatch.setattr(rnp_lab, "_sin_samples", unreachable)
        with pytest.raises(ValueError, match=r"need t and t\+h inside \(0, 1\)"):
            dichotomy_report(0.95, [1e-1, 1e-2], resolution=128)

    def test_fixed_m1_ladder_converges(self):
        rep = dichotomy_report(T_STAR, [1e-2, 1e-3, 1e-4], resolution=128, fixed_M=1)
        assert rep.meta["verdict"] == VERDICT_RNP_LIKE

    @pytest.mark.parametrize("resolution", [15, 0, -3, 64.0])
    def test_small_resolution_rejected_by_name(self, resolution):
        with pytest.raises(ValueError, match=f"resolution must be an integer >= 16, got {resolution}"):
            dichotomy_report(T_STAR, [1e-1], resolution=resolution)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            dichotomy_report(T_STAR, [], resolution=128)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("ladder", [[], [1e-1]])
    def test_exponent_rejected_before_any_rung(self, monkeypatch, ladder, p):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rung was computed")

        monkeypatch.setattr(rnp_lab, "_quotient_gap", unreachable)
        with pytest.raises(ValueError, match="exponent"):
            dichotomy_report(T_STAR, ladder, p=p, resolution=128)

    def test_non_decreasing_ladder_rejected(self):
        with pytest.raises(ValueError):
            dichotomy_report(T_STAR, [1e-2, 1e-2], resolution=128)

    def test_fixture_records_match_oracle_recomputation(self):
        fixture = dichotomy_gap_floor()
        # spot-check the first recorded rung against the plain-math sweep
        h = fixture["ladder"][0]
        M = fixture["rung_M"][0]
        gap = brute_force_quotient_gap(fixture["t"], h, h / 2.0, M)
        assert gap == pytest.approx(fixture["measured_gaps"][0], rel=1e-12)
        assert fixture["c0"] <= min(fixture["measured_gaps"])
