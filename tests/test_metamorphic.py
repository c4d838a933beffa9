"""Metamorphic oracles: exact invariants of the discrete modulus model.

Dilating the box [0,1]^2 and its curves by 2, at the same resolution, doubles
every arc length spent in a cell and quadruples every cell volume, both
exactly in binary floating point. The program for the image family is then
the original one with rows 2A and cell volume 4w, whose p-modulus is
2^(2-p) times the original: rho/2 is admissible for the image exactly when
rho is admissible for the original. These checks use neither the oracles
nor the solvers' own claims; the solved values are compared through their
certified gaps alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import CurveFamily, Grid, Polyline
from modlab.modulus import assemble_problem, solve_modulus

EPS = np.finfo(float).eps
UNIT = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[32, 32])
DOUBLED = Grid(box_min=[0.0, 0.0], box_max=[2.0, 2.0], resolution=[32, 32])

points = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
# curves shorter than a cell's width would only probe the solvers on huge moduli
polylines = (
    st.lists(points, min_size=2, max_size=4)
    .map(np.array)
    .filter(lambda c: np.sum(np.hypot(*np.diff(c, axis=0).T)) >= 1.0 / 32.0)
)
families = st.lists(polylines, min_size=1, max_size=5)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(curves=families)
def test_dilation_by_two_scales_rows_weights_and_modulus(curves):
    unit = CurveFamily([Polyline(c) for c in curves])
    doubled = CurveFamily([Polyline(2.0 * c) for c in curves])
    for p in (1.0, 1.5, 2.0, 3.0):
        small, big = assemble_problem(unit, UNIT, p), assemble_problem(doubled, DOUBLED, p)
        A, B = small.constraint_rows, big.constraint_rows
        assert np.array_equal(B.indptr, A.indptr) and np.array_equal(B.indices, A.indices)
        assert np.array_equal(B.data, 2.0 * A.data)
        assert big.grid.cell_volume == 4.0 * small.grid.cell_volume

        v, w = solve_modulus(small), solve_modulus(big)
        scale = 2.0 ** (2.0 - p)
        # Each certified value lies within its gap above the true modulus,
        # so the two sides differ by at most the gaps. The certificates are
        # float sums over exactly scaled data; at p = 1.5 and 3 the powers
        # round differently on the two sides, which moved the values by up
        # to 1.25 ulps of their sum over 60 random families, so 16 ulps are
        # allowed on top of the gaps.
        roundoff = 16.0 * EPS * (w.value + scale * v.value)
        slack = max(w.gap, 0.0) + scale * max(v.gap, 0.0) + roundoff
        assert abs(w.value - scale * v.value) <= slack, (p, w.value, v.value, w.gap, v.gap)
