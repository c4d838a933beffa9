"""Vector-valued fields, their integral, and dual pairings.

Cell-constant fields are exactly the simple functions of the discrete
model, so the vector-valued integral is a volume-weighted sum. Bounded
functionals commute with it, and the norm of the integral never exceeds
the integral of the norm.
"""

import itertools

import numpy as np

from modlab import Grid, NormTag, VectorField, lp_norm, value_norm

grid = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[8, 8])
rng = np.random.default_rng(1)


def integral(f):
    """The integral of a simple function: the volume-weighted sum of its cell values."""
    return grid.cell_volume * np.sum(f.values, axis=0)


# A functional on R^3 is a coefficient vector v, paired with a field as f.values @ v.
# The extreme points of its dual unit ball: sign vectors against l1 values,
# signed coordinates against linf values.
extreme_points = {
    NormTag.L1: np.array(list(itertools.product((1.0, -1.0), repeat=3))),
    NormTag.LINF: np.concatenate([np.eye(3), -np.eye(3)]),
}

print("== value norms on R^3 ==")
v = np.array([3.0, -4.0, 1.0])
for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
    print(f"||(3,-4,1)||_{tag.value}: {value_norm(v, tag)}")

print()
print("== the integral of a simple function ==")
field = VectorField(grid=grid, values=rng.normal(size=(grid.num_cells, 3)), norm=NormTag.L2)
total = integral(field)
print(f"integral = {total}")
print(f"||integral|| = {value_norm(total, field.norm):.6f}"
      f" <= {lp_norm(field, 1.0):.6f} = integral of ||f||")

print()
print("== functionals commute with the integral ==")
# the l2 ball has no finite extreme set; draw two unit functionals instead
draws = np.random.default_rng(4).standard_normal((2, 3))
functionals = {
    NormTag.L1: extreme_points[NormTag.L1][:2],
    NormTag.L2: draws / value_norm(draws, NormTag.L2)[:, None],
    NormTag.LINF: extreme_points[NormTag.LINF][[0, 3]],
}
for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
    f = VectorField(grid=grid, values=rng.normal(size=(grid.num_cells, 3)), norm=tag)
    for v in functionals[tag]:
        lhs = float(np.dot(v, integral(f)))
        rhs = float(np.sum(f.values @ v) * grid.cell_volume)
        print(f"{tag.value}: <v*, int f> = {lhs:+.10f}   int <v*, f> = {rhs:+.10f}")

print()
print("== extreme points realize the dual pairing norm ==")
w = rng.normal(size=3)
for tag in (NormTag.L1, NormTag.LINF):
    sup = max(float(np.dot(v, w)) for v in extreme_points[tag])
    print(f"{tag.value}: sup over dual extreme points = {sup:.6f}, ||w|| = {value_norm(w, tag):.6f}")
