"""Weak derivatives verified by integration by parts, and the W-norm.

The checker never differentiates a rough field; it certifies a candidate
derivative by testing the integration-by-parts identity against a battery
of smooth compactly supported bumps. The Sobolev norm combines the L^p
norm of the field with the L^p norm of its gradient length.
"""

import numpy as np

from modlab import (
    Grid,
    NormTag,
    TestFunction,
    VectorField,
    finite_diff_gradient,
    ftc_along_curve_check,
    gradient_length,
    Polyline,
    w_norm,
    weak_derivative_check,
)

res = 256
grid = Grid(box_min=[0.0], box_max=[1.0], resolution=[res])
x = grid.cell_centers()[:, 0]

f = VectorField(grid=grid, values=(x**2)[:, None], norm=NormTag.L2)
true_derivative = VectorField(grid=grid, values=(2 * x)[:, None], norm=NormTag.L2)
wrong_candidate = VectorField(grid=grid, values=np.zeros((res, 1)), norm=NormTag.L2)

rng = np.random.default_rng(3)
bumps = [TestFunction(center=[rng.uniform(0.3, 0.7)], radius=rng.uniform(0.1, 0.25)) for _ in range(5)]

print("== certifying 2x as the weak derivative of x^2 ==")
report = weak_derivative_check(f, true_derivative, axis=0, tests=bumps, tol=5e-3)
for check in report.checks:
    print(f"  {check['name']}: residual={check['value']:.2e}  pass={check['pass']}")

print()
print("== the zero candidate fails every bump ==")
report = weak_derivative_check(f, wrong_candidate, axis=0, tests=bumps, tol=5e-3)
residuals = [f"{c['value']:.3f}" for c in report.checks]
print(f"  residuals: {residuals}  -> passed={report.passed}")

print()
print("== Sobolev norm of f(x) = x at p = 1 ==")
linear = VectorField(grid=grid, values=x[:, None], norm=NormTag.L2)
print(f"  ||f||_W = {w_norm(linear, 1.0):.10f}  (1/2 from the field, 1 from the unit slope)")

print()
print("== the fundamental theorem along a curve ==")
grid2 = Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[128, 128])
centers = grid2.cell_centers()
smooth = VectorField(
    grid=grid2,
    values=np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 1])], axis=-1),
    norm=NormTag.L2,
)
gradient = finite_diff_gradient(smooth)
diagonal = Polyline([[0.05, 0.05], [0.95, 0.95]])
report = ftc_along_curve_check(smooth, gradient, diagonal, tol=5e-3, num_params=4)
worst = max(c["value"] for c in report.checks if c["name"].startswith("ftc"))
print(f"  worst increment-vs-integral residual: {worst:.2e}  passed={report.passed}")
print(f"  gradient length at the center cell: {gradient_length(gradient, smooth.norm)[grid2.num_cells // 2]:.4f}")
