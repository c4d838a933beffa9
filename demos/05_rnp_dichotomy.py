"""The dichotomy witness: bounded R-norms, divergent difference quotients.

The truncated family f(t) = (sin(nt)/n)_{n<=M} with sup-norm values is
1-Lipschitz for every truncation M, so its Reshetnyak norm stays uniformly
bounded. Its difference quotients, however, develop a persistent sup-norm
gap once M keeps pace with the step size: at desk scale this is the
signature of a Lipschitz curve with no derivative, which cannot happen in
a space with the Radon-Nikodym property. Freezing M (any finite dimension
has the property) makes the same gap vanish.
"""

import math

from modlab import dichotomy_report, lipschitz_certificate, noncauchy_gap, sin_family
from modlab.rnp_lab import dichotomy_gap_floor

t_star = 1.0 / math.sqrt(2.0)

print("== the family is 1-Lipschitz at every truncation ==")
for M in (1, 8, 64):
    report = lipschitz_certificate(sin_family(M, 1024))
    print(f"  M={M:3d}: certificate = {report.checks[0]['value']:.6f} (must stay <= 1)")

print()
print("== quotient gaps: truncation scaled with the step ==")
fixture = dichotomy_gap_floor()
for h in (1e-1, 1e-2, 1e-3):
    hp = h / 2.0
    M = math.ceil(10.0 / hp)
    gap = noncauchy_gap(M, t_star, h, hp)
    print(f"  h={h:g}: M={M} gap={gap:.4f} (floor recorded before the build: {fixture['c0']})")

print()
print("== quotient gaps: truncation frozen at M = 1 ==")
for h in (1e-3, 1e-4, 1e-5, 1e-6):
    gap = noncauchy_gap(1, t_star, h, h / 2.0)
    print(f"  h={h:g}: gap={gap:.2e} (vanishes linearly: one dimension has the property)")

print()
print("== the full ladder report ==")
report = dichotomy_report(t_star, [1e-1, 1e-2, 1e-3], resolution=256, gap_floor=fixture["c0"])
print(f"  columns: {report.series[0]['columns']}")
for row in report.series[0]["rows"]:
    print(f"  h={row[0]:<8g} M={int(row[2]):<7d} gap={row[3]:.4f} r_norm={row[4]:.6f}")
print(f"  verdict: {report.meta['verdict']}")
