"""Independent oracles used to freeze expected values.

Everything here is deliberately written against the raw formulas (plain
loops, closed forms, brute-force sweeps) rather than through the library
paths it is used to check.
"""

import math

import numpy as np


def kkt_single_row(a: np.ndarray, w: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Closed-form optimum of min sum w rho^p s.t. a . rho >= 1, rho >= 0.

    Stationarity gives rho_c = (a_c / (p w_c))^(1/(p-1)) lam^(1/(p-1)) with
    the multiplier scaled so the single constraint is tight.
    """
    base = (a / (p * w)) ** (1.0 / (p - 1.0))
    lam_pow = 1.0 / float(np.dot(a, base))
    rho = base * lam_pow
    return rho, float(np.sum(w * rho**p))


def regular_polygon_length(k: int, radius: float = 1.0) -> float:
    """Perimeter of the regular k-gon inscribed in a circle."""
    return 2.0 * k * radius * math.sin(math.pi / k)


def brute_force_quotient_gap(t: float, h: float, hprime: float, M: int) -> float:
    """Sup-norm gap between sin-family difference quotients, plain-math sweep."""
    worst = 0.0
    for n in range(1, M + 1):
        a = (math.sin(n * (t + h)) - math.sin(n * t)) / (n * h)
        b = (math.sin(n * (t + hprime)) - math.sin(n * t)) / (n * hprime)
        worst = max(worst, abs(a - b))
    return worst


def midpoint_quadrature(fn, a: float, b: float, n: int = 4096) -> float:
    """Composite midpoint rule for a scalar function on [a, b]."""
    xs = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(fn(xs)) * (b - a) / n)


def dense_cell_length_rows(curves, g) -> np.ndarray:
    """Per-cell arc lengths of each curve, one dense row per curve.

    The per-segment algorithm written out with scalar loops: split each
    segment at every interior cell plane it crosses, give each piece to the
    cell holding its midpoint, and add the piece widths into the row in
    segment order. The float expressions are the library's, so the result
    is meant to match it bit for bit.
    """
    box_min = [float(x) for x in g.box_min]
    h = [float(x) for x in g.spacing]
    res = [int(r) for r in g.resolution]
    rows = np.zeros((len(curves), g.num_cells))
    for j, c in enumerate(curves):
        verts = c.vertices.tolist()
        for p, q in zip(verts[:-1], verts[1:]):
            d = [b - a for a, b in zip(p, q)]
            sq = 0.0
            for x in d:
                sq += x * x
            seg_len = math.sqrt(sq)
            if seg_len == 0.0:
                continue
            ts = []
            for i in range(len(d)):
                if d[i] == 0.0:
                    continue
                lo, hi = min(p[i], q[i]), max(p[i], q[i])
                kmin = max(1, math.floor((lo - box_min[i]) / h[i]) + 1)
                kmax = min(res[i] - 1, math.ceil((hi - box_min[i]) / h[i]) - 1)
                for k in range(kmin, kmax + 1):
                    t = (box_min[i] + k * h[i] - p[i]) / d[i]
                    if 0.0 < t < 1.0:
                        ts.append(t)
            ts = [0.0] + sorted(ts) + [1.0]
            for a, b in zip(ts[:-1], ts[1:]):
                frac = 0.5 * (a + b)
                flat = 0
                for i in range(len(d)):
                    idx = math.floor((p[i] + frac * d[i] - box_min[i]) / h[i])
                    flat = flat * res[i] + min(max(idx, 0), res[i] - 1)
                rows[j, flat] += (b - a) * seg_len
    return rows
