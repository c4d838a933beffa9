"""Computations made apart from modlab, used to check its outputs.

Only numpy and math are used here; nothing calls into the program.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


def curve_pieces(vertices: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a polyline on the unit square at every cell face it crosses.

    Returns (cell index, piece length) per piece. Each piece lies inside one
    cell, so the midpoint rule on the pieces integrates a cell-constant field
    exactly; see ``line_integrals`` for the round-off bound.
    """
    h = 1.0 / res
    cells, lengths = [], []
    for p, q in zip(vertices[:-1], vertices[1:]):
        d = q - p
        seg = math.hypot(*d)
        if seg == 0.0:
            continue
        ts = [0.0, 1.0]
        for i in range(2):
            if d[i] == 0.0:
                continue
            lo, hi = sorted((p[i], q[i]))
            k = np.arange(math.floor(lo / h) + 1, math.ceil(hi / h))
            ts.extend(((k * h - p[i]) / d[i]).tolist())
        t = np.unique(np.clip(ts, 0.0, 1.0))
        mids = p + (0.5 * (t[:-1] + t[1:]))[:, None] * d
        ij = np.clip(np.floor(mids / h).astype(int), 0, res - 1)
        cells.append(ij[:, 0] * res + ij[:, 1])
        lengths.append(np.diff(t) * seg)
    return np.concatenate(cells), np.concatenate(lengths)


class LineIntegrals:
    """Line integrals of cell-constant densities along a fixed set of curves."""

    def __init__(self, curves: list, res: int):
        rows, cells, lengths = [], [], []
        for j, c in enumerate(curves):
            cj, lj = curve_pieces(c, res)
            rows.append(np.full(len(cj), j))
            cells.append(cj)
            lengths.append(lj)
        self.rows = np.concatenate(rows)
        self.cells = np.concatenate(cells)
        self.lengths = np.concatenate(lengths)
        self.count = len(curves)
        self.pieces = np.bincount(self.rows, minlength=self.count)

    def __call__(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrals and an upper bound on their absolute error.

        Splitting at cell faces leaves only round-off: each crossing
        parameter and each piece length carries a relative error of a few
        ulps, and a piece shorter than that error can land in a neighbouring
        cell. The stated bound, 64 eps (pieces + 1) * sum |len rho| plus the
        same multiple of the curve length times max rho, covers both.
        """
        terms = self.lengths * rho[self.cells]
        values = np.bincount(self.rows, weights=terms, minlength=self.count)
        mass = np.bincount(self.rows, weights=np.abs(terms), minlength=self.count)
        length = np.bincount(self.rows, weights=self.lengths, minlength=self.count)
        error = 64.0 * EPS * (self.pieces + 1) * (mass + length * float(np.max(np.abs(rho))))
        return values, error


def jacobian(values: np.ndarray, res: int) -> np.ndarray:
    """Central/one-sided differences (np.gradient), shape (cells, 2, M)."""
    cube = values.reshape(res, res, -1)
    h = 1.0 / res
    return np.stack([np.gradient(cube, h, axis=a).reshape(res * res, -1) for a in (0, 1)], axis=1)


def value_norm(v: np.ndarray, tag: str) -> np.ndarray:
    if tag == "l1":
        return np.sum(np.abs(v), axis=-1)
    if tag == "l2":
        return np.sqrt(np.sum(v * v, axis=-1))
    return np.max(np.abs(v), axis=-1)


def gstar(J: np.ndarray, tag: str) -> np.ndarray:
    """sup over the dual unit ball of |grad <v, f>|, per cell.

    l2: top singular value of each cell's Jacobian by SVD. linf: the best
    signed coordinate functional. l1: brute force over all 2^M sign vectors.
    """
    if tag == "l2":
        return np.linalg.svd(J, compute_uv=False)[:, 0]
    if tag == "linf":
        return np.max(np.sqrt(np.sum(J * J, axis=1)), axis=1)
    M = J.shape[2]
    best = np.zeros(J.shape[0])
    signs = np.array(np.meshgrid(*([[1.0, -1.0]] * M), indexing="ij")).reshape(M, -1)
    for lo in range(0, signs.shape[1], 64):
        d = np.einsum("cim,ms->cis", J, signs[:, lo : lo + 64])
        best = np.maximum(best, np.sqrt(np.sum(d * d, axis=1)).max(axis=1))
    return best


def lp(cell_values: np.ndarray, p: float, res: int) -> float:
    return float(np.sum(np.abs(cell_values) ** p) / (res * res)) ** (1.0 / p)


def norms(values: np.ndarray, tag: str, p: float, res: int) -> dict:
    """W and R norms of a field on the unit square, computed independently of modlab."""
    J = jacobian(values, res)
    f_lp = lp(value_norm(values, tag), p, res)
    grad_len = np.sqrt(np.sum(value_norm(J, tag) ** 2, axis=1))
    return {"w": f_lp + lp(grad_len, p, res), "r": f_lp + lp(gstar(J, tag), p, res)}


def bilinear(values: np.ndarray, res: int, point: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of cell-centred samples at an interior point."""
    cube = values.reshape(res, res, -1)
    u = point * res - 0.5
    i = np.clip(np.floor(u).astype(int), 0, res - 2)
    a, b = u - i
    return ((1 - a) * (1 - b) * cube[i[0], i[1]] + a * (1 - b) * cube[i[0] + 1, i[1]]
            + (1 - a) * b * cube[i[0], i[1] + 1] + a * b * cube[i[0] + 1, i[1] + 1])


def quotient_gap(t: float, h: float) -> tuple[int, float]:
    """Sup-norm gap between the sin-family quotients at h and h/2, by a plain sweep."""
    hp = h / 2.0
    M = math.ceil(10.0 / hp)
    gap = 0.0
    for n in range(1, M + 1):
        s0 = math.sin(n * t)
        a = (math.sin(n * (t + h)) - s0) / (n * h)
        b = (math.sin(n * (t + hp)) - s0) / (n * hp)
        gap = max(gap, abs(a - b))
    return M, gap


def adjacent_slope(M: int, res: int) -> float:
    """Largest slope between adjacent samples of (sin(nt)/n)_{n<=M}.

    A chord slope is an average of the adjacent slopes it spans, so this
    equals the largest chord slope over all sample pairs exactly.
    """
    dt = 1.0 / res
    t = [(i + 0.5) * dt for i in range(res)]
    best = 0.0
    for n in range(1, M + 1):
        s = [math.sin(n * x) / n for x in t]
        best = max(best, max(abs(b - a) / (y - x) for a, b, x, y in zip(s, s[1:], t, t[1:])))
    return best
