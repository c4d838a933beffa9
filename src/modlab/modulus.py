"""Discrete p-modulus of finite curve families as a convex program.

The problem is  minimize w sum_c rho_c^p  subject to  A rho >= 1, rho >= 0,
with one constraint row per curve (arc length spent in each cell) and w the
grid's Lebesgue cell volume, the same for every cell. Every p >= 1 is solved
by one primal-dual interior-point method; at p = 1 the program is linear.
The result carries certificates that do not rely on the solver's own
claims: the density is rescaled to exact feasibility, and its gap to the
Lagrange dual bound at the solver's multipliers bounds the distance to the
optimum.

scipy is imported where it is used: scipy.sparse loads on the first
assembly, through ``cell_length_rows``, and scipy.linalg on the first solve,
so importing modlab loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ScheduleError, overflow_as_value_error, require_count, require_exponent, require_reals, require_tolerance
from .geometry import CurveFamily, Grid, ScalarField, cell_length_rows
from .vectorvalues import scalar_lp_norm

if TYPE_CHECKING:
    import scipy.sparse as sp

# Relative raise of the normal matrix's diagonal after a failed Cholesky
# factorization. Duplicate curves make duplicate rows, and near the optimum
# their block is singular but for roundoff; a larger raise stalls p = 1
# solves short of a 1e-10 gap.
RIDGE = 1e-14

# Stall rule: within 10^3 of the certificate gate, a step whose complementarity fell by less
# than STALL_FACTOR (converging solves: at most 0.73) arms it. Armed, every step is certified,
# and the best certificate returns after STALL_PATIENCE steps without a smaller gap.
STALL_FACTOR = 0.9
STALL_PATIENCE = 30

# Pairs one block of ``_pair_index``'s build starts at most: its temporaries
# stay in cache and are a small fraction of the operator it writes.
_PAIR_BLOCK = 2**13


@dataclass
class ModulusProblem:
    """Constraint rows and exponent of one modulus program on a grid, whose
    cell volume weighs every cell."""

    constraint_rows: sp.csr_matrix
    exponent: float
    grid: Grid

    def __post_init__(self):
        require_exponent(self.exponent)
        A = self.constraint_rows
        if A.shape[1] != self.grid.num_cells:
            raise ValueError(f"constraint rows have {A.shape[1]} columns, the grid {self.grid.num_cells} cells")
        if A.data.size and np.min(A.data) < 0.0:
            raise ValueError("constraint rows must be nonnegative")
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        if np.any(np.bincount(rows, weights=A.data, minlength=A.shape[0]) <= 0.0):
            raise ValueError("every constraint row needs positive sum (nonconstant curve)")

    @property
    def num_curves(self) -> int:
        return self.constraint_rows.shape[0]


@dataclass
class ModulusResult:
    value: float
    rho_star: ScalarField
    max_constraint_violation: float
    iterations: int
    converged: bool
    gap: float
    dual_value: float
    diagnostics: dict = field(default_factory=dict)


def assemble_problem(fam: CurveFamily, g: Grid, p: float) -> ModulusProblem:
    """Build the modulus program of a family on a grid.

    The constraint matrix A comes from one ``cell_length_rows`` pass over the
    whole family: row j holds the arc length curve j spends in each cell. A
    density rho is admissible for the family exactly when A rho >= 1
    componentwise, and row j times rho is ``curve_integral(rho, curve j)``.
    """
    require_exponent(p)
    return ModulusProblem(constraint_rows=cell_length_rows(fam.curves, g), exponent=p, grid=g)


# No modlab code calls these two wrappers any more. They stay because the
# benchmark's tracer (benchmarks/spans.py) wraps them by name.
def linprog(c, A_ub, b_ub, bounds, method):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(c=c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


def minimize(fun, x0, jac, method, bounds, options):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize

    return minimize(fun, x0, jac=jac, method=method, bounds=bounds, options=options)


def _dual_rho(s: np.ndarray, w: float, p: float) -> np.ndarray:
    # stationarity of the Lagrangian: p w rho^(p-1) = A^T lambda
    base = np.maximum(s, 0.0) / (p * w)
    return base ** (1.0 / (p - 1.0))


def _dual_bound(lam: np.ndarray, atl: np.ndarray, w: float, p: float) -> float:
    """The Lagrange dual bound at multipliers lam >= 0, with atl = A^T lam and
    cell volume w.

    It bounds the modulus from below whatever lam is. At p = 1 the linear
    program's dual asks for A^T lam <= w, so lam is first scaled onto it.
    """
    if p == 1.0:
        return float(np.sum(lam)) / float(np.max(atl / w))
    return float(np.sum(lam)) - (p - 1.0) * float(np.sum(w * _dual_rho(atl, w, p) ** p))


def _certify(A, w, p, rho_raw, dual_value, tol):
    """Rescale to exact feasibility; the density, value, violation and gap, and
    whether both certificates meet ``tol``. None when a margin is zero."""
    m = float(np.min(A @ rho_raw))
    if m <= 0.0:
        return None
    rho = rho_raw / m
    value = float(np.sum(w * rho**p))
    violation = max(0.0, 1.0 - float(np.min(A @ rho)))
    gap = value - dual_value
    return rho, value, violation, gap, gap <= tol * (1.0 + value) and violation <= tol


def _pair_index(C: sp.csc_matrix) -> sp.csc_matrix:
    """The pair operator P of C: C diag(d) C^T's entries i <= j are P @ d.

    Column c of P holds one entry per pair of entries i <= j of C's column
    c, at row j m + i and with value C[i, c] C[j, c], so P has shape
    (m^2, n) and sum_c k_c (k_c + 1) / 2 entries, k_c the entries of
    column c. P @ d read as an m x m Fortran-order array has the upper
    triangle of C diag(d) C^T and zeros below it. Entry e of C starts the
    pairs with itself and with each entry below it in its column, so the
    pairs' first factors are C's data and rows each repeated that many
    times, and only their second factors need a gather.

    The build writes P's data and row indices into arrays of P's final
    size, one block of C's entries at a time, each block starting at most
    ``_PAIR_BLOCK`` pairs (or one entry's pairs, if more). So it holds P,
    one block's temporaries and a few arrays with one entry per entry of
    C. The indices are int32 while the m^2 rows and P's entry count fit in
    it, int64 otherwise, and j m + i is computed in that dtype.
    """
    import scipy.sparse as sp

    m = C.shape[0]
    r, v = C.indices, C.data
    k = np.diff(C.indptr)
    later = np.repeat(C.indptr[1:], k) - np.arange(r.size)  # entries at or below each one in its column
    starts = np.concatenate([[0], np.cumsum(later)])  # entry e's pairs are starts[e]:starts[e + 1]
    nnz = int(starts[-1])
    index = np.int32 if max(m * m, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = starts[C.indptr].astype(index)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    e0 = 0
    while e0 < r.size:
        e1 = max(int(np.searchsorted(starts, starts[e0] + _PAIR_BLOCK, side="right")) - 1, e0 + 1)
        pairs, count = slice(starts[e0], starts[e1]), later[e0:e1]
        # second[j] = e + (j - start of e's pairs), for the entry e that pair j starts from
        second = np.repeat(np.arange(e0, e1) - (starts[e0:e1] - starts[e0]), count)
        second += np.arange(starts[e1] - starts[e0])
        np.multiply(np.repeat(v[e0:e1], count), v[second], out=data[pairs])
        rows = indices[pairs]
        rows[:] = r[second]
        rows *= m
        rows += np.repeat(r[e0:e1], count)
        e0 = e1
    return sp.csc_matrix((data, indices, indptr), shape=(m * m, C.shape[1]))


def _step(v: np.ndarray, dv: np.ndarray) -> float:
    """The largest step in (0, 1] that keeps v + step dv >= 0, for v > 0."""
    with np.errstate(over="ignore"):
        q = float(np.min(dv / v))
    return 1.0 if q >= -1.0 else -1.0 / q


def _interior_point(prob: ModulusProblem, tol: float, max_iter: int):
    """Mehrotra predictor-corrector for  min w sum rho^p  s.t.  A rho - s = 1, (rho, s) >= 0.

    x = (rho, s) and its complement y = (z, lam) are the two halves of one
    array, and a step's (dx, dy) the halves of another, so complementarity
    is one product, and the final step length and update are one ``_step``
    and one ``+=``: the step map is nondecreasing in min(dv / v), so its
    minimum over both halves is the step of their joint minimum. Each step
    solves the normal system (A D A^T + diag(s/lam)) dlam = r, with
    D = (hessian + z/rho)^-1 and a zero hessian at p = 1, by one Cholesky
    factorization of an m x m matrix, m the number of curves. That matrix's
    A D A^T part is one sparse product P @ d, d the diagonal of D and P
    the pair operator of ``_pair_index``, built once per solve; LAPACK's
    potrf factors it in place and potrs solves with the factor. The last
    step's matrix is freed before the next is built, so a step holds P, one
    m x m matrix and arrays of size m + n. Once the complementarity x.y falls
    below ``tol`` times the energy, and on every step once the stall rule has
    armed, ``_certify`` certifies the iterate on the whole grid. After a
    failed factorization the diagonal is raised by ``RIDGE`` for the rest of
    the solve; a second failure ends it, and so does a step whose arithmetic
    divides by zero or leaves float64's range, as it does once roundoff has
    set a coordinate to zero at a tolerance below reach. Returns a certificate
    (None at a zero margin), its dual bound, the steps and the diagnostics:
    the certificate that met ``tol``, else the best one an armed solve kept,
    else the last iterate's, made once after the loop.
    """
    import scipy.sparse as sp
    from scipy.linalg import get_lapack_funcs

    A0, p = prob.constraint_rows, prob.exponent
    m = A0.shape[0]
    # a cell that no curve crosses has rho = 0 at the optimum: drop it
    crossed = np.zeros(A0.shape[1], dtype=bool)
    crossed[A0.indices] = True
    used = np.flatnonzero(crossed)
    n = used.size
    column = np.empty(A0.shape[1], dtype=np.intp)
    column[used] = np.arange(n)
    A = sp.csr_matrix((A0.data, column[A0.indices], A0.indptr), shape=(m, n))

    def raw(r):  # the density on every cell, which every certificate is made from
        out = np.zeros(A0.shape[1])
        out[used] = r
        return out
    # A^T as a CSC view: its product adds each cell's terms in row order, as
    # the CSR transpose of A.tocsc() does, and is faster with few rows
    At = A.T
    P = _pair_index(A.tocsc())
    w = prob.grid.cell_volume
    pw = p * w
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)

    v, dv = np.empty(2 * (n + m)), np.empty(2 * (n + m))
    x, y, dx, dy = v[: n + m], v[n + m :], dv[: n + m], dv[n + m :]
    rho, s, z, lam = x[:n], x[n:], y[:n], y[n:]
    drho, ds, dz, dlam = dx[:n], dx[n:], dy[:n], dy[n:]
    rho[:] = 2.0 / float(np.median(A @ np.ones(n)))
    s[:] = np.maximum(A @ rho - 1.0, 1.0)
    g = pw * rho ** (p - 1.0)
    lam[:] = 0.5 * float(np.mean(g)) / float(np.mean(A.data))
    z[:] = np.maximum(g - At @ lam, 0.5 * float(np.mean(g)))

    def direction(rc):
        # the Newton step that moves the complementarity x y by -rc, written
        # into dv from this step's residuals, d, h and factor; ds and dz come
        # from the linear equations, so that the step shrinks both residuals
        # by exactly its length
        r = rd + rc[:n] / rho
        dlam[:], info = potrs(factor, A @ (d * r) - rp - rc[n:] / lam, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        atdl = At @ dlam
        drho[:] = d * (atdl - r)
        ds[:] = A @ drho + rp
        dz[:] = rd + h * drho - atdl

    it, ridge, hit = 0, 0.0, False
    prev, armed, best, stale = np.inf, False, None, 0  # best: (certificate, dual bound, step)
    while True:
        g = pw * rho ** (p - 1.0)  # gradient of the energy
        atl = At @ lam
        rd = g - atl - z
        rp = A @ rho - s - 1.0
        xy = x * y
        comp = float(np.sum(xy))
        gate = tol * float(rho @ g) / p
        armed = armed or STALL_FACTOR * prev < comp <= 1e3 * gate
        if comp <= gate or armed:
            dual = _dual_bound(lam, atl, w, p)
            cert = _certify(A0, w, p, raw(rho), dual, tol)
            if cert is not None and cert[-1]:
                message, best = "certificates met", (cert, dual, it)
                break
            if armed and cert is not None and (best is None or cert[3] < best[0][3]):
                best, stale = (cert, dual, it), 0
            elif best is not None and (stale := stale + 1) >= STALL_PATIENCE:
                message = f"certified gap stalled at {best[0][3]:.3g} since step {best[2]}"
                break
        if it == max_iter:
            message, hit = f"stopped at max_iter={max_iter}", True
            break
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                h = (p - 1.0) * g / rho  # hessian of the energy
                d = 1.0 / (h + z / rho)
                K = diag = factor = None  # free the last step's matrix before P @ d builds this one
                K = P @ d
                diag = K[:: m + 1]
                diag *= 1.0 + ridge
                diag += s / lam
                # the upper triangle of K read in Fortran order, factored in place
                factor, info = potrf(K.reshape(m, m).T, lower=False, overwrite_a=True, clean=False)
                if info < 0:
                    raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
                if info > 0:
                    if ridge == 0.0:
                        ridge = RIDGE
                        continue
                    message = f"factorization failed: {info}-th leading minor of the array is not positive definite"
                    break

                direction(xy)  # predictor
                mu = comp / x.size
                mu_aff = float(np.dot(x + _step(x, dx) * dx, y + _step(y, dy) * dy)) / x.size
                direction(xy + dx * dy - (mu_aff / mu) ** 3 * mu)  # corrector
                step = 0.99 * _step(v, dv)
        except FloatingPointError as exc:
            # roundoff left a coordinate at zero, or a quotient past float64's range
            message = f"step {it + 1} stopped in float64 arithmetic: {exc}"
            break
        v += step * dv
        prev = comp
        it += 1
    if best is None:  # a stop with no certificate kept: the last iterate's
        dual = _dual_bound(lam, atl, w, p)
        best = _certify(A0, w, p, raw(rho), dual, tol), dual, it
    diagnostics = {"message": message, "solver": "primal-dual-ipm", "max_iter_hit": hit, "certificate_step": best[2]}
    return best[0], best[1], it, diagnostics


def solve_modulus(prob: ModulusProblem, tol: float = 1e-8, max_iter: int = 2000) -> ModulusResult:
    """Solve one modulus program with feasibility and duality-gap certificates.

    The returned density is feasible (constraints rescaled to hold exactly),
    and ``gap`` bounds the objective's distance to the optimum by weak duality;
    ``converged`` records whether both certificates meet ``tol``. A modulus
    program is never infeasible: large densities are admissible. Every p >= 1
    is solved by one primal-dual interior-point method, whose one certificate
    is returned as computed. ``max_iter`` caps its steps; ``diagnostics``
    names the ``solver`` that ran, whether it stopped at ``max_iter``
    (``max_iter_hit``) and the certificate's step (``certificate_step``).
    """
    require_tolerance(tol)
    max_iter = require_count(max_iter, "max_iter", 0)
    zero = ScalarField(grid=prob.grid, values=np.zeros(prob.grid.num_cells))
    if prob.num_curves == 0:
        return ModulusResult(
            value=0.0, rho_star=zero, max_constraint_violation=0.0,
            iterations=0, converged=True, gap=0.0, dual_value=0.0,
            diagnostics={"solver": "none", "max_iter_hit": False},
        )
    # rho^(p-1) and rho^p leave float64's range at a large enough p
    with overflow_as_value_error(f"the energy rho^p at the exponent p = {prob.exponent!r} overflows float64"):
        cert, dual_value, iterations, diagnostics = _interior_point(prob, tol, max_iter)
    if cert is None:
        # a result that certifies nothing: zero density, infinite violation and gap
        return ModulusResult(
            value=float("nan"), rho_star=zero, max_constraint_violation=float("inf"),
            iterations=iterations, converged=False, gap=float("inf"), dual_value=dual_value,
            diagnostics=dict(diagnostics, message="the raw density left a constraint at zero"),
        )
    rho, value, violation, gap, converged = cert
    return ModulusResult(
        value=value, rho_star=ScalarField(grid=prob.grid, values=rho), max_constraint_violation=violation,
        iterations=iterations, converged=converged, gap=gap, dual_value=dual_value, diagnostics=diagnostics,
    )


def analytic_parallel_segments(measure_E: float, seg_length: float, p: float) -> float:
    """Modulus of the family of parallel segments of fixed length through E.

    For segments of length L orthogonal to a hyperplane piece of
    (N-1)-measure |E| the modulus equals |E| / L^p; in particular it vanishes
    exactly when E is null.
    """
    (measure_E,) = require_reals([measure_E], "the measure")
    (seg_length,) = require_reals([seg_length], "the segment length")
    if seg_length <= 0.0:
        raise ValueError("segment length must be positive")
    if measure_E < 0.0:
        raise ValueError("measure must be nonnegative")
    require_exponent(p)
    return measure_E / seg_length**p


def chebyshev_bound_from_norm(norm_p: float, eps: float, p: float) -> float:
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    require_reals([eps], "eps")  # an infinite eps makes every bound 0, and True reads as 1
    require_exponent(p)
    (norm_p,) = require_reals([norm_p], "the norm")
    if norm_p < 0.0:
        raise ValueError("norm must be nonnegative")
    return (norm_p / eps) ** p


def chebyshev_modulus_bound(h: ScalarField, eps: float, p: float) -> float:
    """Upper bound ||h||_p^p / eps^p for the modulus of {curves: int_c h >= eps}.

    h/eps is admissible for that family, which is the quantitative finite
    form of the zero-modulus criteria: the bound tends to 0 with ||h||_p.
    """
    if np.any(h.values < 0.0):
        raise ValueError("h must be nonnegative")
    return chebyshev_bound_from_norm(scalar_lp_norm(h, p), eps, p)


def fuglede_schedule(norms, p: float, eps: float) -> list[tuple[int, float]]:
    """Select a subsequence with ||g_{n_k} - g||_p <= 4^-k and bound exceptions.

    ``norms`` lists ||g_n - g||_p for n = 1, 2, ...; the k-th term picks the
    first admissible index after the previous pick (reported 1-based) and a
    modulus bound norms[n_k]^p / eps^p for the curves with
    int_curve |g_{n_k} - g| >= eps. The bounds decay summably, which is the
    finite-scale witness of almost-every-curve convergence.

    Raises ScheduleError when the remaining data never drops below the
    current threshold; stops cleanly when the data is exhausted.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    require_reals([eps], "eps")
    require_exponent(p)
    norms = [float(x) for x in require_reals(norms, "norms")]
    if any(x < 0.0 for x in norms):
        raise ValueError("norms must be nonnegative")
    out: list[tuple[int, float]] = []
    for i, x in enumerate(norms):  # the k-th pick is the first index after the last one with a norm <= 4^-k
        if x <= 4.0 ** -(len(out) + 1):
            out.append((i + 1, chebyshev_bound_from_norm(x, eps, p)))
    if not norms:
        raise ScheduleError("empty norm sequence")
    start = out[-1][0] if out else 0  # 0-based index after the last pick
    if start < len(norms):
        raise ScheduleError(f"no index from n={start + 1} on has norm <= 4^-{len(out) + 1}; sequence does not certify convergence")
    return out
