"""Discrete p-modulus of finite curve families as a convex program.

The problem is  minimize sum_c w_c rho_c^p  subject to  A rho >= 1, rho >= 0,
with one constraint row per curve (arc length spent in each cell) and
Lebesgue cell volumes w. For p > 1 the program is solved through its smooth
concave dual; for p = 1 through the equivalent linear program. Either way the
result carries certificates (feasibility after rescaling is exact, and a
weak-duality gap bounds the distance to the optimum) that do not rely on the
inner solver's own claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ScheduleError
from .geometry import CurveFamily, Grid, ScalarField, cell_length_rows
from .vectorvalues import scalar_lp_norm


@dataclass
class ModulusProblem:
    """Constraint rows, cell weights and exponent of one modulus program."""

    constraint_rows: sp.csr_matrix
    weights: np.ndarray
    exponent: float
    grid: Grid

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.exponent < 1.0:
            raise ValueError("modulus exponent requires p >= 1")
        if np.any(self.weights <= 0.0):
            raise ValueError("cell weights must be positive")
        A = self.constraint_rows
        if A.shape[1] != self.weights.shape[0]:
            raise ValueError("constraint rows and weights disagree on cell count")
        if A.nnz and A.min() < 0.0:
            raise ValueError("constraint rows must be nonnegative")
        if A.shape[0] and np.any(np.asarray(A.sum(axis=1)).ravel() <= 0.0):
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
    The weights are the Lebesgue cell volumes.
    """
    if p < 1.0:
        raise ValueError("modulus exponent requires p >= 1")
    A = cell_length_rows(fam.curves, g)
    w = np.full(g.num_cells, g.cell_volume)
    return ModulusProblem(constraint_rows=A, weights=w, exponent=p, grid=g)


def linprog(c, A_ub, b_ub, bounds, method):
    """scipy.optimize.linprog, imported on the first call so that importing
    modlab does not load scipy.optimize."""
    from scipy.optimize import linprog

    return linprog(c=c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


def minimize(fun, x0, jac, method, bounds, options):
    """scipy.optimize.minimize, imported on the first call like ``linprog``."""
    from scipy.optimize import minimize

    return minimize(fun, x0, jac=jac, method=method, bounds=bounds, options=options)


def _dual_rho(s: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    # stationarity of the Lagrangian: p w rho^(p-1) = A^T lambda
    base = np.maximum(s, 0.0) / (p * w)
    return base ** (1.0 / (p - 1.0))


def _dual_rho_slope(s: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    # d rho / d s, used as the curvature weights of the dual Hessian
    base = np.maximum(s, 0.0) / (p * w)
    with np.errstate(divide="ignore"):
        out = base ** ((2.0 - p) / (p - 1.0)) / ((p - 1.0) * p * w)
    return np.where(np.isfinite(out), out, 0.0)


def _unconverged(prob: ModulusProblem, iterations: int, dual_value: float, diagnostics: dict) -> ModulusResult:
    """A result that certifies nothing: zero density, infinite violation and gap."""
    zero = ScalarField(grid=prob.grid, values=np.zeros(prob.grid.num_cells))
    return ModulusResult(
        value=float("nan"), rho_star=zero, max_constraint_violation=float("inf"),
        iterations=iterations, converged=False, gap=float("inf"),
        dual_value=dual_value, diagnostics=diagnostics,
    )


def _certify(A, w, p, rho_raw, dual_value):
    """Rescale to exact feasibility and report value/gap certificates."""
    margins = A @ rho_raw
    m = float(np.min(margins))
    if m <= 0.0:
        return None
    rho = rho_raw / m
    value = float(np.sum(w * rho**p))
    violation = max(0.0, 1.0 - float(np.min(A @ rho)))
    gap = value - dual_value
    return rho, value, violation, gap


def _certified(prob, rho_raw, dual_value, tol, solver_ok, iterations, diagnostics) -> ModulusResult:
    """The certified result of a raw density and a dual value: converged when
    the solver reports success and both certificates meet ``tol``."""
    cert = _certify(prob.constraint_rows, prob.weights, prob.exponent, rho_raw, dual_value)
    if cert is None:
        return _unconverged(
            prob, iterations, dual_value, dict(diagnostics, message="the raw density left a constraint at zero")
        )
    rho, value, violation, gap = cert
    return ModulusResult(
        value=value,
        rho_star=ScalarField(grid=prob.grid, values=rho),
        max_constraint_violation=violation,
        iterations=iterations,
        converged=solver_ok and gap <= tol * (1.0 + value) and violation <= tol,
        gap=gap,
        dual_value=dual_value,
        diagnostics=diagnostics,
    )


def _dual_objective(A, At, w, p, lam):
    s = At @ lam
    rho = _dual_rho(s, w, p)
    obj = float(np.sum(lam)) - (p - 1.0) * float(np.sum(w * rho**p))
    return obj, 1.0 - A @ rho, s, rho


def _projected_grad_norm(lam: np.ndarray, grad: np.ndarray) -> float:
    # ascent direction blocked at the bound: only grad > 0 matters at lam = 0
    viol = np.where(lam > 0.0, np.abs(grad), np.maximum(grad, 0.0))
    return float(np.max(viol, initial=0.0))


def _newton_polish(A, At, w, p, lam, tol):
    """Projected Newton ascent on the concave dual to tighten the gap, at most 60 rounds.

    The Hessian restricted to the free multipliers is -A D A^T with the
    diagonal curvature D = d rho / d s; a ridge keeps duplicated rows
    harmless. Near the optimum the dual objective sits on its float plateau
    while the gradient (the constraint margins) can still be driven down, so
    a step is also accepted when it halves the projected gradient without
    losing objective beyond roundoff.
    """
    obj, grad, s, rho = _dual_objective(A, At, w, p, lam)
    rounds = 0
    for _ in range(60):
        margins = 1.0 - grad
        mmin = float(np.min(margins))
        if mmin > 0.0:
            value = float(np.sum(w * rho**p)) / mmin**p
            if value - obj <= 0.25 * tol * (1.0 + value):
                break
        free = (lam > 0.0) | (grad > 0.0)
        if not np.any(free):
            break
        D = _dual_rho_slope(s, w, p)
        Af = A[np.flatnonzero(free)]
        H = (Af.multiply(D) @ Af.T).toarray()
        ridge = 1e-14 * (np.trace(H) / H.shape[0] + 1.0)
        H[np.diag_indices_from(H)] += ridge
        try:
            step_free = np.linalg.solve(H, grad[free])
        except np.linalg.LinAlgError:
            break
        step = np.zeros_like(lam)
        step[free] = step_free
        pg = _projected_grad_norm(lam, grad)
        plateau = 1e-13 * (1.0 + abs(obj))
        improved = False
        alpha = 1.0
        for _ in range(40):
            cand = np.maximum(lam + alpha * step, 0.0)
            cand_obj, cand_grad, cand_s, cand_rho = _dual_objective(A, At, w, p, cand)
            better_obj = cand_obj > obj
            flatter = cand_obj >= obj - plateau and _projected_grad_norm(cand, cand_grad) <= 0.5 * pg
            if better_obj or flatter:
                lam, obj, grad, s, rho = cand, cand_obj, cand_grad, cand_s, cand_rho
                improved = True
                break
            alpha *= 0.5
        rounds += 1
        if not improved:
            break
    return lam, obj, rounds


def _solve_power(prob: ModulusProblem, tol: float, max_iter: int) -> ModulusResult:
    A = prob.constraint_rows
    At = A.T.tocsr()
    w = prob.weights
    p = prob.exponent
    m = A.shape[0]

    def neg_dual(lam):
        obj, grad, _, _ = _dual_objective(A, At, w, p, lam)
        return -obj, -grad

    # scale a uniform start so the least-satisfied constraint sits near 1
    lam0 = np.ones(m)
    r0 = _dual_rho(At @ lam0, w, p)
    m0 = float(np.min(A @ r0))
    if m0 > 0.0:
        lam0 *= m0 ** -(p - 1.0)
    res = minimize(
        neg_dual,
        lam0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * m,
        options={"maxiter": max_iter, "maxfun": 20 * max_iter, "ftol": 1e-18, "gtol": 1e-14},
    )
    lam = np.maximum(res.x, 0.0)
    lam, dual_value, polish_rounds = _newton_polish(A, At, w, p, lam, tol)
    return _certified(
        prob, _dual_rho(At @ lam, w, p), dual_value, tol, solver_ok=True,
        iterations=int(res.nit) + polish_rounds,
        diagnostics={
            "message": str(res.message), "solver": "lbfgsb-dual+newton", "max_iter_hit": int(res.nit) >= max_iter,
        },
    )


def _solve_lp(prob: ModulusProblem, tol: float) -> ModulusResult:
    A = prob.constraint_rows
    w = prob.weights
    m = A.shape[0]
    res = linprog(
        c=w,
        A_ub=-A,
        b_ub=-np.ones(m),
        bounds=(0.0, None),
        method="highs-ipm",
    )
    iterations = int(getattr(res, "nit", 0))
    diagnostics = {"message": str(res.message), "solver": "linprog-highs-ipm", "max_iter_hit": False}
    if res.x is None:
        return _unconverged(prob, iterations, float("nan"), diagnostics)
    lam = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
    # scale the multipliers into the dual-feasible region A^T lam <= w
    col = A.T @ lam
    over = float(np.max(col / w)) if col.size else 0.0
    if over > 1.0:
        lam = lam / over
    return _certified(
        prob, np.asarray(res.x, dtype=float), float(np.sum(lam)), tol, solver_ok=res.status == 0,
        iterations=iterations, diagnostics=diagnostics,
    )


def solve_modulus(prob: ModulusProblem, tol: float = 1e-8, max_iter: int = 2000) -> ModulusResult:
    """Solve one modulus program with feasibility and duality-gap certificates.

    The returned density is feasible (constraints rescaled to hold exactly),
    and ``gap`` bounds the objective's distance to the optimum by weak
    duality; ``converged`` records whether both certificates meet ``tol``.
    A modulus program is never infeasible: large densities are admissible.
    p = 1 is delegated to an interior-point linear-programming solve with the
    same certificates.
    ``max_iter`` bounds the L-BFGS-B iterations of the p > 1 solve only; the
    p = 1 linear program ignores it. ``diagnostics`` names the ``solver`` that
    ran and says whether L-BFGS-B stopped at ``max_iter`` (``max_iter_hit``).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if prob.num_curves == 0:
        zero = ScalarField(grid=prob.grid, values=np.zeros(prob.grid.num_cells))
        return ModulusResult(
            value=0.0, rho_star=zero, max_constraint_violation=0.0,
            iterations=0, converged=True, gap=0.0, dual_value=0.0,
            diagnostics={"solver": "none", "max_iter_hit": False},
        )
    if prob.exponent == 1.0:
        return _solve_lp(prob, tol)
    return _solve_power(prob, tol, max_iter)


def analytic_parallel_segments(measure_E: float, seg_length: float, p: float) -> float:
    """Modulus of the family of parallel segments of fixed length through E.

    For segments of length L orthogonal to a hyperplane piece of
    (N-1)-measure |E| the modulus equals |E| / L^p; in particular it vanishes
    exactly when E is null.
    """
    if seg_length <= 0.0:
        raise ValueError("segment length must be positive")
    if measure_E < 0.0:
        raise ValueError("measure must be nonnegative")
    if p < 1.0:
        raise ValueError("requires p >= 1")
    return measure_E / seg_length**p


def chebyshev_bound_from_norm(norm_p: float, eps: float, p: float) -> float:
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if p < 1.0:
        raise ValueError("requires p >= 1")
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


def fuglede_schedule(
    norms, p: float, eps: float, num_terms: int | None = None
) -> list[tuple[int, float]]:
    """Select a subsequence with ||g_{n_k} - g||_p <= 4^-k and bound exceptions.

    ``norms`` lists ||g_n - g||_p for n = 1, 2, ...; the k-th term picks the
    first admissible index after the previous pick (reported 1-based) and a
    modulus bound norms[n_k]^p / eps^p for the curves with
    int_curve |g_{n_k} - g| >= eps. The bounds decay summably, which is the
    finite-scale witness of almost-every-curve convergence.

    Raises ScheduleError when the remaining data never drops below the
    current threshold; stops cleanly when the data is exhausted. ``num_terms``
    caps the schedule length.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if p < 1.0:
        raise ValueError("requires p >= 1")
    norms = [float(x) for x in norms]
    if any(x < 0.0 for x in norms):
        raise ValueError("norms must be nonnegative")
    out: list[tuple[int, float]] = []
    start = 0  # 0-based scan position into norms
    k = 1
    while start < len(norms) and (num_terms is None or len(out) < num_terms):
        threshold = 4.0**-k
        hit = next((i for i in range(start, len(norms)) if norms[i] <= threshold), None)
        if hit is None:
            raise ScheduleError(
                f"no index from n={start + 1} on has norm <= 4^-{k}; "
                "sequence does not certify convergence"
            )
        out.append((hit + 1, chebyshev_bound_from_norm(norms[hit], eps, p)))
        start = hit + 1
        k += 1
    if not out:
        raise ScheduleError("empty norm sequence")
    return out
