"""Dense LP solver for scenario programs: min c'x subject to A x <= b.

The row count (sampled constraints) dwarfs the variable count here, so the
simplex runs on the dual program, whose basis is d x d for a d-dimensional
search space.  That keeps solves with ~1e4 rows cheap while staying fully
deterministic: Bland's rule everywhere, and rows are canonically sorted before
pivoting so the result does not depend on the order constraints arrive in.

Boundedness must come from the rows themselves; callers are expected to
include finite box rows for every coordinate.

``solve_lp`` returns one optimizer plus duals; ``solve_lp_lexicographic``
re-optimizes coordinate by coordinate over the optimal face so the returned
point is the unique lexicographic minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpSolution", "solve_lp", "solve_lp_lexicographic"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED_GUARD = "unbounded-guard"

_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FACE_TOL = 1e-10
_SPAN_TOL = 1e-10


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None


class _SimplexLimit(ArithmeticError):
    pass


def _canonical_order(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    keys = [rows_b] + [rows_a[:, j] for j in range(rows_a.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def _interval_solve(
    cost: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Closed form for d = 1: the feasible set is an interval."""
    a = rows_a[:, 0]
    b = rows_b
    c = float(cost[0])
    lower_rows = a < 0.0
    upper_rows = a > 0.0
    zero_rows = ~lower_rows & ~upper_rows
    if np.any(b[zero_rows] < -_TOL):
        return INFEASIBLE, None, None
    bounds = np.where(lower_rows | upper_rows, b / np.where(a == 0.0, 1.0, a), np.nan)
    lo = float(np.max(bounds[lower_rows])) if np.any(lower_rows) else -np.inf
    hi = float(np.min(bounds[upper_rows])) if np.any(upper_rows) else np.inf
    if lo > hi + _TOL * (1.0 + abs(lo)):
        return INFEASIBLE, None, None
    duals = np.zeros(b.shape[0])
    if c > 0.0:
        if not np.isfinite(lo):
            return UNBOUNDED_GUARD, None, None
        tight = int(np.flatnonzero(lower_rows)[np.argmax(bounds[lower_rows])])
        duals[tight] = -c / a[tight]
        return OPTIMAL, np.array([lo]), duals
    if c < 0.0:
        if not np.isfinite(hi):
            return UNBOUNDED_GUARD, None, None
        tight = int(np.flatnonzero(upper_rows)[np.argmin(bounds[upper_rows])])
        duals[tight] = -c / a[tight]
        return OPTIMAL, np.array([hi]), duals
    point = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else 0.0)
    return OPTIMAL, np.array([point]), duals


def _dual_form_simplex(
    cost: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Solve min cost'x s.t. rows_a x <= rows_b via the dual.

    Returns (status, x, duals) with duals aligned to the given row order.
    """
    d = cost.shape[0]
    m = rows_b.shape[0]
    if d == 1:
        return _interval_solve(cost, rows_a, rows_b)

    aeq = np.array(rows_a.T, dtype=float, order="C", copy=True)  # (d, m)
    beq = -np.asarray(cost, dtype=float).copy()
    sign = np.ones(d)
    neg = beq < 0.0
    aeq[neg] *= -1.0
    beq[neg] *= -1.0
    sign[neg] = -1.0

    basis = np.arange(m, m + d)  # artificial indices m..m+d-1
    binv = np.eye(d)
    xb = beq.copy()

    def iterate(col_cost: np.ndarray, basic_cost: np.ndarray, phase: int) -> str:
        max_iter = 200 * (m + d + 10)
        for _ in range(max_iter):
            y = basic_cost @ binv
            reduced = col_cost - y @ aeq
            allow = reduced < -_TOL * (1.0 + np.abs(col_cost))
            candidates = np.flatnonzero(allow)
            if candidates.size == 0:
                return "optimal"
            j = int(candidates[0])  # Bland: lowest eligible column index
            u = binv @ aeq[:, j]
            positive = u > _PIVOT_TOL
            if not np.any(positive):
                return "unbounded"
            ratios = np.full(d, np.inf)
            ratios[positive] = xb[positive] / u[positive]
            t = float(np.min(ratios))
            tied = np.flatnonzero(ratios == t)
            r = int(tied[np.argmin(basis[tied])])  # Bland: lowest basic variable
            t = max(t, 0.0)
            piv = u[r]
            binv[r] /= piv
            xb[r] = t
            others = np.arange(d) != r
            xb[others] -= u[others] * t
            binv[others] -= np.outer(u[others], binv[r])
            basis[r] = j
            if phase == 1:
                basic_cost[:] = np.where(basis >= m, 1.0, 0.0)
            else:
                basic_cost[:] = np.where(basis < m, rows_b_c[basis.clip(max=m - 1)], 0.0)
        raise _SimplexLimit("simplex iteration limit exceeded")

    rows_b_c = np.asarray(rows_b, dtype=float)

    # Phase 1: drive artificials to zero.
    phase1_cost = np.zeros(m)
    basic_cost = np.ones(d)
    status = iterate(phase1_cost, basic_cost, phase=1)
    residual = float(np.sum(np.abs(xb[basis >= m]))) if np.any(basis >= m) else 0.0
    if status != "optimal" or residual > 1e-7 * (1.0 + float(np.abs(cost).max(initial=0.0))):
        return UNBOUNDED_GUARD, None, None

    # Degenerate drive-out of artificials still sitting in the basis.
    for i in range(d):
        if basis[i] < m:
            continue
        row = binv[i] @ aeq
        nz = np.flatnonzero(np.abs(row) > 1e-7)
        if nz.size == 0:
            continue  # dependent equality row; harmless at value zero
        j = int(nz[0])
        u = binv @ aeq[:, j]
        piv = u[i]
        binv[i] /= piv
        xb[i] = max(xb[i] / piv, 0.0)
        others = np.arange(d) != i
        xb[others] -= u[others] * xb[i]
        binv[others] -= np.outer(u[others], binv[i])
        basis[i] = j

    # Phase 2: minimize b'lambda over the feasible dual.
    basic_cost = np.where(basis < m, rows_b_c[basis.clip(max=m - 1)], 0.0)
    status = iterate(rows_b_c, basic_cost, phase=2)
    if status == "unbounded":
        return INFEASIBLE, None, None

    y = basic_cost @ binv
    x = sign * y
    duals = np.zeros(m)
    real = basis < m
    duals[basis[real]] = np.maximum(xb[real], 0.0)
    return OPTIMAL, x, duals


def solve_lp(cost: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> LpSolution:
    """Single solve; the optimizer may be any point of the optimal face."""
    cost = np.asarray(cost, dtype=float)
    rows_a = np.asarray(rows_a, dtype=float)
    rows_b = np.asarray(rows_b, dtype=float)
    order = _canonical_order(rows_a, rows_b)
    status, x, duals_sorted = _dual_form_simplex(cost, rows_a[order], rows_b[order])
    if status != OPTIMAL:
        return LpSolution(status=status, x=None, objective=None, duals=None)
    duals = np.zeros(rows_b.shape[0], dtype=float)
    duals[order] = duals_sorted
    return LpSolution(status=OPTIMAL, x=x, objective=float(cost @ x), duals=duals)


def solve_lp_lexicographic(
    cost: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> LpSolution:
    """Unique optimizer under the lexicographic tie-break.

    After minimizing cost'x, coordinates x_1, x_2, ... are minimized in turn
    over the (tolerance-thickened) optimal face, one ``solve_lp`` call per
    coordinate pass.  A coordinate is skipped only when it lies in the span of
    the directions already pinned (the cost and the earlier coordinates).
    That holds for exactly one coordinate, the last one on which the cost is
    nonzero, so a nonzero cost takes up to d - 1 passes after the first solve
    and a zero cost up to d.  Duals are taken from the initial solve; any
    optimal dual pairs with any optimal primal point.
    """
    cost = np.asarray(cost, dtype=float)
    rows_a = np.asarray(rows_a, dtype=float)
    rows_b = np.asarray(rows_b, dtype=float)
    d = cost.shape[0]

    first = solve_lp(cost, rows_a, rows_b)
    if first.status != OPTIMAL:
        return first
    if d == 1 and cost[0] != 0.0:
        return first  # an interval endpoint; already the unique optimizer

    # The returned point is always a solver output (never a coordinate-wise
    # composition), so it satisfies every row to solver accuracy; pinned
    # coordinates sit within the face tolerance of their minimized values.
    x = first.x
    pins_a: list[np.ndarray] = []
    pins_b: list[float] = []
    directions: list[np.ndarray] = []

    norm_c = np.linalg.norm(cost)
    if norm_c > 0.0:
        obj0 = float(cost @ x)
        pins_a.append(cost / norm_c)
        pins_b.append((obj0 + _FACE_TOL * (1.0 + abs(obj0))) / norm_c)
        directions.append(cost.copy())

    for j in range(d):
        ej = np.zeros(d)
        ej[j] = 1.0
        if directions:
            base = np.asarray(directions)
            gamma, _, _, _ = np.linalg.lstsq(base.T, ej, rcond=None)
            if np.linalg.norm(base.T @ gamma - ej) <= _SPAN_TOL:
                continue  # linearly determined on the current face
        a_stage = np.vstack([rows_a] + [p[None, :] for p in pins_a])
        b_stage = np.concatenate([rows_b, np.asarray(pins_b)])
        res = solve_lp(ej, a_stage, b_stage)
        if res.status != OPTIMAL:
            # The thickened face is nonempty by construction; a failure here
            # means the pins collapsed numerically.  Keep the current point.
            break
        x = res.x
        value = float(x[j])
        pins_a.append(ej)
        pins_b.append(value + _FACE_TOL * (1.0 + abs(value)))
        directions.append(ej)

    return LpSolution(status=OPTIMAL, x=x, objective=float(cost @ x), duals=first.duals)
