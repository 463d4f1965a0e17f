"""Dense LP solver for scenario programs: min c'x subject to A x <= b.

The row count (sampled constraints) dwarfs the variable count here, so the
simplex runs on the dual program, whose basis is d x d for a d-dimensional
search space.  That keeps solves with ~1e4 rows cheap while staying fully
deterministic: Bland's rule everywhere, and rows are canonically sorted before
pivoting so the result does not depend on the order constraints arrive in.

Boundedness must come from the rows themselves: for every coordinate i the
rows must include a multiple of e_i whose sign is opposite to cost_i (either
sign when cost_i = 0), as finite box rows provide.  Those rows form a feasible
starting basis of the dual, so the simplex has no phase 1.  When a coordinate
has no such row the status is ``unbounded-guard``; a solve that runs out of
pivots ends with ``iteration-limit``.

``solve_lp`` returns one optimizer plus duals.  ``solve_lp_lexicographic``
returns that optimizer when d positive duals certify it as the only one, and
otherwise re-optimizes coordinate by coordinate over the optimal face, so the
returned point is always the unique lexicographic minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpSolution", "solve_lp", "solve_lp_lexicographic"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED_GUARD = "unbounded-guard"
ITERATION_LIMIT = "iteration-limit"

_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FACE_TOL = 1e-10
_ITERATIONS_PER_SIZE = 200  # pivot budget per solve: this times (m + d + 10)


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None


def _canonical_order(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    keys = [rows_b] + [rows_a[:, j] for j in range(rows_a.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def _box_basis(cost: np.ndarray, rows_a: np.ndarray) -> np.ndarray | None:
    """Per coordinate i, the first row that is a nonzero multiple of e_i with
    the sign opposite to cost_i (either sign when cost_i = 0); None if some
    coordinate has no such row."""
    m = rows_a.shape[0]
    nonzero = rows_a != 0.0
    column = np.argmax(nonzero, axis=1)
    lead = rows_a[np.arange(m), column]
    single = np.count_nonzero(nonzero, axis=1) == 1
    basis = np.empty(cost.shape[0], dtype=int)
    for i, c in enumerate(cost):
        hits = np.flatnonzero(single & (column == i) & (lead * c <= 0.0))
        if hits.size == 0:
            return None
        basis[i] = hits[0]
    return basis


def _dual_form_simplex(
    cost: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Solve min cost'x s.t. rows_a x <= rows_b via the dual
    min rows_b'lam s.t. rows_a'lam = -cost, lam >= 0.

    The box-row basis is dual feasible (B = diag(a_ii), lam_B = |cost_i| /
    |a_ii| >= 0), so pivoting starts there.  Returns (status, x, duals) with
    duals aligned to the given row order.
    """
    d = cost.shape[0]
    m = rows_b.shape[0]
    basis = _box_basis(cost, rows_a)
    if basis is None:
        return UNBOUNDED_GUARD, None, None

    aeq = np.array(rows_a.T, dtype=float, order="C", copy=True)  # (d, m)
    diag = rows_a[basis, np.arange(d)]
    binv = np.diag(1.0 / diag)
    xb = np.abs(cost) / np.abs(diag)
    basic_cost = rows_b[basis]
    for _ in range(_ITERATIONS_PER_SIZE * (m + d + 10)):
        y = basic_cost @ binv
        reduced = rows_b - y @ aeq
        reduced[basis] = 0.0  # round-off must not let a basic column re-enter
        candidates = np.flatnonzero(reduced < -_TOL * (1.0 + np.abs(rows_b)))
        if candidates.size == 0:
            duals = np.zeros(m)
            duals[basis] = np.maximum(xb, 0.0)
            return OPTIMAL, y, duals
        j = int(candidates[0])  # Bland: lowest eligible column index
        u = binv @ aeq[:, j]
        positive = u > _PIVOT_TOL
        if not np.any(positive):
            return INFEASIBLE, None, None  # the dual is unbounded
        ratios = np.full(d, np.inf)
        ratios[positive] = xb[positive] / u[positive]
        t = float(np.min(ratios))
        tied = np.flatnonzero(ratios == t)
        r = int(tied[np.argmin(basis[tied])])  # Bland: lowest basic variable
        t = max(t, 0.0)
        binv[r] /= u[r]
        xb[r] = t
        others = np.arange(d) != r
        xb[others] -= u[others] * t
        binv[others] -= np.outer(u[others], binv[r])
        basis[r] = j
        basic_cost[r] = rows_b[j]
    return ITERATION_LIMIT, None, None


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

    The first ``solve_lp`` result is returned as it is when d of its duals
    exceed 1e-9 times (1 + the largest dual): nonzero duals sit only on the
    d independent basic rows, and every optimal x is tight on those rows.
    Otherwise (a round-off-level basic dual, a flat optimal face, or a zero
    cost) coordinates x_1, x_2, ... are minimized in turn over the
    (tolerance-thickened) optimal face, one ``solve_lp`` call per coordinate
    pass.  The last coordinate on which the cost is nonzero is skipped: the
    cost pin and the earlier coordinates determine it.  So a nonzero cost
    takes up to d - 1 passes after the first solve and a zero cost up to d.
    The objective and the duals are those of the initial solve, which proved
    the optimum; the passes move x only within the face tolerance of it, and
    any optimal dual pairs with any optimal primal point.  A solve or pass
    that runs out of pivots returns ``iteration-limit``.
    """
    cost = np.asarray(cost, dtype=float)
    rows_a = np.asarray(rows_a, dtype=float)
    rows_b = np.asarray(rows_b, dtype=float)
    d = cost.shape[0]

    first = solve_lp(cost, rows_a, rows_b)
    if first.status != OPTIMAL:
        return first
    if np.count_nonzero(first.duals > _TOL * (1.0 + first.duals.max())) == d:
        return first

    # The returned point is always a solver output (never a coordinate-wise
    # composition), so it satisfies every row to solver accuracy; pinned
    # coordinates sit within the face tolerance of their minimized values.
    x = first.x
    pins_a: list[np.ndarray] = []
    pins_b: list[float] = []
    skip = -1

    norm_c = np.linalg.norm(cost)
    if norm_c > 0.0:
        obj0 = first.objective
        pins_a.append(cost / norm_c)
        pins_b.append((obj0 + _FACE_TOL * (1.0 + abs(obj0))) / norm_c)
        skip = int(np.flatnonzero(cost)[-1])

    for j in range(d):
        if j == skip:
            continue
        ej = np.zeros(d)
        ej[j] = 1.0
        a_stage = np.vstack([rows_a] + [p[None, :] for p in pins_a])
        b_stage = np.concatenate([rows_b, np.asarray(pins_b)])
        res = solve_lp(ej, a_stage, b_stage)
        if res.status == ITERATION_LIMIT:
            return res
        if res.status != OPTIMAL:
            # The thickened face is nonempty by construction; a failure here
            # means the pins collapsed numerically.  Keep the current point.
            break
        x = res.x
        value = float(x[j])
        pins_a.append(ej)
        pins_b.append(value + _FACE_TOL * (1.0 + abs(value)))

    return LpSolution(status=OPTIMAL, x=x, objective=first.objective, duals=first.duals)
