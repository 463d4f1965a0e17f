"""Dense LP solver for scenario programs: min c'x subject to A x <= b.

The row count (sampled constraints) dwarfs the variable count here, so the
simplex runs on the dual program, whose basis is d x d for a d-dimensional
search space.  That keeps solves with ~1e4 rows cheap while staying fully
deterministic: Bland's rule everywhere, and rows are canonically sorted before
pivoting so the result does not depend on the order constraints arrive in.

``SortedRows`` does that sort once, together with everything a solve derives
from the row order (the transposed matrix, the entering thresholds and the
box rows), so that many solves on subsets of the same rows skip it: a subset
is a keep mask in canonical order.  Every solve pivots on all the sorted rows
with the dropped ones barred from entering; Bland's rule only compares
positions, so that takes the pivots of the kept rows sorted afresh.
``solve_lp`` and ``solve_lp_lexicographic`` take either plain arrays, which
they sort, or such a prepared view; both give bit-identical results.

Boundedness must come from the rows themselves: for every coordinate i the
rows must include a multiple of e_i whose sign is opposite to cost_i (either
sign when cost_i = 0), as finite box rows provide.  Those rows form a feasible
starting basis of the dual, so the simplex has no phase 1.  When a coordinate
has no such row the status is ``unbounded-guard``; a solve that runs out of
pivots ends with ``iteration-limit``.

A view may instead start from the optimal basis of an earlier solve on the
same rows (a warm start).  Dropping rows only removes dual columns, so that
basis stays feasible once the dropped rows have left it: a first pass
minimizes their duals, still barred from entering, and pivots any that stay
basic out; the box basis holds no dropped row and skips it.
``solve_lp_lexicographic`` keeps a warm result only when it is optimal and
certified unique, and otherwise re-solves cold.

``solve_lp`` returns one optimizer plus duals.  ``solve_lp_lexicographic``
returns that optimizer when d positive duals certify it as the only one, and
otherwise re-optimizes coordinate by coordinate over the optimal face, so the
returned point is always the unique lexicographic minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpSolution", "SortedRows", "solve_lp", "solve_lp_lexicographic"]

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
    pivots: int = 0     # simplex pivots spent on this result, fallbacks included
    warm: bool = False  # x comes from a run that started at an earlier basis
    # The final basis as (row positions in canonical order, its inverse, the
    # basic duals): what a warm start on the same SortedRows resumes from.
    basis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )


def _canonical_order(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    keys = [rows_b] + [rows_a[:, j] for j in range(rows_a.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


class SortedRows:
    """Rows a x <= b sorted into canonical order once, for many solves.

    ``select`` returns a view that keeps a subset of the rows, given as a
    boolean mask in canonical order (``keep[p]`` for the row ``order[p]``),
    and optionally starts from the basis of an earlier optimal solve on
    these same rows.  Duals always come back aligned to the rows as given,
    zero on the rows a view drops.
    """

    def __init__(self, rows_a: np.ndarray, rows_b: np.ndarray):
        rows_a = np.asarray(rows_a, dtype=float)
        rows_b = np.asarray(rows_b, dtype=float)
        self.order = _canonical_order(rows_a, rows_b)
        self.b = rows_b[self.order]
        self.aeq = np.ascontiguousarray(rows_a[self.order].T)  # (d, m)
        # Reduced costs below this enter (Bland); the same array every pivot.
        self.enter = -_TOL * (1.0 + np.abs(self.b))
        # Per coordinate i, the positions of the rows that are nonzero
        # multiples of e_i, and those multiples: the box-basis candidates.
        d, m = self.aeq.shape
        nonzero = self.aeq != 0.0
        column = np.argmax(nonzero, axis=0)
        lead = self.aeq[column, np.arange(m)]
        single = np.count_nonzero(nonzero, axis=0) == 1
        self.box = [np.flatnonzero(single & (column == i)) for i in range(d)]
        self.box_lead = [lead[p] for p in self.box]
        self.keep: np.ndarray | None = None  # None keeps every row
        self.start: LpSolution | None = None

    def kept_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept rows (a, b) in canonical order."""
        if self.keep is None:
            return self.aeq.T, self.b
        return self.aeq.T[self.keep], self.b[self.keep]

    def select(self, keep: np.ndarray | None = None, start: LpSolution | None = None) -> SortedRows:
        """A view of these rows keeping ``keep`` (all when None) and
        warm-starting from ``start``'s basis (cold when None)."""
        view = object.__new__(SortedRows)
        view.__dict__.update(self.__dict__)
        view.keep = keep
        view.start = start if start is not None and start.basis is not None else None
        return view

    def box_basis(self, cost: np.ndarray) -> np.ndarray | None:
        """Per coordinate i, the position of the first kept multiple of e_i
        with the sign opposite to cost_i (either sign when cost_i = 0); None
        if some coordinate has no such row."""
        basis = np.empty(cost.shape[0], dtype=int)
        for i, c in enumerate(cost):
            ok = self.box_lead[i] * c <= 0.0
            if self.keep is not None:
                ok &= self.keep[self.box[i]]
            hits = np.flatnonzero(ok)
            if hits.size == 0:
                return None
            basis[i] = self.box[i][hits[0]]
        return basis


def _prepared(rows_a, rows_b) -> SortedRows:
    return rows_a if isinstance(rows_a, SortedRows) else SortedRows(rows_a, rows_b)


def _pivot(aeq, obj, enter, barred, basis, binv, xb, budget) -> tuple[str, int]:
    """Bland's rule from the feasible basis (basis, binv, xb) of
    min obj'lam s.t. aeq lam = const, lam >= 0, until no column in
    ``barred`` or the basis prices below ``enter``.  Updates the basis in
    place; returns (status, pivots)."""
    d = basis.shape[0]
    basic_cost = obj[basis]
    for pivots in range(budget):
        y = basic_cost @ binv
        reduced = obj - y @ aeq
        reduced[basis] = 0.0  # round-off must not let a basic column re-enter
        if barred is not None:
            reduced[barred] = 0.0
        candidates = np.flatnonzero(reduced < enter)
        if candidates.size == 0:
            return OPTIMAL, pivots
        j = int(candidates[0])  # Bland: lowest eligible column index
        u = binv @ aeq[:, j]
        positive = u > _PIVOT_TOL
        if not np.any(positive):
            return INFEASIBLE, pivots  # the dual is unbounded
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
        basic_cost[r] = obj[j]
    return ITERATION_LIMIT, budget


def _drop_from_basis(rows: SortedRows, barred, basis, binv, xb, budget) -> tuple[str, int]:
    """Drive the barred rows out of a basis of all of ``rows``: minimize
    their duals' sum without letting barred rows enter, then pivot each one
    still basic (at dual zero) out on its largest pivot element."""
    dropped = ~rows.keep
    if not np.any(dropped[basis]):
        return OPTIMAL, 0
    weight = dropped.astype(float)
    status, pivots = _pivot(rows.aeq, weight, -_TOL * (1.0 + weight), barred,
                            basis, binv, xb, budget)
    if status != OPTIMAL:
        return status, pivots
    for r in np.flatnonzero(dropped[basis]):
        if xb[r] > _TOL * (1.0 + np.max(np.abs(xb))):
            return INFEASIBLE, pivots  # the kept rows' dual is infeasible
        w = binv[r] @ rows.aeq
        w[barred] = 0.0
        w[basis] = 0.0
        j = int(np.argmax(np.abs(w)))
        if abs(w[j]) <= _PIVOT_TOL:
            return INFEASIBLE, pivots  # the kept rows do not span the basis
        u = binv @ rows.aeq[:, j]
        binv[r] /= u[r]
        xb[r] = 0.0
        others = np.arange(basis.shape[0]) != r
        binv[others] -= np.outer(u[others], binv[r])
        basis[r] = j
        pivots += 1
    return OPTIMAL, pivots


def _dual_form_simplex(cost: np.ndarray, rows: SortedRows):
    """Solve min cost'x s.t. a x <= b over the kept rows via the dual
    min b'lam s.t. a'lam = -cost, lam >= 0, pivoting on all of ``rows``
    with the dropped ones barred.

    The run starts from ``rows.start``'s basis, or else from the box-row
    basis, which is dual feasible (B = diag(a_ii), lam_B = |cost_i| / |a_ii|
    >= 0) and holds no dropped row.  Returns (status, final, pivots), where
    ``final`` is None unless optimal and otherwise (basis, inverse, basic
    duals, x) with the basis as in ``LpSolution.basis``.
    """
    d = cost.shape[0]
    m = rows.b.shape[0] if rows.keep is None else int(np.count_nonzero(rows.keep))
    budget = _ITERATIONS_PER_SIZE * (m + d + 10)
    if rows.start is not None:
        basis, binv, xb = (v.copy() for v in rows.start.basis)
    else:
        basis = rows.box_basis(cost)
        if basis is None:
            return UNBOUNDED_GUARD, None, 0
        diag = rows.aeq[np.arange(d), basis]
        binv = np.diag(1.0 / diag)
        xb = np.abs(cost) / np.abs(diag)
    barred = None if rows.keep is None else np.flatnonzero(~rows.keep)
    spent = 0
    if barred is not None:
        status, spent = _drop_from_basis(rows, barred, basis, binv, xb, budget)
        if status != OPTIMAL:
            return status, None, spent
    status, pivots = _pivot(rows.aeq, rows.b, rows.enter, barred, basis, binv, xb, budget)
    pivots += spent
    if status != OPTIMAL:
        return status, None, pivots
    return status, (basis, binv, xb, rows.b[basis] @ binv), pivots


def solve_lp(cost: np.ndarray, rows_a, rows_b: np.ndarray | None = None) -> LpSolution:
    """Single solve; the optimizer may be any point of the optimal face.

    ``rows_a`` is either the (m, d) row matrix, with ``rows_b`` its
    right-hand side, or a ``SortedRows`` view (``rows_b`` omitted), whose
    start basis, if any, the solve warm-starts from.
    """
    cost = np.asarray(cost, dtype=float)
    rows = _prepared(rows_a, rows_b)
    warm = rows.start is not None
    status, final, pivots = _dual_form_simplex(cost, rows)
    if status != OPTIMAL:
        return LpSolution(status=status, x=None, objective=None, duals=None,
                          pivots=pivots, warm=warm)
    basis, binv, xb, x = final
    duals = np.zeros(rows.b.shape[0], dtype=float)
    duals[rows.order[basis]] = np.maximum(xb, 0.0)
    return LpSolution(status=OPTIMAL, x=x, objective=float(cost @ x), duals=duals,
                      pivots=pivots, warm=warm, basis=(basis, binv, xb))


def _certified(res: LpSolution, d: int) -> bool:
    return res.status == OPTIMAL and np.count_nonzero(
        res.duals > _TOL * (1.0 + res.duals.max())
    ) == d


def solve_lp_lexicographic(
    cost: np.ndarray, rows_a, rows_b: np.ndarray | None = None
) -> LpSolution:
    """Unique optimizer under the lexicographic tie-break.

    The rows are given as for ``solve_lp``.  The first ``solve_lp`` result
    is returned as it is when d of its duals exceed 1e-9 times (1 + the
    largest dual): nonzero duals sit only on the d independent basic rows,
    and every optimal x is tight on those rows.  A warm-started first solve
    that is not optimal or not certified so is repeated cold.  Otherwise
    (a round-off-level basic dual, a flat optimal face, or a zero cost)
    coordinates x_1, x_2, ... are minimized in turn over the
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
    rows = _prepared(rows_a, rows_b)
    d = cost.shape[0]

    first = solve_lp(cost, rows)
    pivots = 0
    if first.warm and not _certified(first, d):
        pivots = first.pivots
        first = solve_lp(cost, rows.select(rows.keep))
    pivots += first.pivots
    if first.status != OPTIMAL or _certified(first, d):
        first.pivots = pivots
        return first

    # The returned point is always a solver output (never a coordinate-wise
    # composition), so it satisfies every row to solver accuracy; pinned
    # coordinates sit within the face tolerance of their minimized values.
    x = first.x
    rows_a, rows_b = rows.kept_rows()
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
        pivots += res.pivots
        if res.status == ITERATION_LIMIT:
            res.pivots = pivots
            return res
        if res.status != OPTIMAL:
            # The thickened face is nonempty by construction; a failure here
            # means the pins collapsed numerically.  Keep the current point.
            break
        x = res.x
        value = float(x[j])
        pins_a.append(ej)
        pins_b.append(value + _FACE_TOL * (1.0 + abs(value)))

    return LpSolution(status=OPTIMAL, x=x, objective=first.objective, duals=first.duals,
                      pivots=pivots, basis=first.basis)
