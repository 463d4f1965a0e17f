"""Dense LP solver for scenario programs: min c'x subject to A x <= b.

The row count (sampled constraints) dwarfs the variable count here, so the
simplex runs on the dual program, whose basis is d x d for a d-dimensional
search space.  That keeps solves with ~1e4 rows cheap while staying fully
deterministic: rows are canonically sorted before pivoting, and each pivot
choice depends only on their values and sorted positions, so the result does
not depend on the order constraints arrive in.

``solve_lp`` returns the lexicographic minimizer of (c'x, x_1, ..., x_d),
the unique point the scenario theory asks for, from one simplex run.  For a
small e > 0 that point is the optimum under the cost c + sum_i e^(i+1) e_i,
which in the dual only perturbs the right-hand side: the basic duals become
xb - sum_i e^(i+1) binv[:, i].  The leaving row comes from the lexicographic
ratio test, which keeps every basic row [xb_r, -binv_r,0, ..., -binv_r,d-1]
lexicographically positive, so the run cannot cycle and ends at a basis that
is optimal under the perturbation (Dantzig, Orden and Wolfe, Pacific J.
Math. 5(2), 1955).  The entering column is the most negative reduced cost
(the most violated row), ties going to the lowest position.

``SortedRows`` does that sort once, together with everything a solve derives
from the row order (the transposed matrix, the entering thresholds and the
box rows), so that many solves on subsets of the same rows skip it: a subset
is a keep mask in canonical order.  Every solve pivots on all the sorted rows
with the dropped ones barred from entering; barring a column keeps the
relative order of the others, so that takes the pivots of the kept rows
sorted afresh.  ``solve_lp`` takes either plain arrays, which it sorts, or
such a prepared view; both give bit-identical results.

Boundedness must come from the rows themselves: for every coordinate i the
rows must include a multiple of e_i whose sign is opposite to cost_i (a
negative multiple, a lower bound, when cost_i = 0), as finite box rows
provide.  Those rows form a feasible, lexicographically positive starting
basis of the dual, so the simplex has no phase 1.  When a coordinate has no
such row the status is ``unbounded-guard``; a solve that runs out of pivots
ends with ``iteration-limit``.

A view may instead start from the optimal basis of an earlier solve on the
same rows (a warm start).  Dropping rows only removes dual columns, so that
basis stays feasible once the dropped rows have left it.  A first phase
minimizes their duals, still barred from entering, with the same ratio
test; under the perturbation the minimum leaves none of them basic unless
the kept rows' dual is infeasible.  The box basis holds no dropped row and
skips that phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpSolution", "SortedRows", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED_GUARD = "unbounded-guard"
ITERATION_LIMIT = "iteration-limit"

_TOL = 1e-9
_PIVOT_TOL = 1e-9
# Ratio-test values within this times (1 + |minimum|) of the minimum tie and
# go on to the next key.  Exact ties (0) pick wrong vertices on flat faces,
# where round-off splits values that are equal.
_LEX_TIE = 1e-9
_ITERATIONS_PER_SIZE = 200  # pivot budget per solve: this times (m + d + 10)


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    pivots: int = 0     # simplex pivots of the run, the warm drive-out included
    warm: bool = False  # the run started at an earlier solve's basis
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
        # Reduced costs below this may enter; the same array every pivot.
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
        with the sign opposite to cost_i (negative when cost_i = 0, which
        makes that basic row lexicographically positive); None if some
        coordinate has no such row."""
        basis = np.empty(cost.shape[0], dtype=int)
        for i, c in enumerate(cost):
            ok = self.box_lead[i] * c < 0.0 if c else self.box_lead[i] < 0.0
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
    """Simplex pivots from the lexicographically positive feasible basis
    (basis, binv, xb) of min obj'lam s.t. aeq lam = const, lam >= 0, until no
    column outside ``barred`` and the basis prices below ``enter``.  The most
    negative reduced cost enters, ties to the lowest column; the leaving row
    minimizes [xb_r, -binv_r,0, ..., -binv_r,d-1] / u_r lexicographically
    over u_r > 0.  Updates the basis in place; returns (status, pivots)."""
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
        j = int(candidates[np.argmin(reduced[candidates])])
        u = binv @ aeq[:, j]
        tied = np.flatnonzero(u > _PIVOT_TOL)
        if tied.size == 0:
            return INFEASIBLE, pivots  # the dual is unbounded
        for k in range(-1, d):
            ratios = (xb[tied] if k < 0 else -binv[tied, k]) / u[tied]
            low = ratios.min()
            tied = tied[ratios <= low + _LEX_TIE * (1.0 + abs(low))]
            if tied.size == 1:
                break
        r = int(tied[0])
        t = max(xb[r] / u[r], 0.0)
        binv[r] /= u[r]
        xb[r] = t
        others = np.arange(d) != r
        xb[others] -= u[others] * t
        binv[others] -= np.outer(u[others], binv[r])
        basis[r] = j
        basic_cost[r] = obj[j]
    return ITERATION_LIMIT, budget


def _drop_from_basis(rows: SortedRows, barred, basis, binv, xb, budget) -> tuple[str, int]:
    """Drive the barred rows out of a basis of all of ``rows`` by minimizing
    their duals' sum without letting barred rows enter."""
    dropped = ~rows.keep
    if not np.any(dropped[basis]):
        return OPTIMAL, 0
    weight = dropped.astype(float)
    status, pivots = _pivot(rows.aeq, weight, -_TOL * (1.0 + weight), barred,
                            basis, binv, xb, budget)
    if status == OPTIMAL and np.any(dropped[basis]):
        return INFEASIBLE, pivots  # the kept rows' dual is infeasible
    return status, pivots


def _dual_form_simplex(cost: np.ndarray, rows: SortedRows):
    """Solve min cost'x s.t. a x <= b over the kept rows via the dual
    min b'lam s.t. a'lam = -cost, lam >= 0, pivoting on all of ``rows``
    with the dropped ones barred.

    The run starts from ``rows.start``'s basis, or else from the box-row
    basis, which is dual feasible (B = diag(a_ii), lam_B = |cost_i| / |a_ii|
    >= 0), lexicographically positive and holds no dropped row.  Returns
    (status, final, pivots), where ``final`` is None unless optimal and
    otherwise (basis, inverse, basic duals, x) with the basis as in
    ``LpSolution.basis``.
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
    """The lexicographic minimizer of (cost'x, x_1, ..., x_d) over the rows,
    with duals of cost'x.

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
