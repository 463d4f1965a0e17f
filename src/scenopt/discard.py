"""Ex-post constraint removal: exhaustive, greedy, and multiplier-guided.

All three algorithms are deterministic functions of (program, multisample,
budgets): ties in the searches break on the lowest stage index, then the
lowest sample index, so a removal result is reproducible bit for bit.

After removal, ``check_discard_assumption`` reports per stage whether the
probabilistic guarantee for discarding applies: either every removed
constraint is violated by the reduced solution, or the stage was declared
monotone.  A FAIL is a result, not an exception, and so is a program that
is not optimal before or during removal: the result carries its status.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lp import solve_lp_lexicographic
from .program import MultiSample, ScenarioProgram, Solution, StageSpec
from .scenario_core import NS_PROBE, AssembledProgram, derived_stream

__all__ = [
    "RemovalResult",
    "remove_optimal",
    "remove_greedy",
    "remove_marginal",
    "check_discard_assumption",
    "monotonicity_empirical_check",
]

_OBJ_TIE_TOL = 1e-9
_VIOLATION_MARGIN = 1e-9


@dataclass
class RemovalResult:
    removed: list[list[int]]          # per stage, sorted sample indices
    solution: Solution                # reduced problem solution
    objective_improvement: float
    assumption_modes: list[str]       # per stage: violated-by-reduced | monotone-declared | FAIL | none


def _budgets(program: ScenarioProgram, ms: MultiSample, discards) -> list[int]:
    budgets = [int(r) for r in discards]
    if len(budgets) != program.n_stages:
        raise ValueError(f"expected {program.n_stages} discard counts, got {len(budgets)}")
    if any(r < 0 for r in budgets):
        raise ValueError("discard counts must be nonnegative")
    for r, k in zip(budgets, ms.sizes()):
        if r > k:
            raise ValueError(f"cannot discard {r} of {k} samples")
    return budgets


def _finish(
    program: ScenarioProgram, ms: MultiSample, drop: list[tuple[int, int]],
    base_objective: float, solution: Solution,
) -> RemovalResult:
    removed = [sorted(kappa for j, kappa in drop if j == i) for i in range(program.n_stages)]
    result = RemovalResult(
        removed=removed, solution=solution,
        objective_improvement=base_objective - solution.objective, assumption_modes=[],
    )
    result.assumption_modes = check_discard_assumption(program, ms, result)
    return result


def remove_optimal(
    program: ScenarioProgram,
    ms: MultiSample,
    discards,
    guard: int = 10**6,
) -> RemovalResult:
    """Exhaustive search over all per-stage removal combinations.

    Ties on the reduced objective break toward the lexicographically smallest
    removed-index tuple.  Guarded by the total combination count.  A base
    program that is not optimal comes back with no removals, its status on
    the solution and a NaN improvement.
    """
    budgets = _budgets(program, ms, discards)
    sizes = ms.sizes()
    total = 1
    for k, r in zip(sizes, budgets):
        total *= math.comb(k, r)
    if total > guard:
        raise ValueError(f"{total} removal combinations exceed the guard {guard}")

    assembled = AssembledProgram(program, ms)
    base = assembled.objective()
    if base is None:
        return _finish(program, ms, [], math.nan, assembled.to_solution(assembled.solve_lex()))

    best_obj = math.inf
    best_drop: list[tuple[int, int]] = []
    for combo in itertools.product(
        *[itertools.combinations(range(sizes[i]), budgets[i]) for i in range(len(sizes))]
    ):
        drop = [(i, kappa) for i in range(len(combo)) for kappa in combo[i]]
        obj = assembled.objective(drop=drop)
        if obj is None:
            continue
        if obj < best_obj - _OBJ_TIE_TOL * (1.0 + abs(obj)):
            best_obj = obj
            best_drop = drop
    solution = assembled.to_solution(assembled.solve_lex(drop=best_drop))
    return _finish(program, ms, best_drop, base, solution)


def _remove_sequentially(program: ScenarioProgram, ms: MultiSample, discards, pick) -> RemovalResult:
    """Drop one sample at a time, as chosen by ``pick``, re-solving after each.

    ``pick(assembled, current, drop, candidates)`` returns one of the
    candidates: the samples not yet dropped in stages with budget left, in
    (stage, sample) order.  The loop ends when the budgets are used up or a
    solve is not optimal; that solve's status is the result's status.
    """
    budgets = _budgets(program, ms, discards)
    sizes = ms.sizes()
    assembled = AssembledProgram(program, ms)
    current = assembled.to_solution(assembled.solve_lex())
    base = current.objective
    drop: list[tuple[int, int]] = []
    dropped: set[tuple[int, int]] = set()
    while current.status == "optimal" and any(budgets):
        candidates = [
            (i, kappa) for i in range(program.n_stages) if budgets[i] > 0
            for kappa in range(sizes[i]) if (i, kappa) not in dropped
        ]
        chosen = pick(assembled, current, drop, candidates)
        drop.append(chosen)
        dropped.add(chosen)
        budgets[chosen[0]] -= 1
        current = assembled.to_solution(assembled.solve_lex(drop=drop))
    return _finish(program, ms, drop, base, current)


def _lowest_objective(assembled, current, drop, candidates):
    """The candidate whose removal lowers the re-solved objective the most.

    Only active candidates are re-solved: a slack one cannot move the
    optimizer, so it ties at the current objective.  Ties go to the first.
    """
    active = [set(a) for a in current.active]
    best_obj = math.inf
    best = candidates[0]
    for i, kappa in candidates:
        obj = current.objective
        if kappa in active[i]:
            obj = assembled.objective(drop=drop + [(i, kappa)])
        if obj is not None and obj < best_obj - _OBJ_TIE_TOL * (1.0 + abs(obj)):
            best_obj = obj
            best = (i, kappa)
    return best


def _largest_multiplier(assembled, current, drop, candidates):
    """The candidate with the largest sample-aggregated multiplier.

    When every multiplier is numerically zero the choice falls to
    ``_lowest_objective`` over the active candidates; when nothing is active,
    to the first candidate.
    """
    mults = np.array([current.stage_duals[i][kappa] for i, kappa in candidates])
    top = float(mults.max())
    if top > 1e-9:
        return next(c for c, mult in zip(candidates, mults) if mult >= top - 1e-9 * (1.0 + top))
    active = [(i, kappa) for i, kappa in candidates if kappa in current.active[i]]
    return _lowest_objective(assembled, current, drop, active) if active else candidates[0]


def remove_greedy(program: ScenarioProgram, ms: MultiSample, discards) -> RemovalResult:
    """Sequential removal: each step drops the single constraint (over all
    stages with remaining budget) whose removal lowers the re-solved objective
    the most.  A base or reduced program that is not optimal ends the
    removals with its status and a NaN improvement.
    """
    return _remove_sequentially(program, ms, discards, _lowest_objective)


def remove_marginal(program: ScenarioProgram, ms: MultiSample, discards) -> RemovalResult:
    """Sequential removal guided by the largest Lagrange multiplier.

    Each step removes the constraint (within remaining budgets) whose
    sample-aggregated multiplier is largest; a step where every multiplier is
    numerically zero falls back to the greedy choice among the active
    constraints, and a step with nothing active removes the first remaining
    sample.  Ties break as in the greedy algorithm.  A base or reduced
    program that is not optimal ends the removals as in ``remove_greedy``.
    """
    return _remove_sequentially(program, ms, discards, _largest_multiplier)


def check_discard_assumption(
    program: ScenarioProgram, ms: MultiSample, result: RemovalResult
) -> list[str]:
    """Per-stage applicability of the discarding guarantee.

    A stage with removals passes as "violated-by-reduced" when every removed
    constraint is violated by the reduced solution (margin > 1e-9, which the
    NaN point of a non-optimal solution never has); otherwise a
    declared-monotone stage passes as "monotone-declared"; otherwise the
    stage is flagged FAIL, meaning the a-priori bound is not certified for it.
    """
    x = result.solution.x
    modes: list[str] = []
    for i, stage in enumerate(program.stages):
        removed = result.removed[i]
        if not removed:
            modes.append("none")
            continue
        all_violated = True
        for kappa in removed:
            a, b = stage.generator.rows(ms.outcomes[i][kappa])
            if not float(np.max(a @ x - b)) > _VIOLATION_MARGIN:
                all_violated = False
                break
        if all_violated:
            modes.append("violated-by-reduced")
        elif stage.monotone:
            modes.append("monotone-declared")
        else:
            modes.append("FAIL")
    return modes


def monotonicity_empirical_check(
    stage: StageSpec,
    cost: np.ndarray,
    box_lower: np.ndarray,
    box_upper: np.ndarray,
    trials: int,
    seed: int = 0,
    size_range: tuple[int, int] = (2, 6),
    probe_attempts: int = 200,
) -> tuple[bool, dict | None]:
    """Randomized falsification of the stage's monotonicity property.

    Each trial draws a fresh multisample for the stage alone, computes the
    stage-only cost-minimal point, picks a random feasible probe from the
    given box, and draws one more outcome.  A counterexample is an outcome
    that cuts the probe but not the cost-minimal point; the first one found
    is returned.

    The stage-only program lives over the extended reals, so it is solved
    inside a guard box far beyond the probe box; a trial whose optimum lands
    on the guard facets has its cost-minimal point at infinity, where the
    implication has no finite evaluation, and is skipped.
    """
    if stage.sampler is None:
        raise ValueError("stage has no sampler configured")
    cost = np.asarray(cost, dtype=float)
    box_lower = np.asarray(box_lower, dtype=float)
    box_upper = np.asarray(box_upper, dtype=float)
    d = cost.shape[0]
    eye = np.eye(d)
    guard = max(1e5, 1e3 * float(np.max(np.abs(np.concatenate([box_lower, box_upper])))))
    guard_a = np.vstack([eye, -eye])
    guard_b = np.full(2 * d, guard)
    rng = derived_stream(seed, NS_PROBE, stage.index if stage.index >= 0 else 0)

    lo, hi = size_range
    for _ in range(trials):
        k = int(rng.integers(lo, hi + 1))
        omega = stage.sampler.draw(rng, k)
        a_s, b_s = stage.generator.rows_batch(omega)
        rows_a = np.vstack([guard_a, a_s.reshape(-1, d)])
        rows_b = np.concatenate([guard_b, b_s.reshape(-1)])
        res = solve_lp_lexicographic(cost, rows_a, rows_b)
        if res.status != "optimal":
            continue
        x_min = res.x
        if float(np.max(np.abs(x_min))) >= guard * (1.0 - 1e-9):
            continue  # stage-only optimum escapes to infinity

        probe = None
        for _ in range(probe_attempts):
            xi = rng.uniform(box_lower, box_upper)
            if float(np.max(a_s.reshape(-1, d) @ xi - b_s.reshape(-1))) <= 0.0:
                probe = xi
                break
        if probe is None:
            continue

        fresh = stage.sampler.draw(rng, 1)[0]
        a_f, b_f = stage.generator.rows(fresh)
        cuts_probe = float(np.max(a_f @ probe - b_f)) > _VIOLATION_MARGIN
        cuts_min = float(np.max(a_f @ x_min - b_f)) > 0.0
        if cuts_probe and not cuts_min:
            return False, {
                "multisample": omega,
                "probe": probe,
                "outcome": fresh,
                "cost_minimal_point": x_min,
            }
    return True, None
