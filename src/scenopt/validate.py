"""A-posteriori violation estimation with exact binomial confidence intervals.

Fresh outcomes are drawn from validation streams that live in a namespace
disjoint from every training stream, so validation never sees training data.
A strict inequality counts as a violation; a constraint holding with equality
does not (ties are measure-zero for continuous samplers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .bounds import SampleSizePlan
from .program import ScenarioProgram, StageSpec
from .scenario_core import (
    NS_REPLICATION,
    NS_VALIDATION,
    derived_stream,
    draw_multisample,
    solve,
)

__all__ = [
    "ViolationEstimate",
    "SurveyResult",
    "clopper_pearson",
    "estimate_violation",
    "violation_survey",
]


@dataclass
class ViolationEstimate:
    stage: int
    n_val: int
    violations: int
    point: float
    ci_low: float
    ci_high: float
    alpha: float


def clopper_pearson(violations: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval at confidence 1 - alpha.

    Interior counts split alpha across both tails; the extreme counts 0 and n
    get one-sided intervals at the full alpha, so e.g. a single trial with a
    violation yields [alpha, 1].
    """
    if not 0 <= violations <= n:
        raise ValueError(f"need 0 <= violations <= n, got {violations}/{n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if violations == 0:
        return 0.0, 1.0 - alpha ** (1.0 / n)
    if violations == n:
        return alpha ** (1.0 / n), 1.0
    lo = float(betaincinv(violations, n - violations + 1, alpha / 2.0))
    hi = float(betaincinv(violations + 1, n - violations, 1.0 - alpha / 2.0))
    return lo, hi


def estimate_violation(
    x: np.ndarray,
    stage: StageSpec,
    n_val: int,
    alpha: float = 0.05,
    seed: int = 0,
) -> ViolationEstimate:
    """Monte-Carlo violation probability of ``x`` for one stage.

    Draws ``n_val`` outcomes from the stage's validation stream and counts the
    outcomes whose constraint is strictly violated at ``x``.
    """
    if stage.sampler is None:
        raise ValueError("stage has no sampler configured")
    if n_val < 1:
        raise ValueError(f"n_val must be positive, got {n_val}")
    x = np.asarray(x, dtype=float)
    rng = derived_stream(seed, NS_VALIDATION, max(stage.index, 0))
    draws = stage.sampler.draw(rng, n_val)
    a, b = stage.generator.rows_batch(draws)
    margins = np.einsum("krd,d->kr", a, x) - b
    violated = int(np.sum(np.max(margins, axis=1) > 0.0))
    lo, hi = clopper_pearson(violated, n_val, alpha)
    return ViolationEstimate(
        stage=stage.index, n_val=n_val, violations=violated,
        point=violated / n_val, ci_low=lo, ci_high=hi, alpha=alpha,
    )


@dataclass
class SurveyResult:
    violation: np.ndarray          # (replications, n_stages) per-stage V per run
    exceed_frequency: np.ndarray   # (n_stages,) empirical frequency of V > eps
    objectives: np.ndarray         # (replications,)
    infeasible: int
    replications: int


def _replication_seed(seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(NS_REPLICATION, int(rep)))
    words = ss.generate_state(2, dtype=np.uint64)
    return int(words[0]) << 64 | int(words[1])


def violation_survey(
    program: ScenarioProgram,
    plan: SampleSizePlan,
    replications: int,
    seed: int = 0,
    discard_algorithm=None,
    n_val: int = 10_000,
    alpha: float = 0.05,
) -> SurveyResult:
    """Repeat draw -> solve -> [discard] -> evaluate violation.

    Replications run one after another, each on its own derived seed, so
    any one of them can be rerun alone.  Stages carrying an exact violation
    oracle are evaluated through it; the rest are estimated by fresh
    Monte-Carlo sampling of ``n_val`` outcomes.  Replications whose solve is
    not optimal (infeasible, or stopped at the simplex iteration limit) are
    counted in ``infeasible`` and excluded from the violation sample; with
    discarding, that is the status of the removal result, which is not
    optimal when the base or a reduced program is not.

    ``discard_algorithm``: None or a callable (program, ms, discards) ->
    RemovalResult, e.g. ``remove_greedy``; budgets come from the plan.
    """
    if replications < 0:
        raise ValueError("replications must be nonnegative")
    n_stages = program.n_stages
    violation = np.full((replications, n_stages), np.nan)
    objectives = np.full(replications, np.nan)
    feasible = np.zeros(replications, dtype=bool)
    discards = plan.discards()

    for rep in range(replications):
        rep_seed = _replication_seed(seed, rep)
        ms = draw_multisample(program, plan, rep_seed)
        if discard_algorithm is not None and any(discards):
            result = discard_algorithm(program, ms, discards)
            solution = result.solution
        else:
            solution = solve(program, ms)
        if solution.status != "optimal":
            continue
        feasible[rep] = True
        objectives[rep] = solution.objective
        for i, stage in enumerate(program.stages):
            if stage.violation_exact is not None:
                violation[rep, i] = float(stage.violation_exact(solution.x))
            else:
                estimate = estimate_violation(solution.x, stage, n_val, alpha, rep_seed)
                violation[rep, i] = estimate.point

    n_feasible = int(np.sum(feasible))
    eps = np.array([stage.eps for stage in program.stages])
    if n_feasible:
        exceed = np.sum(violation[feasible] > eps[None, :], axis=0) / n_feasible
    else:
        exceed = np.zeros(n_stages)
    return SurveyResult(
        violation=violation,
        exceed_frequency=exceed,
        objectives=objectives,
        infeasible=replications - n_feasible,
        replications=replications,
    )
