"""Solving scenario programs and identifying support/essential constraint sets.

Sampling is backed by counter-based PRNG streams (Philox) keyed on
(seed, namespace, stage), so every draw is bitwise reproducible regardless of
how work is scheduled across threads.  Training, tie-break, validation and
replication draws live in disjoint namespaces.

A sampled outcome may generate several linear rows; the outcome (sample) is
the unit for support/essential bookkeeping and for removal, matching the
pointwise-maximum reading of joint constraints.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .lp import SortedRows, solve_lp
from .program import MultiSample, ScenarioProgram, Solution

__all__ = [
    "NS_TRAIN",
    "NS_TIEBREAK",
    "NS_VALIDATION",
    "NS_REPLICATION",
    "NS_PROBE",
    "derived_stream",
    "draw_multisample",
    "AssembledProgram",
    "solve",
    "support_set",
    "essential_sets_bruteforce",
    "sampling_lemma_check",
    "support_rank_linear",
    "support_rank_quadratic",
]

# Stream namespaces.  Validation never reuses a training key because the
# namespaces differ in the first spawn-key word.
NS_TRAIN = 0
NS_TIEBREAK = 1
NS_VALIDATION = 2
NS_REPLICATION = 3
NS_PROBE = 4

# Displacement threshold declaring that an optimizer moved: 100x the solver
# tolerance so support detection never chases numerical noise.
SUPPORT_MOVE_TOL = 1e-7


def derived_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def draw_multisample(program: ScenarioProgram, plan, seed: int) -> MultiSample:
    """Draw K_i i.i.d. outcomes per stage, stage i from the stream
    (seed, NS_TRAIN, i).

    ``plan`` is either a SampleSizePlan or a plain sequence of sizes.  Only
    the outcomes are drawn; the tie-break values that
    ``essential_sets_bruteforce`` reads are derived from ``seed`` there.
    """
    sizes = tuple(plan.sizes()) if hasattr(plan, "sizes") else tuple(int(k) for k in plan)
    if len(sizes) != program.n_stages:
        raise ValueError(f"plan has {len(sizes)} stages, program has {program.n_stages}")
    outcomes = []
    for i, stage in enumerate(program.stages):
        if stage.sampler is None:
            raise ValueError(f"stage {i} has no sampler configured")
        outcomes.append(stage.sampler.draw(derived_stream(seed, NS_TRAIN, i), sizes[i]))
    return MultiSample(outcomes=outcomes, seed=int(seed))


class AssembledProgram:
    """Row-level view of (program, multisample) that ``solve`` keeps on its Solution.

    Rows are ordered: box facets (upper then lower), deterministic rows, then
    sampled rows stage by stage.  The LP's canonical row sort, the transposed
    matrix, the box-row positions (``rows``) and the full lexicographic solve
    (``base``) are computed once here, so removal of a sample is a keep mask
    in that sorted order: support sets, removals and brute-force searches
    never re-assemble, re-sort or re-solve the full program.
    """

    def __init__(self, program: ScenarioProgram, ms: MultiSample):
        self.program = program
        self.ms = ms
        d = program.dim
        eye = np.eye(d)
        blocks_a = [eye, -eye]
        blocks_b = [program.box_upper.astype(float), -program.box_lower.astype(float)]
        if program.det_a is not None:
            blocks_a.append(program.det_a)
            blocks_b.append(program.det_b)
        self.n_fixed = 2 * d + (0 if program.det_a is None else program.det_a.shape[0])

        self.sizes = ms.sizes()
        self.stage_uid_base = np.concatenate([[0], np.cumsum(self.sizes)])[:-1]
        uid_parts = [np.full(self.n_fixed, -1)]
        for i, stage in enumerate(program.stages):
            a_i, b_i = stage.generator.rows_batch(ms.outcomes[i])
            k_i, r_i = b_i.shape
            blocks_a.append(a_i.reshape(k_i * r_i, d))
            blocks_b.append(b_i.reshape(-1))
            uid_parts.append(np.repeat(np.arange(k_i) + self.stage_uid_base[i], r_i))
        self.a = np.vstack(blocks_a)
        self.b = np.concatenate(blocks_b)
        # Sample id of each row, stage_uid_base[i] + kappa; -1 on the box
        # and deterministic rows, which no removal touches.
        self.uid = np.concatenate(uid_parts)
        self.total_samples = int(sum(self.sizes))
        self.rows = SortedRows(self.a, self.b)
        self._sorted_uid = self.uid[self.rows.order]

    def _keep(self, drop) -> np.ndarray | None:
        """Keep mask in the sorted row order; None when nothing is dropped."""
        if not drop:
            return None
        # A lookup table over the sample ids; uid -1 reads the spare last
        # slot, which stays False.  (np.isin costs 5x as much per call.)
        dropped = np.zeros(self.total_samples + 1, dtype=bool)
        dropped[[self.stage_uid_base[i] + kappa for i, kappa in drop]] = True
        return ~dropped[self._sorted_uid]

    @functools.cached_property
    def base(self):
        """The full program's lexicographic solve, made once."""
        return self.solve_lex()

    def solve_lex(self, drop=(), start=None):
        """Lexicographic solve without the samples in ``drop``, duals aligned
        to the assembled rows.  ``start``, an optimal result of this
        program, makes the solve warm-start from its basis; warm or cold,
        it is one simplex run to the same lexicographic minimizer."""
        rows = self.rows.select(self._keep(drop), start)
        return solve_lp(self.program.cost, rows)

    def to_solution(self, res) -> Solution:
        if res.status != "optimal":
            return Solution(
                x=np.full(self.program.dim, np.nan), objective=math.nan, status=res.status,
                active=[[] for _ in self.program.stages],
                stage_duals=[np.zeros(k) for k in self.sizes],
                fixed_duals=np.zeros(self.n_fixed),
            )
        x = res.x
        sampled = slice(self.n_fixed, None)
        uid = self.uid[sampled]
        residual = self.a[sampled] @ x - self.b[sampled]
        tight_rows = residual >= -1e-7 * (1.0 + np.abs(self.b[sampled]))
        tight_counts = np.bincount(uid[tight_rows], minlength=self.total_samples)
        dual_agg = np.bincount(uid, weights=res.duals[sampled], minlength=self.total_samples)
        active: list[list[int]] = []
        stage_duals: list[np.ndarray] = []
        for i in range(self.program.n_stages):
            base = self.stage_uid_base[i]
            k_i = self.sizes[i]
            active.append(np.flatnonzero(tight_counts[base : base + k_i]).tolist())
            stage_duals.append(dual_agg[base : base + k_i])
        return Solution(
            x=x, objective=res.objective, status="optimal",
            active=active, stage_duals=stage_duals,
            fixed_duals=res.duals[: self.n_fixed].copy(),
        )


def solve(program: ScenarioProgram, ms: MultiSample) -> Solution:
    """Unique optimizer of the assembled program under the lexicographic
    tie-break.  Infeasibility is surfaced through ``status``.  The solution
    keeps the one ``AssembledProgram`` of (program, ms) and its full solve
    (``base``), which ``support_set`` and the removals re-solve from."""
    assembled = AssembledProgram(program, ms)
    solution = assembled.to_solution(assembled.base)
    solution._assembled = assembled
    return solution


def _moved(x_new: np.ndarray, x_ref: np.ndarray) -> bool:
    return bool(np.max(np.abs(x_new - x_ref)) > SUPPORT_MOVE_TOL)


def support_set(
    program: ScenarioProgram, ms: MultiSample, solution: Solution
) -> list[list[int]]:
    """Per-stage indices whose removal moves the optimizer.

    ``solution`` must be what ``solve(program, ms)`` returned for these
    objects (ValueError otherwise); each drop-one re-solve starts from the
    basis of the full solve it keeps.  Only samples active at the optimum are
    candidates: removing a constraint that is slack at the unique optimizer
    cannot move it.
    """
    if solution.status != "optimal":
        raise ValueError("support sets are defined for optimal solutions only")
    assembled = solution._assembled
    if assembled is None or assembled.program is not program or assembled.ms is not ms:
        raise ValueError("solution was not returned by solve for this program and multisample")
    result: list[list[int]] = []
    for i in range(program.n_stages):
        members = []
        for kappa in solution.active[i]:
            res = assembled.solve_lex(drop=[(i, kappa)], start=assembled.base)
            if res.status != "optimal" or _moved(res.x, solution.x):
                members.append(kappa)
        result.append(members)
    return result


def _tie_breaks(ms: MultiSample, stage: int) -> np.ndarray:
    """Stage ``stage``'s tie-break values, one per sample, from the stream
    (ms.seed, NS_TIEBREAK, stage), redrawn from it until they are distinct."""
    size = ms.outcomes[stage].shape[0]
    rng = derived_stream(ms.seed, NS_TIEBREAK, stage)
    ties = rng.uniform(size=size)
    while np.unique(ties).size < size:
        ties = rng.uniform(size=size)
    return ties


def essential_sets_bruteforce(
    program: ScenarioProgram, ms: MultiSample, max_total: int = 16
) -> tuple[list[tuple[tuple[int, int], ...]], tuple[tuple[int, int], ...]]:
    """Enumerate every essential set, plus the tie-break-minimal one.

    A subset of the sampled constraints is essential when the reduced problem
    reproduces the full optimizer and every member is a support constraint of
    the reduced problem.  The deterministic set is implicitly part of every
    reduced problem; an empty tuple therefore stands for "the deterministic
    set alone".

    The minimal set is the shortest essential set with the lowest sum of
    tie-break values.  Those values are derived from ``ms.seed`` in the
    NS_TIEBREAK namespace, one distinct uniform value per sample, so the
    rule is symmetric in the samples and reproducible from the seed.

    Returns (all_essential_sets, minimal_essential_set), each set a sorted
    tuple of (stage, sample) pairs.

    Raises:
        ValueError: if the total number of sampled constraints exceeds
            ``max_total`` (exhaustive enumeration guard).
    """
    sizes = ms.sizes()
    total = int(sum(sizes))
    if total > max_total:
        raise ValueError(f"{total} sampled constraints exceed the brute-force guard {max_total}")
    solution = solve(program, ms)
    if solution.status != "optimal":
        raise ValueError(f"full problem is not solvable: status {solution.status}")
    assembled, x_full = solution._assembled, solution.x

    all_pairs = [(i, kappa) for i in range(len(sizes)) for kappa in range(sizes[i])]
    cache: dict[frozenset, np.ndarray | None] = {}

    def solve_subset(kept: frozenset) -> np.ndarray | None:
        if kept not in cache:
            drop = [p for p in all_pairs if p not in kept]
            res = assembled.solve_lex(drop=drop)
            cache[kept] = res.x if res.status == "optimal" else None
        return cache[kept]

    essential: list[tuple[tuple[int, int], ...]] = []
    for size in range(total + 1):
        for subset in itertools.combinations(all_pairs, size):
            kept = frozenset(subset)
            x_sub = solve_subset(kept)
            if x_sub is None or _moved(x_sub, x_full):
                continue
            ok = True
            for member in subset:
                x_less = solve_subset(kept - {member})
                if x_less is not None and not _moved(x_less, x_sub):
                    ok = False
                    break
            if ok:
                essential.append(tuple(sorted(subset)))

    if not essential:
        raise ArithmeticError("no essential set found; numerical tolerances are inconsistent")

    ties = [_tie_breaks(ms, i) for i in range(len(sizes))]
    minimal = min(essential, key=lambda s: (len(s), sum(ties[i][k] for i, k in s), s))
    return essential, minimal


def sampling_lemma_check(
    program: ScenarioProgram,
    ms: MultiSample,
    extra_outcome: np.ndarray,
    stage: int,
    max_total: int = 16,
) -> bool:
    """Single-instance check of the implication: the optimizer violates an
    additional sampled constraint => that constraint is in the minimal
    essential set of the augmented problem.  Vacuously true when the extra
    constraint is satisfied.  The augmented multisample is ``ms``'s outcomes
    with ``extra_outcome`` appended to stage ``stage``, under ``ms.seed``."""
    solution = solve(program, ms)
    if solution.status != "optimal":
        raise ValueError(f"base problem not solvable: status {solution.status}")
    a, b = program.stages[stage].generator.rows(np.atleast_1d(extra_outcome))
    if np.all(a @ solution.x - b <= 0.0):
        return True

    outcomes = list(ms.outcomes)
    extra = np.atleast_1d(np.asarray(extra_outcome, dtype=float))
    outcomes[stage] = np.vstack([outcomes[stage], extra[None, :]])
    augmented = MultiSample(outcomes=outcomes, seed=ms.seed)
    _, minimal = essential_sets_bruteforce(program, augmented, max_total=max_total)
    return (stage, ms.outcomes[stage].shape[0]) in minimal


def support_rank_linear(rows: np.ndarray) -> int:
    """Dimension of the span of every constraint-row direction a stage can
    produce; this bounds how many constraints the stage can contribute to an
    essential set."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        raise ValueError("need at least one row")
    smax = float(np.linalg.svd(rows, compute_uv=False)[0]) if rows.any() else 0.0
    if smax == 0.0:
        return 0
    return int(np.linalg.matrix_rank(rows, tol=1e-10 * max(1.0, smax)))


def support_rank_quadratic(q: np.ndarray) -> int:
    """Rank of the PSD quadratic form: directions in its nullspace can never
    be constrained, so the rank bounds the stage's essential contribution."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"matrix must be square, got shape {q.shape}")
    if not np.allclose(q, q.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
    if eigs.size and float(eigs[0]) < -1e-10 * scale:
        raise ValueError("matrix must be positive semi-definite")
    return int(np.sum(eigs > 1e-10 * scale))
