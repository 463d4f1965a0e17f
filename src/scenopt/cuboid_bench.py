"""Minimal-diameter-cuboid benchmark.

Find the axis-aligned box of minimal diagonal ||w||_2 containing a random
point, with a per-coordinate miss probability at most eps_i.  The multi-stage
treatment gives every coordinate its own constraint (support rank 2); the
single-stage treatment lumps all coordinates into one joint constraint at
level min(eps), which prices the whole search dimension into the sample size.

Because coordinates decouple, the sampled program is solved analytically: each
interval is the hull of that coordinate's samples.  The LP path over the
(z, w) layout with a width-sum objective reproduces the same (z, w) and is
used as a cross-check oracle in tests.

``cuboid_plan`` states the sizing rule once, through
``bounds.stage_sample_size`` at the implicit bound: support rank 2 at an even
share of the confidence budget per coordinate, against rank 2n + 1 at the
full budget for the joint constraint.  ``run_table1`` tabulates those sizes on
the benchmark grid; ``run_table2`` Monte-Carlos the relative objective surplus
of the single-stage treatment over the multi-stage one on that grid, and
``run_table2_cells`` on a list of named cells.  Both modes share one
Monte-Carlo block kernel.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import SampleSizePlan, StagePlan, split_confidence, stage_sample_size
from .program import (
    CuboidCoordinateGenerator,
    LinearRowsGenerator,
    MultiSample,
    NormalSampler,
    ScenarioProgram,
    Solution,
    StageSpec,
)
from .scenario_core import derived_stream

__all__ = [
    "TABLE_EPS",
    "TABLE_N",
    "CuboidInstance",
    "cuboid_plan",
    "cuboid_program",
    "cuboid_solve_analytic",
    "cuboid_support_sets",
    "run_table1",
    "run_table2",
    "run_table2_cells",
]

TABLE_EPS = (0.01, 0.05, 0.10, 0.25)
TABLE_N = (2, 3, 5, 10, 50, 100, 500)

_BOX_Z = 1e6
_BOX_W = 2e6


@dataclass
class CuboidInstance:
    """Benchmark configuration; the epigraph decision space is (z, w, W) with
    dimension 2n + 1."""

    n: int
    eps: float | tuple[float, ...]
    theta_total: float = 1e-6
    mode: str = "multi-stage"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cuboid dimension must be positive, got {self.n}")
        if self.mode not in ("multi-stage", "single-stage"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.eps, (int, float)):
            self.eps = (float(self.eps),) * self.n
        else:
            self.eps = tuple(float(e) for e in self.eps)
        if len(self.eps) != self.n:
            raise ValueError(f"need {self.n} eps values, got {len(self.eps)}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


def _normal_cdf(v: float) -> float:
    return 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


def _coordinate_miss(z: float, w: float) -> float:
    return _normal_cdf(z - w / 2.0) + 1.0 - _normal_cdf(z + w / 2.0)


def _multi_violation(i: int, n: int):
    def oracle(x: np.ndarray) -> float:
        return _coordinate_miss(float(x[i]), float(x[n + i]))

    return oracle


def _single_violation(n: int):
    def oracle(x: np.ndarray) -> float:
        inside = 1.0
        for i in range(n):
            inside *= 1.0 - _coordinate_miss(float(x[i]), float(x[n + i]))
        return 1.0 - inside

    return oracle


def cuboid_program(instance: CuboidInstance) -> ScenarioProgram:
    """LP-form program on x = (z, w): minimize the width sum.

    Width minimization decouples per coordinate, so the optimizer coincides
    with the minimal-diagonal solution; the epigraph variable W = ||w||_2 is
    recovered afterwards.  Outcomes are standard normal, and every stage
    carries its exact violation oracle.
    """
    n = instance.n
    d = 2 * n
    cost = np.concatenate([np.zeros(n), np.ones(n)])
    lower = np.concatenate([np.full(n, -_BOX_Z), np.zeros(n)])
    upper = np.concatenate([np.full(n, _BOX_Z), np.full(n, _BOX_W)])
    coordinates = [CuboidCoordinateGenerator(coordinate=i, n=n) for i in range(n)]
    if instance.mode == "multi-stage":
        stages = [
            StageSpec(
                eps=instance.eps[i],
                generator=generator,
                sampler=NormalSampler(dim=1),
                zeta_bar=2,
                monotone=False,
                violation_exact=_multi_violation(i, n),
            )
            for i, generator in enumerate(coordinates)
        ]
    else:
        generator = LinearRowsGenerator(
            a0=np.vstack([g.rank_rows() for g in coordinates]),
            b0=np.zeros(2 * n),
            b_delta=np.kron(np.eye(n), [[1.0], [-1.0]]),
        )
        stages = [
            StageSpec(
                eps=min(instance.eps),
                generator=generator,
                sampler=NormalSampler(dim=n),
                zeta_bar=d,
                monotone=False,
                violation_exact=_single_violation(n),
            )
        ]
    return ScenarioProgram(
        dim=d, cost=cost, box_lower=lower, box_upper=upper, stages=stages
    )


def cuboid_plan(instance: CuboidInstance) -> SampleSizePlan:
    """Implicit-bound sample sizes for the epigraph-form benchmark.

    Multi-stage: every coordinate stage has support rank 2 and receives an
    even share of the confidence budget.  Single-stage: the joint constraint
    is planned at the full search dimension 2n + 1 with level min(eps).
    Each distinct (rank, eps, theta) is inverted once.
    """
    if instance.mode == "multi-stage":
        thetas = split_confidence(instance.theta_total, instance.n)
        stages = [(2, eps, theta) for eps, theta in zip(instance.eps, thetas)]
    else:
        stages = [(instance.dim, min(instance.eps), instance.theta_total)]
    sizes = {key: stage_sample_size(*key, 0, "implicit") for key in dict.fromkeys(stages)}
    entries = []
    for i, (zeta, eps, theta) in enumerate(stages):
        size, used = sizes[zeta, eps, theta]
        entries.append(
            StagePlan(
                stage=i, size=size, discard=0, eps=eps,
                theta=theta, zeta_bar=zeta, method=used,
            )
        )
    return SampleSizePlan(stages=tuple(entries), theta_total=instance.theta_total)


def _cell_sizes(eps: float, n: int, theta_total: float) -> tuple[int, int]:
    """(k_multi, k_single) of the benchmark cell (eps, n), from ``cuboid_plan``."""
    multi, single = (
        cuboid_plan(CuboidInstance(n=n, eps=eps, theta_total=theta_total, mode=mode))
        for mode in ("multi-stage", "single-stage")
    )
    return multi.stages[0].size, single.stages[0].size


def _hull(values: np.ndarray) -> tuple[float, float]:
    return float(values.min()), float(values.max())


def cuboid_solve_analytic(instance: CuboidInstance, ms: MultiSample) -> Solution:
    """Closed-form optimizer in the (z, w, W) layout.

    Every coordinate interval is the hull of that coordinate's samples:
    z_i the midpoint, w_i the width, W the Euclidean norm of the widths.
    """
    n = instance.n
    z = np.zeros(n)
    w = np.zeros(n)
    if instance.mode == "multi-stage":
        if len(ms.outcomes) != n:
            raise ValueError(f"expected {n} stage samples, got {len(ms.outcomes)}")
        for i in range(n):
            values = ms.outcomes[i].reshape(-1)
            if values.size == 0:
                raise ValueError(f"stage {i} has no samples")
            lo, hi = _hull(values)
            z[i] = 0.5 * (lo + hi)
            w[i] = hi - lo
        active = [
            sorted(
                set(np.flatnonzero(ms.outcomes[i].reshape(-1) == ms.outcomes[i].min()).tolist())
                | set(np.flatnonzero(ms.outcomes[i].reshape(-1) == ms.outcomes[i].max()).tolist())
            )
            for i in range(n)
        ]
    else:
        if len(ms.outcomes) != 1:
            raise ValueError("single-stage mode expects one joint multisample")
        points = ms.outcomes[0]
        if points.size == 0:
            raise ValueError("empty sample set")
        tight: set[int] = set()
        for i in range(n):
            values = points[:, i]
            lo, hi = _hull(values)
            z[i] = 0.5 * (lo + hi)
            w[i] = hi - lo
            tight |= set(np.flatnonzero(values == lo).tolist())
            tight |= set(np.flatnonzero(values == hi).tolist())
        active = [sorted(tight)]
    diameter = float(np.linalg.norm(w))
    x = np.concatenate([z, w, [diameter]])
    return Solution(
        x=x, objective=diameter, status="optimal",
        active=active,
        stage_duals=[np.zeros(k) for k in ms.sizes()],
        fixed_duals=np.zeros(0),
    )


def cuboid_support_sets(instance: CuboidInstance, ms: MultiSample) -> list[list[int]]:
    """Support sets by the removal definition, using the analytic solver:
    a sample is a support constraint iff it is the strict extreme of some
    coordinate (removing it shrinks that interval)."""
    n = instance.n

    def strict_extremes(values: np.ndarray) -> set[int]:
        order = np.argsort(values, kind="stable")
        members: set[int] = set()
        if values.size >= 2:
            if values[order[0]] < values[order[1]]:
                members.add(int(order[0]))
            if values[order[-1]] > values[order[-2]]:
                members.add(int(order[-1]))
        return members

    if instance.mode == "multi-stage":
        return [sorted(strict_extremes(ms.outcomes[i].reshape(-1))) for i in range(n)]
    points = ms.outcomes[0]
    members: set[int] = set()
    for i in range(n):
        members |= strict_extremes(points[:, i])
    return [sorted(members)]


def run_table1(theta_total: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Planned sample sizes over the benchmark grid.

    Returns (multi, single), each a len(TABLE_EPS) x len(TABLE_N) integer
    array: multi-stage sizes at support rank 2 with the budget split over n
    stages, single-stage sizes at rank 2n + 1 with the full budget.
    """
    multi = np.zeros((len(TABLE_EPS), len(TABLE_N)), dtype=int)
    single = np.zeros_like(multi)
    for r, eps in enumerate(TABLE_EPS):
        for c, n in enumerate(TABLE_N):
            multi[r, c], single[r, c] = _cell_sizes(eps, n, theta_total)
    return multi, single


def _block_size(samples_per_replication: int) -> int:
    # ~2e7 doubles per block keeps the footprint near 160 MB even at the
    # largest grid cell; the size depends only on the cell, never on threads.
    return max(1, min(1024, int(2e7 // max(1, samples_per_replication))))


def _cell_surplus(
    n: int,
    k_multi: int,
    k_single: int,
    replications: int,
    seed: int,
    cell_id: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Mean and standard error of (W_single - W_multi) / W_multi.

    Every (mode, coordinate, block) triple draws from its own derived stream,
    so the two modes are independent and results are identical for any thread
    count or block schedule.
    """
    sizes = (k_multi, k_single)
    chunks = (_block_size(k_multi), _block_size(k_single))
    diameters = np.empty((2, replications))

    def run_block(mode: int, c: int) -> None:
        start = c * chunks[mode]
        count = min(chunks[mode], replications - start)
        squares = np.zeros(count)
        for i in range(n):
            rng = derived_stream(seed, 0, cell_id, mode, i, c)
            draws = rng.standard_normal((count, sizes[mode]))
            span = draws.max(axis=1) - draws.min(axis=1)
            squares += span * span
        diameters[mode, start : start + count] = np.sqrt(squares)

    jobs = [
        (mode, c)
        for mode in (0, 1)
        for c in range((replications + chunks[mode] - 1) // chunks[mode])
    ]
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        list(pool.map(lambda job: run_block(*job), jobs))

    w_multi, w_single = diameters
    ratio = (w_single - w_multi) / w_multi
    mean = float(ratio.mean())
    stderr = float(ratio.std(ddof=1) / math.sqrt(replications)) if replications > 1 else math.inf
    return mean, stderr


def run_table2(
    n_list: tuple[int, ...] | None = None,
    eps_list: tuple[float, ...] | None = None,
    replications: int = 10_000,
    seed: int = 0,
    theta_total: float = 1e-6,
    threads: int = 1,
) -> dict[tuple[float, int], tuple[float, float]]:
    """Relative objective surplus of the single-stage treatment over the grid
    ``eps_list`` x ``n_list`` (the full benchmark grid by default).

    The cells are computed by ``run_table2_cells`` in eps-major order.
    """
    n_list = TABLE_N if n_list is None else tuple(n_list)
    eps_list = TABLE_EPS if eps_list is None else tuple(eps_list)
    cells = [(eps, n) for eps in eps_list for n in n_list]
    return run_table2_cells(cells, replications, seed, theta_total, threads)


def run_table2_cells(
    cells: list[tuple[float, int]],
    replications: int = 10_000,
    seed: int = 0,
    theta_total: float = 1e-6,
    threads: int = 1,
) -> dict[tuple[float, int], tuple[float, float]]:
    """Relative objective surplus of the single-stage treatment, cell by cell.

    ``cells`` is a sequence of (eps, n) pairs.  Each cell draws
    ``replications`` independent runs of both modes at the sizes from
    ``cuboid_plan`` and averages the per-replication relative surplus; the
    returned dict maps (eps, n) to (mean, standard error).  A cell's streams
    are keyed by its position in ``cells``.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    result: dict[tuple[float, int], tuple[float, float]] = {}
    for cell_id, (eps, n) in enumerate(cells):
        k_multi, k_single = _cell_sizes(eps, n, theta_total)
        result[(eps, n)] = _cell_surplus(
            n, k_multi, k_single, replications, seed, cell_id, threads=threads
        )
    return result
