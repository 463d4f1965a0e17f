"""Data model for multi-stage scenario programs.

A program is a linear cost over a box-bounded search space plus a list of
stages.  Each stage owns a chance-constraint family: a generator mapping an
uncertainty outcome to one or more linear rows a'x <= b (several rows per
outcome form one joint constraint, handled as their pointwise maximum), a
violation level, an optional support-rank bound, and a sampler used for
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "LinearRowsGenerator",
    "CuboidCoordinateGenerator",
    "NormalSampler",
    "UniformSampler",
    "ChoiceSampler",
    "ProductSampler",
    "StageSpec",
    "ScenarioProgram",
    "MultiSample",
    "Solution",
    "program_from_json",
    "solution_to_json",
]


# ---------------------------------------------------------------------------
# constraint generators

@dataclass
class LinearRowsGenerator:
    """Rows affine in the uncertainty: A(delta) x <= b(delta) with

        A(delta) = a0 + sum_k delta_k * a_delta[:, k, :]
        b(delta) = b0 + sum_k delta_k * b_delta[:, k]
    """

    a0: np.ndarray  # (r, d)
    b0: np.ndarray  # (r,)
    a_delta: np.ndarray | None = None  # (r, delta_dim, d)
    b_delta: np.ndarray | None = None  # (r, delta_dim)

    def __post_init__(self) -> None:
        self.a0 = np.atleast_2d(np.asarray(self.a0, dtype=float))
        self.b0 = np.atleast_1d(np.asarray(self.b0, dtype=float))
        if self.a_delta is not None:
            self.a_delta = np.asarray(self.a_delta, dtype=float)
        if self.b_delta is not None:
            self.b_delta = np.atleast_2d(np.asarray(self.b_delta, dtype=float))

    def rows(self, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.rows_batch(np.atleast_1d(np.asarray(delta, dtype=float))[None, :])
        return a[0], b[0]

    def rows_batch(self, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows for a whole multisample: (K, r, d) coefficients, (K, r) bounds."""
        outcomes = np.asarray(outcomes, dtype=float)
        k = outcomes.shape[0]
        a = np.broadcast_to(self.a0, (k, *self.a0.shape)).copy()
        b = np.broadcast_to(self.b0, (k, self.b0.shape[0])).copy()
        if self.a_delta is not None:
            a += np.einsum("nk,rkd->nrd", outcomes, self.a_delta)
        if self.b_delta is not None:
            b += outcomes @ self.b_delta.T
        return a, b

    def rank_rows(self) -> np.ndarray:
        """Spanning set for every row direction the stage can produce."""
        parts = [self.a0]
        if self.a_delta is not None:
            parts.append(self.a_delta.reshape(-1, self.a0.shape[1]))
        return np.vstack(parts)


@dataclass
class CuboidCoordinateGenerator:
    """Interval-membership constraint |delta - z_i| <= w_i / 2 on coordinate i.

    Operates on the layout x = (z_1..z_n, w_1..w_n); each scalar outcome
    yields the joint pair  z_i - w_i/2 <= delta  and  delta <= z_i + w_i/2.
    """

    coordinate: int
    n: int

    def rows(self, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.rows_batch(np.atleast_1d(np.asarray(delta, dtype=float))[None, :])
        return a[0], b[0]

    def rows_batch(self, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(outcomes, dtype=float).reshape(-1)
        k = values.shape[0]
        d = 2 * self.n
        i = self.coordinate
        a = np.zeros((k, 2, d))
        a[:, 0, i] = 1.0
        a[:, 0, self.n + i] = -0.5
        a[:, 1, i] = -1.0
        a[:, 1, self.n + i] = -0.5
        b = np.stack([values, -values], axis=1)
        return a, b

    def rank_rows(self) -> np.ndarray:
        """The coordinate's row pair; its coefficients do not depend on delta."""
        return self.rows_batch(np.zeros(1))[0][0]


# ---------------------------------------------------------------------------
# samplers

@dataclass
class NormalSampler:
    mean: float = 0.0
    std: float = 1.0
    dim: int = 1

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal((size, self.dim))


@dataclass
class UniformSampler:
    low: float = 0.0
    high: float = 1.0
    dim: int = 1

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(size, self.dim))


@dataclass
class ChoiceSampler:
    values: tuple[float, ...]
    dim: int = 1

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        picks = rng.integers(0, len(self.values), size=(size, self.dim))
        return np.asarray(self.values, dtype=float)[picks]


@dataclass
class ProductSampler:
    """Independent components, one sub-sampler each, side by side."""

    parts: tuple

    @property
    def dim(self) -> int:
        return sum(part.dim for part in self.parts)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cols = [part.draw(rng, size).reshape(size, -1) for part in self.parts]
        return np.hstack(cols)


# ---------------------------------------------------------------------------
# program and results

@dataclass
class StageSpec:
    """One chance constraint: generator, level, rank bound, simulation hooks."""

    eps: float
    generator: LinearRowsGenerator | CuboidCoordinateGenerator
    sampler: object | None = None
    zeta_bar: int | None = None
    monotone: bool = False
    violation_exact: Callable[[np.ndarray], float] | None = None
    index: int = -1


@dataclass
class ScenarioProgram:
    dim: int
    cost: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    stages: list[StageSpec] = field(default_factory=list)
    det_a: np.ndarray | None = None
    det_b: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        self.cost = np.asarray(self.cost, dtype=float)
        self.box_lower = np.asarray(self.box_lower, dtype=float)
        self.box_upper = np.asarray(self.box_upper, dtype=float)
        if self.cost.shape != (self.dim,):
            raise ValueError(f"cost must have length {self.dim}, got shape {self.cost.shape}")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("cost must be finite")
        if self.box_lower.shape != (self.dim,) or self.box_upper.shape != (self.dim,):
            raise ValueError("box bounds must match the search dimension")
        if not (np.all(np.isfinite(self.box_lower)) and np.all(np.isfinite(self.box_upper))):
            raise ValueError("box bounds must be finite: the search space has to be compact")
        if np.any(self.box_lower > self.box_upper):
            raise ValueError("box lower bounds exceed upper bounds")
        if self.det_a is not None:
            self.det_a = np.atleast_2d(np.asarray(self.det_a, dtype=float))
            self.det_b = np.atleast_1d(np.asarray(self.det_b, dtype=float))
            if self.det_a.shape[1] != self.dim or self.det_a.shape[0] != self.det_b.shape[0]:
                raise ValueError("deterministic rows have inconsistent shapes")
        for i, stage in enumerate(self.stages):
            stage.index = i
            if not 0.0 < stage.eps < 1.0:
                raise ValueError(f"stage {i}: eps must lie in (0, 1), got {stage.eps}")
            if stage.zeta_bar is not None and not 1 <= stage.zeta_bar <= self.dim:
                raise ValueError(
                    f"stage {i}: zeta_bar must lie in [1, {self.dim}], got {stage.zeta_bar}"
                )

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass
class MultiSample:
    """Per-stage outcome arrays and the seed they were drawn from.

    The seed also keys the tie-break values with which
    ``scenario_core.essential_sets_bruteforce`` picks one minimal essential
    set; they are derived there, from the seed, when that search reads them.
    """

    outcomes: list[np.ndarray]       # stage i -> (K_i, delta_dim)
    seed: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(o.shape[0] for o in self.outcomes)


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    status: str
    active: list[list[int]]          # per stage: sample indices with a tight row
    stage_duals: list[np.ndarray]    # per stage: multiplier aggregated per sample
    fixed_duals: np.ndarray          # box facets then deterministic rows
    # The AssembledProgram this was solved from, set by scenario_core.solve only.
    _assembled: object = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# JSON interchange

_BIG_BOX = 1e6


def _typed(node: dict, key: str, kind: type, default=None):
    """``node[key]``, or ``default`` when given and the key is absent, which
    must be a JSON value of type ``kind`` (true and false are not integers)."""
    value = node[key] if default is None else node.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _sampler_from_json(node: dict):
    kind = node.get("type")
    if kind == "normal":
        return NormalSampler(
            mean=float(node.get("mean", 0.0)),
            std=float(node.get("std", 1.0)),
            dim=_typed(node, "dim", int, 1),
        )
    if kind == "uniform":
        low, high = float(node.get("low", 0.0)), float(node.get("high", 1.0))
        if not low <= high:
            raise ValueError(f"uniform sampler needs low <= high, got low {low}, high {high}")
        return UniformSampler(low=low, high=high, dim=_typed(node, "dim", int, 1))
    if kind == "choice":
        values = node.get("values")
        if not values:
            raise ValueError("choice sampler needs a nonempty 'values' list")
        return ChoiceSampler(values=tuple(float(v) for v in values))
    if kind == "product":
        return ProductSampler(parts=tuple(_sampler_from_json(p) for p in node["components"]))
    raise ValueError(f"unknown sampler type {kind!r}")


def _row_field(row: dict, key: str, shape: tuple, required: bool = False) -> np.ndarray:
    """A linear generator row's field as an array of ``shape``; zeros when
    an optional field is absent."""
    if key not in row and not required:
        return np.zeros(shape)
    value = np.asarray(row[key], dtype=float)
    if value.shape != shape:
        raise ValueError(f"generator row field {key!r} has shape {value.shape}, expected {shape}")
    return value


def _generator_from_json(node: dict, dim: int):
    """The generator and the dimension of the outcomes it takes."""
    kind = node.get("type")
    if kind == "linear":
        rows = node.get("rows")
        if not rows:
            raise ValueError("linear generator needs a nonempty 'rows' list")
        delta_dim = _typed(node, "delta_dim", int, 1)
        if delta_dim < 1:
            raise ValueError(f"delta_dim must be positive, got {delta_dim}")
        a0 = np.array([_row_field(row, "a0", (dim,), required=True) for row in rows])
        b0 = np.array([_row_field(row, "b0", ()) for row in rows])
        a_delta = b_delta = None
        if any("a_delta" in row for row in rows):
            a_delta = np.array([_row_field(row, "a_delta", (delta_dim, dim)) for row in rows])
        if any("b_delta" in row for row in rows):
            b_delta = np.array([_row_field(row, "b_delta", (delta_dim,)) for row in rows])
        return LinearRowsGenerator(a0=a0, b0=b0, a_delta=a_delta, b_delta=b_delta), delta_dim
    if kind == "cuboid":
        if dim % 2 != 0:
            raise ValueError("cuboid stages expect the (z, w) layout with an even dimension")
        coordinate = _typed(node, "coordinate", int)
        if not 0 <= coordinate < dim // 2:
            raise ValueError(f"cuboid coordinate must lie in [0, {dim // 2}), got {coordinate}")
        return CuboidCoordinateGenerator(coordinate=coordinate, n=dim // 2), 1
    raise ValueError(f"unknown generator type {kind!r}")


def program_from_json(doc: dict) -> ScenarioProgram:
    """Build a program from its JSON document; raises ValueError on schema errors."""
    try:
        return _program_from_json(doc)
    except KeyError as exc:
        raise ValueError(f"program document missing required field: {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"program document has a malformed field: {exc}") from exc


def _program_from_json(doc: dict) -> ScenarioProgram:
    dim = _typed(doc, "dimension", int)
    cost = np.asarray(doc["cost"], dtype=float)
    box = doc.get("box", {})
    lower = np.asarray(box.get("lower", [-_BIG_BOX] * dim), dtype=float)
    upper = np.asarray(box.get("upper", [_BIG_BOX] * dim), dtype=float)
    det_a = det_b = None
    det_rows = doc.get("deterministic_rows")
    if det_rows:
        det_a = np.array([row["a"] for row in det_rows], dtype=float)
        det_b = np.array([row["b"] for row in det_rows], dtype=float)
    stages = []
    for i, node in enumerate(doc.get("stages", [])):
        generator, delta_dim = _generator_from_json(node["generator"], dim)
        sampler = _sampler_from_json(node["sampler"]) if "sampler" in node else None
        if sampler is not None and sampler.dim != delta_dim:
            raise ValueError(
                f"stage {i}: the sampler draws {sampler.dim}-dimensional outcomes, "
                f"the generator takes {delta_dim}"
            )
        stages.append(
            StageSpec(
                eps=float(node["eps"]),
                generator=generator,
                sampler=sampler,
                zeta_bar=None if node.get("zeta_bar") is None else _typed(node, "zeta_bar", int),
                monotone=_typed(node, "monotone", bool, False),
            )
        )
    return ScenarioProgram(
        dim=dim, cost=cost, box_lower=lower, box_upper=upper,
        stages=stages, det_a=det_a, det_b=det_b,
    )


def solution_to_json(solution: Solution, support: list[list[int]] | None = None) -> dict:
    doc = {
        "status": solution.status,
        "x": [float(v) for v in solution.x] if solution.status == "optimal" else None,
        "objective": float(solution.objective) if solution.status == "optimal" else None,
        "active": [[int(k) for k in stage] for stage in solution.active],
        "stage_duals": [[float(v) for v in d] for d in solution.stage_duals],
        "fixed_duals": [float(v) for v in solution.fixed_duals],
    }
    if support is not None:
        doc["support"] = [[int(k) for k in stage] for stage in support]
    return doc
