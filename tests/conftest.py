"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from scenopt import lp
from scenopt.bounds import SampleSizePlan, StagePlan
from scenopt.probkernel import binomial_cdf
from scenopt.program import (
    ChoiceSampler,
    LinearRowsGenerator,
    ProductSampler,
    ScenarioProgram,
    StageSpec,
    UniformSampler,
)


def order_stats_program(eps: float = 0.1) -> ScenarioProgram:
    """min x subject to x >= delta, delta ~ U[0, 1]: the optimizer is the
    sample maximum and its violation probability is exactly 1 - x."""
    generator = LinearRowsGenerator(a0=[[-1.0]], b0=[0.0], b_delta=[[-1.0]])
    stage = StageSpec(
        eps=eps,
        generator=generator,
        sampler=UniformSampler(0.0, 1.0),
        zeta_bar=1,
        monotone=True,
        violation_exact=lambda x: 1.0 - float(x[0]),
    )
    return ScenarioProgram(
        dim=1,
        cost=np.array([1.0]),
        box_lower=np.array([-100.0]),
        box_upper=np.array([100.0]),
        stages=[stage],
    )


def single_stage_plan(size: int, eps: float, zeta_bar: int = 1, discard: int = 0) -> SampleSizePlan:
    theta = min(max(binomial_cdf(zeta_bar - 1 + discard, size, eps), 1e-300), 1.0 - 1e-12)
    return SampleSizePlan(
        stages=(
            StagePlan(
                stage=0, size=size, discard=discard, eps=eps,
                theta=theta, zeta_bar=zeta_bar, method="implicit",
            ),
        ),
        theta_total=theta,
    )


def random_lp_program(rng: np.random.Generator, dim: int = 2, n_stages: int = 1) -> ScenarioProgram:
    """Random bounded program with linear stages of support rank 2.

    Stage rows are a0 + delta_1 * u with an uncertain offset, so the origin
    is strictly feasible and the row directions span two dimensions.
    """
    cost = rng.standard_normal(dim)
    cost /= np.linalg.norm(cost)
    stages = []
    for _ in range(n_stages):
        u0 = rng.standard_normal(dim)
        u1 = rng.standard_normal(dim)
        generator = LinearRowsGenerator(
            a0=u0[None, :],
            b0=[1.0],
            a_delta=np.stack([u1, np.zeros(dim)])[None, :, :],
            b_delta=[[0.0, 0.2]],
        )
        stages.append(
            StageSpec(
                eps=0.1,
                generator=generator,
                sampler=UniformSampler(-1.0, 1.0, dim=2),
                zeta_bar=min(2, dim),
            )
        )
    return ScenarioProgram(
        dim=dim,
        cost=cost,
        box_lower=np.full(dim, -5.0),
        box_upper=np.full(dim, 5.0),
        stages=stages,
    )


def degenerate_lp_program(rng: np.random.Generator, dim: int, n_stages: int) -> ScenarioProgram:
    """``random_lp_program`` with outcomes drawn from {-1, 0, 1} x {-1, 1}.

    Outcomes repeat and more than ``dim`` rows can meet at a vertex, so a
    program often has several essential sets and the tie-break decides
    which one is minimal.
    """
    program = random_lp_program(rng, dim, n_stages)
    for stage in program.stages:
        stage.sampler = ProductSampler((ChoiceSampler((-1, 0, 1)), ChoiceSampler((-1, 1))))
    return program


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def simplex_runs(monkeypatch):
    """Counts dual-simplex runs: every LP solve is exactly one."""
    runs = []
    original = lp._dual_form_simplex

    def counted(*args):
        runs.append(1)
        return original(*args)

    monkeypatch.setattr(lp, "_dual_form_simplex", counted)
    return runs
