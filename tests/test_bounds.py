import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from scenopt.bounds import (
    SampleSizePlan,
    StagePlan,
    chernoff_sample_size,
    discard_posterior_confidence,
    explicit_sample_size_with_discarding,
    implicit_sample_size,
    implicit_sample_size_with_discarding,
    max_discardable,
    plan_multistage,
    refined_sample_size,
    split_confidence,
)
from scenopt.probkernel import binomial_cdf, binomial_tail_leq_exact
from scenopt.cuboid_bench import CuboidInstance, cuboid_program
from scenopt.program import program_from_json

from conftest import random_lp_program

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


class TestSplitConfidence:
    def test_even_split(self):
        assert split_confidence(1e-6, 2) == (5e-7, 5e-7)

    def test_single_stage(self):
        assert split_confidence(0.3, 1) == (0.3,)

    def test_weighted(self):
        thetas = split_confidence(1e-6, 4, (0.5, 0.25, 0.125, 0.125))
        assert thetas == (5e-7, 2.5e-7, 1.25e-7, 1.25e-7)

    def test_sum_is_exact(self):
        thetas = split_confidence(1e-6, 7)
        assert math.fsum(thetas) == pytest.approx(1e-6, rel=1e-15)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            split_confidence(1e-6, 2, (0.7, 0.7))
        with pytest.raises(ValueError):
            split_confidence(1e-6, 2, (1.2, -0.2))
        with pytest.raises(ValueError):
            split_confidence(0.0, 2)


class TestImplicitSampleSize:
    def test_reference_values(self):
        assert implicit_sample_size(2, 0.01, 5e-7) == 1734
        assert implicit_sample_size(2, 0.10, 5e-7) == 166
        assert implicit_sample_size(5, 0.01, 1e-6) == 2334

    def test_minimality(self, rng):
        for _ in range(40):
            zeta = int(rng.integers(1, 12))
            eps = float(rng.uniform(0.02, 0.4))
            theta = float(10.0 ** rng.uniform(-9, -1))
            k = implicit_sample_size(zeta, eps, theta)
            assert binomial_cdf(zeta - 1, k, eps) <= theta
            if k > zeta + 1:
                assert binomial_cdf(zeta - 1, k - 1, eps) > theta

    def test_exact_rational_minimality(self):
        # Phi(R + zeta - 1; K, eps) <= theta / C(R + zeta - 1, R) decided in
        # exact arithmetic, on the exact values of the doubles passed in.
        for zeta in (1, 2, 5):
            for eps in (1 / 100, 1 / 20, 1 / 10):
                for theta in (1e-6, 1e-9):
                    for r in (0, 1, 5):
                        if r == 0:
                            k = implicit_sample_size(zeta, eps, theta)
                        else:
                            k = implicit_sample_size_with_discarding(zeta, eps, theta, r)
                        x = r + zeta - 1
                        bound = Fraction(theta) / math.comb(x, r)
                        assert binomial_tail_leq_exact(x, k, Fraction(eps), bound)
                        if k > zeta + r + 1:
                            assert not binomial_tail_leq_exact(x, k - 1, Fraction(eps), bound)

    def test_floor_at_rank_plus_one(self):
        # the closed-form inversion alone would give 1; the size floor
        # K >= zeta_bar + 1 required by the guarantee wins
        assert implicit_sample_size(1, 0.5, 0.5) == 2
        assert implicit_sample_size(3, 0.9, 0.9) == 4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            implicit_sample_size(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            implicit_sample_size(1, 1.5, 0.1)
        with pytest.raises(ValueError):
            implicit_sample_size(1, 0.1, 0.0)


class TestExplicitSampleSizes:
    def test_chernoff_hand_value(self):
        assert chernoff_sample_size(2, 0.10, 1e-6) == 297
        assert chernoff_sample_size(2, 0.10, 1e-6) == math.ceil(
            20.0 * (math.log(1e6) + 1.0)
        )

    def test_chernoff_rank_one(self):
        for eps, theta in [(0.1, 1e-3), (0.05, 1e-6), (0.3, 1e-2)]:
            assert chernoff_sample_size(1, eps, theta) == math.ceil(
                (2.0 / eps) * math.log(1.0 / theta)
            )

    def test_refined_rank_one(self):
        for eps, theta in [(0.1, 1e-3), (0.05, 1e-6)]:
            assert refined_sample_size(1, eps, theta) == math.ceil(
                (1.0 / eps) * math.log(1.0 / theta)
            )

    def test_refined_hand_value(self):
        expected = math.ceil(10.0 * (math.log(1e6) + math.sqrt(2.0 * math.log(1e6)) + 1.0))
        assert refined_sample_size(2, 0.10, 1e-6) == expected

    def test_ordering_spot(self, rng):
        for _ in range(100):
            zeta = int(rng.integers(1, 30))
            eps = float(rng.uniform(0.01, 0.3))
            theta = float(10.0 ** rng.uniform(-9, -2))
            implicit = implicit_sample_size(zeta, eps, theta)
            refined = refined_sample_size(zeta, eps, theta)
            chernoff = chernoff_sample_size(zeta, eps, theta)
            assert implicit <= refined <= chernoff


class TestDiscardBounds:
    def test_no_discard_reduces_to_sampling_tail(self):
        for zeta, k, eps in [(1, 10, 0.3), (2, 50, 0.1), (4, 200, 0.05)]:
            assert discard_posterior_confidence(zeta, k, 0, eps) == pytest.approx(
                binomial_cdf(zeta - 1, k, eps), rel=1e-12
            )

    def test_direct_sum_oracle(self):
        expected = math.comb(1, 1) * binomial_cdf(1, 10, 0.3)
        assert discard_posterior_confidence(1, 10, 1, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_reference_consistency(self):
        assert discard_posterior_confidence(2, 1734, 0, 0.01) <= 5e-7

    def test_precondition(self):
        with pytest.raises(ValueError):
            discard_posterior_confidence(2, 5, 4, 0.1)

    def test_monotone_in_size_and_discard(self, rng):
        for _ in range(50):
            zeta = int(rng.integers(1, 6))
            k = int(rng.integers(zeta + 12, 300))
            r = int(rng.integers(0, 8))
            eps = float(rng.uniform(0.05, 0.4))
            base = discard_posterior_confidence(zeta, k, r, eps)
            assert discard_posterior_confidence(zeta, k + 1, r, eps) <= base + 1e-14
            assert discard_posterior_confidence(zeta, k, r + 1, eps) >= base - 1e-14

    def test_implicit_with_discarding_reduces(self):
        for zeta, eps, theta in [(1, 0.1, 1e-3), (2, 0.05, 1e-6)]:
            assert implicit_sample_size_with_discarding(
                zeta, eps, theta, 0
            ) == implicit_sample_size(zeta, eps, theta)

    def test_implicit_with_discarding_scan_oracle(self):
        k = implicit_sample_size_with_discarding(2, 0.10, 5e-7, 10)
        assert discard_posterior_confidence(2, k, 10, 0.10) <= 5e-7
        assert discard_posterior_confidence(2, k - 1, 10, 0.10) > 5e-7

    def test_implicit_with_discarding_monotone_in_budget(self):
        sizes = [
            implicit_sample_size_with_discarding(2, 0.1, 1e-6, r) for r in range(21)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_explicit_with_discarding(self):
        assert explicit_sample_size_with_discarding(1, 0.1, 1e-3, 0) == math.ceil(
            20.0 * math.log(1e3)
        )
        expected = math.ceil((2 / 0.05) * math.log(1e6) + (4 / 0.05) * (5 + 2 - 1))
        assert explicit_sample_size_with_discarding(2, 0.05, 1e-6, 5) == expected

    def test_explicit_dominates_implicit(self, rng):
        for _ in range(30):
            zeta = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.05, 0.3))
            theta = float(10.0 ** rng.uniform(-8, -2))
            r = int(rng.integers(0, 10))
            assert explicit_sample_size_with_discarding(
                zeta, eps, theta, r
            ) >= implicit_sample_size_with_discarding(zeta, eps, theta, r)


class TestMaxDiscardable:
    def test_tiny_sample_clamps_to_zero(self):
        assert max_discardable(2, 5, 0.10, 1e-6) == 0
        assert max_discardable(1, 1, 0.5, 0.5) == 0

    def test_hand_value_and_consistency(self):
        ek = 0.10 * 5000
        hand = math.floor(ek - 2 + 1 - math.sqrt(2 * ek * math.log(ek ** 1 / 1e-6)))
        r = max_discardable(2, 5000, 0.10, 1e-6)
        assert r == hand == 357
        assert discard_posterior_confidence(2, 5000, r, 0.10) <= 1e-6

    def test_within_range(self, rng):
        for _ in range(50):
            zeta = int(rng.integers(1, 5))
            k = int(rng.integers(zeta + 1, 5000))
            eps = float(rng.uniform(0.02, 0.4))
            theta = float(10.0 ** rng.uniform(-9, -2))
            r = max_discardable(zeta, k, eps, theta)
            assert 0 <= r <= k - zeta
            if r > 0:
                assert discard_posterior_confidence(zeta, k, r, eps) <= theta


class TestPlanMultistage:
    def test_cuboid_reference_plan(self):
        program = cuboid_program(CuboidInstance(n=2, eps=0.01))
        plan = plan_multistage(program, 1e-6, method="implicit")
        assert plan.sizes() == (1734, 1734)
        assert all(entry.method == "implicit" for entry in plan.stages)

    def test_single_stage_rank_five(self):
        program = random_lp_program(np.random.default_rng(1), dim=5, n_stages=1)
        program.stages[0].zeta_bar = 5
        program.stages[0].eps = 0.01
        plan = plan_multistage(program, 1e-6)
        assert plan.sizes() == (2334,)

    def test_single_stage_reduces_to_implicit(self):
        program = random_lp_program(np.random.default_rng(2), dim=2, n_stages=1)
        plan = plan_multistage(program, 1e-4)
        assert plan.sizes() == (implicit_sample_size(2, 0.1, 1e-4),)
        assert plan.discards() == (0,)

    def test_discard_budgets_recorded(self):
        program = random_lp_program(np.random.default_rng(3), dim=2, n_stages=2)
        plan = plan_multistage(program, 1e-4, discards=(3, 0))
        assert plan.stages[0].method == "implicit-discard"
        assert plan.stages[1].method == "implicit"
        assert plan.discards() == (3, 0)
        assert plan.sizes()[0] >= plan.sizes()[1]

    def test_explicit_discard_method(self):
        program = random_lp_program(np.random.default_rng(4), dim=2, n_stages=1)
        plan = plan_multistage(program, 1e-4, method="chernoff", discards=(2,))
        assert plan.stages[0].method == "explicit-discard"

    @pytest.mark.parametrize("spec, rank", [("order_stats_1d", 1), ("cuboid_n2", 2)])
    def test_undeclared_rank_comes_from_the_generator(self, spec, rank):
        doc = json.loads((SPEC_DIR / f"{spec}.json").read_text())
        declared = plan_multistage(program_from_json(doc), 1e-6, discards=(1,) * len(doc["stages"]))
        for node in doc["stages"]:
            assert node.pop("zeta_bar") == rank
        derived = plan_multistage(program_from_json(doc), 1e-6, discards=(1,) * len(doc["stages"]))
        assert all(entry.zeta_bar == rank for entry in derived.stages)
        assert derived == declared

    def test_plan_invariants_enforced(self):
        with pytest.raises(ValueError):
            SampleSizePlan(
                stages=(
                    StagePlan(stage=0, size=3, discard=0, eps=0.1, theta=0.1,
                              zeta_bar=4, method="implicit"),
                ),
                theta_total=0.1,
            )
        with pytest.raises(ValueError):
            SampleSizePlan(
                stages=(
                    StagePlan(stage=0, size=10, discard=9, eps=0.1, theta=0.1,
                              zeta_bar=1, method="implicit"),
                ),
                theta_total=0.1,
            )
