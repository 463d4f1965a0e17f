import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from scenopt.discard import remove_greedy
from scenopt.probkernel import binomial_cdf
from scenopt.scenario_core import NS_TRAIN, NS_VALIDATION, derived_stream, draw_multisample
from scenopt.validate import (
    clopper_pearson,
    estimate_violation,
    violation_survey,
)

from conftest import order_stats_program, single_stage_plan


class TestClopperPearson:
    def test_zero_count(self):
        lo, hi = clopper_pearson(0, 50, 0.05)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.05 ** (1 / 50), rel=1e-10)

    def test_full_count_single_trial(self):
        lo, hi = clopper_pearson(1, 1, 0.05)
        assert lo == pytest.approx(0.05, rel=1e-9)
        assert hi == 1.0

    def test_interior_matches_beta_quantiles(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 400))
            k = int(rng.integers(1, n))
            alpha = float(rng.uniform(0.01, 0.2))
            lo, hi = clopper_pearson(k, n, alpha)
            assert lo == pytest.approx(float(beta_dist.ppf(alpha / 2, k, n - k + 1)), abs=1e-9)
            assert hi == pytest.approx(float(beta_dist.ppf(1 - alpha / 2, k + 1, n - k)), abs=1e-9)

    def test_ordering_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, n + 1))
            lo, hi = clopper_pearson(k, n, 0.05)
            assert 0.0 <= lo <= k / n + 1e-12
            assert k / n - 1e-12 <= hi <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(1, 4, 0.0)

    def test_coverage(self, rng):
        # exact intervals cover the truth at >= 1 - alpha
        alpha, p, n, trials = 0.1, 0.3, 60, 10_000
        counts = rng.binomial(n, p, size=trials)
        covered = 0
        for k in np.unique(counts):
            lo, hi = clopper_pearson(int(k), n, alpha)
            if lo <= p <= hi:
                covered += int(np.sum(counts == k))
        rate = covered / trials
        sigma = np.sqrt(alpha * (1 - alpha) / trials)
        assert rate >= 1 - alpha - 3 * sigma


class TestEstimateViolation:
    def test_closed_form_level(self):
        program = order_stats_program()
        est = estimate_violation(np.array([0.9]), program.stages[0], 1_000_000, 0.05, seed=77)
        assert est.point == pytest.approx(0.1, abs=0.001)
        assert est.ci_low <= 0.1 <= est.ci_high

    def test_interior_point_never_violates(self):
        program = order_stats_program()
        est = estimate_violation(np.array([2.0]), program.stages[0], 5000, 0.05, seed=1)
        assert est.violations == 0
        assert est.point == 0.0
        assert est.ci_low == 0.0

    def test_single_draw_violation(self):
        program = order_stats_program()
        est = estimate_violation(np.array([-1.0]), program.stages[0], 1, 0.05, seed=1)
        assert est.point == 1.0
        assert est.ci_low == pytest.approx(0.05, rel=1e-9)
        assert est.ci_high == 1.0

    def test_validation_stream_disjoint_from_training(self):
        program = order_stats_program()
        ms = draw_multisample(program, [1000], seed=9)
        est_draws_differ = estimate_violation(np.array([0.5]), program.stages[0], 1000, 0.05, seed=9)
        train = program.stages[0].sampler.draw(derived_stream(9, NS_TRAIN, 0), 1000)
        assert ms.seed == 9 and np.array_equal(ms.outcomes[0], train)
        assert NS_VALIDATION != NS_TRAIN
        # same seed, same count: the validation stream still differs bitwise
        rng_train = draw_multisample(program, [1000], seed=9).outcomes[0].ravel()
        assert est_draws_differ.n_val == 1000
        assert not np.allclose(np.sort(rng_train)[:10], 0.0)

    def test_domain_errors(self):
        program = order_stats_program()
        with pytest.raises(ValueError):
            estimate_violation(np.array([0.5]), program.stages[0], 0, 0.05, seed=1)


class TestViolationSurvey:
    def test_empty_survey(self):
        program = order_stats_program()
        plan = single_stage_plan(10, 0.1)
        survey = violation_survey(program, plan, 0, seed=1)
        assert survey.replications == 0
        assert survey.violation.shape == (0, 1)

    def test_exact_law_small(self):
        # P[V > eps] = (1 - eps)^K for the 1-D family
        program = order_stats_program(eps=0.1)
        k = 20
        plan = single_stage_plan(k, 0.1)
        reps = 4000
        survey = violation_survey(program, plan, reps, seed=123)
        assert survey.infeasible == 0
        p = binomial_cdf(0, k, 0.1)
        sigma = np.sqrt(p * (1 - p) / reps)
        assert abs(survey.exceed_frequency[0] - p) <= 3 * sigma

    def test_monte_carlo_estimation_path(self):
        program = order_stats_program(eps=0.1)
        program.stages[0].violation_exact = None  # force the MC estimator
        plan = single_stage_plan(20, 0.1)
        survey = violation_survey(program, plan, 60, seed=5, n_val=4000)
        # V-hat should track 1 - max within MC noise
        ms = draw_multisample(program, plan, seed=5)
        assert survey.violation.shape == (60, 1)
        assert np.nanmax(survey.violation) <= 1.0

    def test_discarding_path_matches_order_statistic(self):
        program = order_stats_program(eps=0.1)
        plan = single_stage_plan(30, 0.1, discard=3)
        survey = violation_survey(
            program, plan, 50, seed=31, discard_algorithm=remove_greedy
        )
        assert survey.infeasible == 0
        # reduced objective = 4th largest sample each replication
        from scenopt.validate import _replication_seed

        for rep in range(10):
            ms = draw_multisample(program, plan, _replication_seed(31, rep))
            fourth = np.sort(ms.outcomes[0].ravel())[-4]
            assert survey.objectives[rep] == pytest.approx(fourth, abs=1e-9)

    @pytest.mark.parametrize("discard_algorithm", [None, remove_greedy])
    def test_infeasible_replications_counted(self, discard_algorithm):
        program = order_stats_program()
        program.det_a = np.array([[1.0]])
        program.det_b = np.array([-2.0])
        program.__post_init__()
        plan = single_stage_plan(5, 0.1, discard=1)
        survey = violation_survey(program, plan, 8, seed=2, discard_algorithm=discard_algorithm)
        assert survey.infeasible == 8
        assert np.all(np.isnan(survey.violation))
