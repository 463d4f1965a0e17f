import json
import math
import pathlib

import numpy as np
import pytest

from scenopt import lp
from scenopt.discard import (
    RemovalResult,
    check_discard_assumption,
    monotonicity_empirical_check,
    remove_greedy,
    remove_marginal,
    remove_optimal,
)
from scenopt.program import (
    LinearRowsGenerator,
    MultiSample,
    ScenarioProgram,
    Solution,
    StageSpec,
    UniformSampler,
    program_from_json,
)
from scenopt.scenario_core import draw_multisample, solve

from conftest import order_stats_program, random_lp_program

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def fixed_1d(values):
    values = np.asarray(values, dtype=float)[:, None]
    ties = np.linspace(0.1, 0.9, values.shape[0])
    return MultiSample(outcomes=[values], tie_breaks=[ties], tie_break_box=0.5, provenance={})


def slack_stage_program():
    """Two stages; stage 1 binds, stage 2 is strictly slack at the optimum."""
    binding = LinearRowsGenerator(a0=[[-1.0]], b0=[0.0], b_delta=[[-1.0]])
    slack = LinearRowsGenerator(a0=[[-1.0]], b0=[5.0], b_delta=[[-1.0]])  # x >= delta - 5
    stages = [
        StageSpec(eps=0.1, generator=binding, sampler=UniformSampler(0, 1), zeta_bar=1),
        StageSpec(eps=0.1, generator=slack, sampler=UniformSampler(0, 1), zeta_bar=1),
    ]
    return ScenarioProgram(
        dim=1, cost=np.array([1.0]),
        box_lower=np.array([-100.0]), box_upper=np.array([100.0]),
        stages=stages,
    )


class TestRemoveOptimal:
    def test_order_statistics(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_optimal(program, ms, [2])
        assert result.removed == [[0, 1]]
        assert result.solution.x[0] == pytest.approx(0.5, abs=1e-12)
        assert result.objective_improvement == pytest.approx(0.4, abs=1e-9)

    def test_no_removal_is_identity(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_optimal(program, ms, [0])
        assert result.removed == [[]]
        assert result.objective_improvement == pytest.approx(0.0, abs=1e-12)

    def test_guard(self):
        program = order_stats_program()
        ms = draw_multisample(program, [40], seed=0)
        with pytest.raises(ValueError, match="guard"):
            remove_optimal(program, ms, [20], guard=10_000)

    def test_dominates_heuristics(self, rng):
        for trial in range(12):
            program = random_lp_program(rng, dim=2, n_stages=2)
            ms = draw_multisample(program, [5, 5], seed=trial)
            if solve(program, ms).status != "optimal":
                continue
            best = remove_optimal(program, ms, [1, 1])
            greedy = remove_greedy(program, ms, [1, 1])
            marginal = remove_marginal(program, ms, [1, 1])
            assert best.solution.objective <= greedy.solution.objective + 1e-9
            assert best.solution.objective <= marginal.solution.objective + 1e-9


class TestRemoveGreedy:
    def test_one_dimensional_matches_optimal(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_greedy(program, ms, [2])
        assert result.removed == [[0, 1]]
        assert result.solution.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_removal_is_identity(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_greedy(program, ms, [0])
        assert result.removed == [[]]
        assert result.objective_improvement == 0.0

    def test_objective_monotone_in_budget(self):
        program = order_stats_program()
        ms = draw_multisample(program, [30], seed=4)
        objectives = [remove_greedy(program, ms, [r]).solution.objective for r in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_reduced_never_worse(self, rng):
        for trial in range(10):
            program = random_lp_program(rng, dim=2, n_stages=1)
            ms = draw_multisample(program, [8], seed=50 + trial)
            base = solve(program, ms)
            if base.status != "optimal":
                continue
            result = remove_greedy(program, ms, [2])
            assert result.solution.objective <= base.objective + 1e-9
            assert result.objective_improvement >= -1e-9

    def test_slack_stage_tie_break(self):
        # nothing improves in the slack stage: lowest sample index goes
        program = slack_stage_program()
        ms = MultiSample(
            outcomes=[np.array([[0.6], [0.4]]), np.array([[0.2], [0.7]])],
            tie_breaks=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
            tie_break_box=0.5, provenance={},
        )
        result = remove_greedy(program, ms, [0, 1])
        assert result.removed == [[], [0]]
        assert result.objective_improvement == pytest.approx(0.0, abs=1e-12)

    def test_binding_sample_with_small_multiplier_is_removed(self):
        # the 296th program of a random-program sweep: sample 11 binds with
        # multiplier ~1e-3, and a point left ~1e-6 off its row by the
        # lexicographic face thickening would make it look slack, so greedy
        # would drop a useless sample instead
        rng = np.random.default_rng(12345)
        for _ in range(296):
            dim = rng.integers(2, 5)
            n_stages = rng.integers(1, 3)
            program = random_lp_program(rng, dim, n_stages)
            sizes = rng.integers(6, 20, size=n_stages).tolist()
            discards = rng.integers(0, 4, size=n_stages).tolist()
            seed = int(rng.integers(2**31))
        assert (dim, sizes, discards, seed) == (4, [12], [1], 1663769398)
        ms = draw_multisample(program, sizes, seed)
        base = solve(program, ms)
        assert base.active == [[11]]
        assert base.stage_duals[0][11] > 1e-3
        result = remove_greedy(program, ms, discards)
        assert result.removed == [[11]]
        assert result.assumption_modes == ["violated-by-reduced"]
        assert result.objective_improvement == pytest.approx(2.505e-4, rel=1e-3)


class TestRemoveMarginal:
    def test_one_dimensional(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_marginal(program, ms, [2])
        assert result.removed == [[0, 1]]
        assert result.solution.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_removal_is_identity(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8])
        result = remove_marginal(program, ms, [0])
        assert result.removed == [[]]

    def test_zero_multiplier_fallback(self):
        # the budgeted stage is slack: multipliers vanish, greedy rule decides
        program = slack_stage_program()
        ms = MultiSample(
            outcomes=[np.array([[0.6], [0.4]]), np.array([[0.2], [0.7]])],
            tie_breaks=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
            tie_break_box=0.5, provenance={},
        )
        result = remove_marginal(program, ms, [0, 1])
        assert result.removed == [[], [0]]

    def test_comparison_sweep(self, rng):
        wins = 0
        total = 0
        for trial in range(20):
            program = random_lp_program(rng, dim=2, n_stages=1)
            ms = draw_multisample(program, [8], seed=200 + trial)
            if solve(program, ms).status != "optimal":
                continue
            greedy = remove_greedy(program, ms, [2])
            marginal = remove_marginal(program, ms, [2])
            total += 1
            if greedy.solution.objective <= marginal.solution.objective + 1e-9:
                wins += 1
        assert total > 0
        assert wins / total >= 0.95


class TestSolveCounts:
    def test_greedy_reuses_the_chosen_candidates_solve(self, simplex_runs):
        # one active candidate per step, so the base solve plus one per removal
        result = remove_greedy(order_stats_program(), fixed_1d([0.9, 0.8, 0.5, 0.3]), [2])
        assert result.removed == [[0, 1]]
        assert len(simplex_runs) == 1 + 2

    def test_optimal_keeps_the_best_solve(self, simplex_runs):
        result = remove_optimal(order_stats_program(), fixed_1d([0.9, 0.8, 0.5, 0.3]), [2])
        assert result.removed == [[0, 1]]
        assert len(simplex_runs) == 1 + math.comb(4, 2)


@pytest.mark.parametrize("algorithm", [remove_optimal, remove_greedy, remove_marginal])
def test_infeasible_base_ends_in_status(algorithm):
    program = order_stats_program()
    program.det_a = np.array([[1.0]])  # x <= -2 against x >= delta
    program.det_b = np.array([-2.0])
    program.__post_init__()
    result = algorithm(program, fixed_1d([0.9, 0.8, 0.5, 0.3]), [2])
    assert result.solution.status == "infeasible"
    assert result.removed == [[]]
    assert result.assumption_modes == ["none"]
    assert np.isnan(result.objective_improvement)


class TestCheckDiscardAssumption:
    def test_violated_by_reduced(self):
        program = order_stats_program()
        ms = fixed_1d([0.9, 0.8, 0.5, 0.3])
        result = remove_greedy(program, ms, [2])
        assert result.assumption_modes == ["violated-by-reduced"]

    def test_monotone_declared(self):
        program = slack_stage_program()
        program.stages[1].monotone = True
        ms = MultiSample(
            outcomes=[np.array([[0.6], [0.4]]), np.array([[0.2], [0.7]])],
            tie_breaks=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
            tie_break_box=0.5, provenance={},
        )
        result = remove_greedy(program, ms, [0, 1])
        assert result.assumption_modes == ["none", "monotone-declared"]

    def test_fail_mode(self):
        program = slack_stage_program()  # stage 2 not flagged monotone
        ms = MultiSample(
            outcomes=[np.array([[0.6], [0.4]]), np.array([[0.2], [0.7]])],
            tie_breaks=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
            tie_break_box=0.5, provenance={},
        )
        result = remove_greedy(program, ms, [0, 1])
        assert result.assumption_modes == ["none", "FAIL"]

    def test_nan_solution_fails(self):
        # A reduced solve that is not optimal leaves x at NaN, which violates
        # no removed row, so the non-monotone stage cannot pass.
        program = slack_stage_program()
        ms = MultiSample(
            outcomes=[np.array([[0.6], [0.4]]), np.array([[0.2], [0.7]])],
            tie_breaks=[np.array([0.1, 0.2]), np.array([0.3, 0.4])],
            tie_break_box=0.5, provenance={},
        )
        solution = Solution(
            x=np.full(1, np.nan), objective=np.nan, status="iteration-limit",
            active=[[], []], stage_duals=[np.zeros(2), np.zeros(2)], fixed_duals=np.zeros(2),
        )
        result = RemovalResult(
            removed=[[], [0]], solution=solution,
            objective_improvement=np.nan, assumption_modes=[],
        )
        assert check_discard_assumption(program, ms, result) == ["none", "FAIL"]

    def test_matches_per_sample_loop(self, rng):
        def modes_by_loop(program, ms, result):
            modes = []
            for i, stage in enumerate(program.stages):
                rows = [stage.generator.rows(ms.outcomes[i][k]) for k in result.removed[i]]
                if not rows:
                    modes.append("none")
                elif all(float(np.max(a @ result.solution.x - b)) > 1e-9 for a, b in rows):
                    modes.append("violated-by-reduced")
                else:
                    modes.append("monotone-declared" if stage.monotone else "FAIL")
            return modes

        seen = set()
        for _ in range(30):
            program = random_lp_program(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
            program.stages[0].monotone = bool(rng.integers(2))
            ms = draw_multisample(program, [12] * program.n_stages, int(rng.integers(2**31)))
            greedy = remove_greedy(program, ms, [2] * program.n_stages)
            # the base solution violates no sample, so removing any passes only if monotone
            arbitrary = RemovalResult(
                removed=[sorted(rng.choice(12, size=3, replace=False).tolist())
                         for _ in program.stages],
                solution=solve(program, ms), objective_improvement=0.0, assumption_modes=[],
            )
            for result in (greedy, arbitrary):
                modes = check_discard_assumption(program, ms, result)
                assert modes == modes_by_loop(program, ms, result)
                seen.update(modes)
        assert seen == {"violated-by-reduced", "monotone-declared", "FAIL"}


@pytest.fixture(scope="module")
def two_stage():
    doc = json.loads((SPEC_DIR / "two_stage_monotonicity.json").read_text())
    return program_from_json(doc)


class TestMonotonicityCheck:
    def test_discrete_slopes_stage_is_monotone(self, two_stage):
        ok, counterexample = monotonicity_empirical_check(
            two_stage.stages[0], two_stage.cost, two_stage.box_lower,
            two_stage.box_upper, trials=4000, seed=3,
        )
        assert ok and counterexample is None

    def test_continuous_slopes_stage_is_not(self, two_stage):
        ok, counterexample = monotonicity_empirical_check(
            two_stage.stages[1], two_stage.cost, two_stage.box_lower,
            two_stage.box_upper, trials=100_000, seed=3,
        )
        assert not ok
        # the counterexample must actually witness the failure
        stage = two_stage.stages[1]
        a, b = stage.generator.rows(counterexample["outcome"])
        assert float(np.max(a @ counterexample["probe"] - b)) > 0
        assert float(np.max(a @ counterexample["cost_minimal_point"] - b)) <= 0

    def test_lower_bound_family_is_monotone(self):
        program = order_stats_program()
        ok, _ = monotonicity_empirical_check(
            program.stages[0], program.cost, program.box_lower,
            program.box_upper, trials=4000, seed=5,
        )
        assert ok
