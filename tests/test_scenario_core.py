import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from scenopt import lp
from scenopt.bounds import plan_multistage
from scenopt.cuboid_bench import (
    CuboidInstance,
    cuboid_program,
    cuboid_solve_analytic,
    cuboid_support_sets,
)
from scenopt.lp import solve_lp
from scenopt.program import (
    LinearRowsGenerator,
    MultiSample,
    NormalSampler,
    ProductSampler,
    ScenarioProgram,
    StageSpec,
    UniformSampler,
)
from scenopt.scenario_core import (
    NS_TIEBREAK,
    NS_TRAIN,
    NS_VALIDATION,
    AssembledProgram,
    derived_stream,
    draw_multisample,
    essential_sets_bruteforce,
    sampling_lemma_check,
    solve,
    support_rank_linear,
    support_rank_quadratic,
    support_set,
)

from conftest import order_stats_program, random_lp_program
from lp_certificate import lex_certificate


def fixed_multisample(outcomes, ties=None):
    if ties is None:
        rng = np.random.default_rng(7)
        ties = [rng.uniform(size=o.shape[0]) for o in outcomes]
    return MultiSample(outcomes=outcomes, tie_breaks=ties, tie_break_box=0.5, provenance={})


def three_lines_program():
    """Three lines through one vertex: minimize x2 over x2 >= s * x1 for
    s in {-1, +0.5, +1}.  One support constraint, two essential sets."""
    generator = LinearRowsGenerator(
        a0=[[0.0, -1.0]], b0=[0.0], a_delta=np.array([[[1.0, 0.0]]])
    )
    stage = StageSpec(eps=0.1, generator=generator, sampler=UniformSampler(-1, 1), zeta_bar=2)
    return ScenarioProgram(
        dim=2,
        cost=np.array([0.0, 1.0]),
        box_lower=np.array([-10.0, -10.0]),
        box_upper=np.array([10.0, 10.0]),
        stages=[stage],
    )


class TestDrawMultisample:
    def test_deterministic(self):
        program = order_stats_program()
        a = draw_multisample(program, [7], seed=123)
        b = draw_multisample(program, [7], seed=123)
        assert np.array_equal(a.outcomes[0], b.outcomes[0])
        assert np.array_equal(a.tie_breaks[0], b.tie_breaks[0])
        assert a.tie_break_box == b.tie_break_box

    def test_seed_changes_stream(self):
        program = order_stats_program()
        a = draw_multisample(program, [7], seed=123)
        b = draw_multisample(program, [7], seed=124)
        assert not np.array_equal(a.outcomes[0], b.outcomes[0])

    def test_product_dim_counts_outcome_columns(self):
        sampler = ProductSampler(parts=(NormalSampler(dim=2), UniformSampler()))
        assert sampler.dim == sampler.draw(np.random.default_rng(0), 5).shape[1] == 3

    def test_law_of_large_numbers(self):
        program = order_stats_program()
        ms = draw_multisample(program, [100_000], seed=5)
        assert abs(float(ms.outcomes[0].mean()) - 0.5) < 0.005

    def test_stage_streams_independent(self, rng):
        program = random_lp_program(rng, dim=2, n_stages=2)
        ms = draw_multisample(program, [100_000, 100_000], seed=9)
        a = ms.outcomes[0][:, 0]
        b = ms.outcomes[1][:, 0]
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01

    def test_tie_breaks_distinct(self):
        program = order_stats_program()
        ms = draw_multisample(program, [5000], seed=11)
        assert np.unique(ms.tie_breaks[0]).size == 5000

    def test_namespaces_disjoint(self):
        assert len({NS_TRAIN, NS_TIEBREAK, NS_VALIDATION}) == 3
        train = derived_stream(42, NS_TRAIN, 0).uniform(size=8)
        val = derived_stream(42, NS_VALIDATION, 0).uniform(size=8)
        assert not np.array_equal(train, val)

    def test_missing_sampler(self):
        program = order_stats_program()
        program.stages[0].sampler = None
        with pytest.raises(ValueError, match="sampler"):
            draw_multisample(program, [3], seed=0)


def former_cycling_case():
    program = random_lp_program(np.random.default_rng(1), dim=12, n_stages=5)
    program.stages = [dataclasses.replace(s, eps=0.05) for s in program.stages]
    return program, draw_multisample(program, plan_multistage(program, 1e-6), 7)


class TestSolve:
    def test_box_vertex_no_stages(self):
        program = ScenarioProgram(
            dim=2, cost=np.array([1.0, 0.0]),
            box_lower=np.array([-1.0, -1.0]), box_upper=np.array([1.0, 1.0]),
        )
        ms = fixed_multisample([])
        sol = solve(program, ms)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_one_dimensional_max(self):
        program = order_stats_program()
        ms = fixed_multisample([np.array([[0.3], [0.7], [0.5]])])
        sol = solve(program, ms)
        assert sol.x[0] == pytest.approx(0.7, abs=1e-12)
        assert sol.active == [[1]]

    def test_infeasible_surfaced(self):
        program = order_stats_program()
        program.det_a = np.array([[1.0]])
        program.det_b = np.array([-2.0])  # x <= -2 against x >= samples
        program.__post_init__()
        ms = fixed_multisample([np.array([[0.4]])])
        sol = solve(program, ms)
        assert sol.status == "infeasible"

    def test_feasibility_tolerance(self, rng):
        program = random_lp_program(rng, dim=3, n_stages=2)
        ms = draw_multisample(program, [20, 20], seed=1)
        sol = solve(program, ms)
        assert sol.status == "optimal"
        for i, stage in enumerate(program.stages):
            for kappa in range(20):
                a, b = stage.generator.rows(ms.outcomes[i][kappa])
                assert float(np.max(a @ sol.x - b)) <= 1e-9 * (1.0 + float(np.abs(b).max()))

    def test_duals_complementary(self, rng):
        program = random_lp_program(rng, dim=2, n_stages=1)
        ms = draw_multisample(program, [15], seed=2)
        sol = solve(program, ms)
        assert all(float(d.min()) >= 0.0 for d in sol.stage_duals)
        assert float(sol.fixed_duals.min()) >= 0.0
        for kappa in range(15):
            a, b = program.stages[0].generator.rows(ms.outcomes[0][kappa])
            slack = float(np.min(b - a @ sol.x))
            assert abs(sol.stage_duals[0][kappa] * slack) < 1e-8

    def test_bit_identical_across_runs_and_permutation(self):
        program = order_stats_program()
        ms = draw_multisample(program, [9], seed=3)
        x1 = solve(program, ms).x
        x2 = solve(program, ms).x
        perm = np.array([4, 2, 8, 0, 7, 1, 5, 3, 6])
        msp = fixed_multisample([ms.outcomes[0][perm]], [ms.tie_breaks[0][perm]])
        x3 = solve(program, msp).x
        assert np.array_equal(x1, x2)
        assert np.array_equal(x1, x3)

    def test_former_cycling_case_is_optimal(self):
        # 1 824 rows at d = 12 on which Bland pricing once cycled until the
        # pivot budget ran out
        program, ms = former_cycling_case()
        sol = solve(program, ms)
        assembled = AssembledProgram(program, ms)
        ref = linprog(program.cost, A_ub=assembled.a, b_ub=assembled.b,
                      bounds=(None, None), method="highs")
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))

    def test_former_cycling_case_with_zero_cost_is_optimal(self):
        # the same rows with a zero cost: every basic dual is zero, so only
        # the lexicographic ratio test orders the pivots; Bland pricing with
        # coordinate passes ran out of pivots (373 060) here
        program, ms = former_cycling_case()
        program.cost = np.zeros(program.dim)
        sol = solve(program, ms)
        assert sol.status == "optimal"
        assembled = sol._assembled
        basic = assembled.rows.order[assembled.base.basis[0]]
        assert lex_certificate(program.cost, assembled.a, assembled.b, basic, sol.x) <= 1e-12


class TestSupportSet:
    def test_one_dimensional(self):
        program = order_stats_program()
        ms = fixed_multisample([np.array([[0.3], [0.7], [0.5]])])
        sol = solve(program, ms)
        assert support_set(program, ms, sol) == [[1]]

    def test_no_stages(self):
        program = ScenarioProgram(
            dim=2, cost=np.array([1.0, 0.0]),
            box_lower=np.array([-1.0, -1.0]), box_upper=np.array([1.0, 1.0]),
        )
        ms = fixed_multisample([])
        sol = solve(program, ms)
        assert support_set(program, ms, sol) == []

    def test_requires_optimal(self):
        program = order_stats_program()
        program.det_a = np.array([[1.0]])
        program.det_b = np.array([-2.0])
        program.__post_init__()
        ms = fixed_multisample([np.array([[0.4]])])
        sol = solve(program, ms)
        with pytest.raises(ValueError):
            support_set(program, ms, sol)

    def test_cardinality_bounded_by_rank(self, rng):
        for trial in range(40):
            program = random_lp_program(rng, dim=3, n_stages=2)
            ms = draw_multisample(program, [8, 8], seed=trial)
            sol = solve(program, ms)
            assert sol.status == "optimal"
            support = support_set(program, ms, sol)
            assert all(len(s) <= 2 for s in support)
            assert sum(len(s) for s in support) <= 3


def cuboid_draw(n, seed):
    inst = CuboidInstance(n=n, eps=0.05, theta_total=1e-6)
    program = cuboid_program(inst)
    return inst, program, draw_multisample(program, plan_multistage(program, 1e-6), seed=seed)


class TestOneAssembly:
    def test_support_set_reuses_the_solve(self, monkeypatch, simplex_runs):
        # solve sorts the rows and solves the full program once; support_set
        # adds only its drop-one re-solves, one simplex run each
        _, program, ms = cuboid_draw(5, seed=5)
        sorts = []
        init = lp.SortedRows.__init__

        def counted_init(self, *args):
            sorts.append(1)
            init(self, *args)

        monkeypatch.setattr(lp.SortedRows, "__init__", counted_init)
        sol = solve(program, ms)
        support_set(program, ms, sol)
        assert len(sorts) == 1
        assert len(simplex_runs) == 1 + sum(len(a) for a in sol.active)

    def test_support_set_rejects_a_solution_from_elsewhere(self):
        inst, program, ms = cuboid_draw(5, seed=5)
        _, _, other = cuboid_draw(5, seed=6)
        with pytest.raises(ValueError):
            support_set(program, ms, cuboid_solve_analytic(inst, ms))
        with pytest.raises(ValueError):
            support_set(program, ms, solve(program, other))


class TestSortedOnce:
    def test_drop_sets_match_masked_rows(self, rng):
        # a drop set is a keep mask on the rows sorted once; the result has
        # the bits of solving the masked assembled rows afresh
        for trial in range(30):
            program = random_lp_program(rng, dim=int(rng.integers(2, 5)), n_stages=2)
            ms = draw_multisample(program, [12, 9], seed=trial)
            assembled = AssembledProgram(program, ms)
            drop = [(i, int(k)) for i in range(2)
                    for k in rng.choice(ms.sizes()[i], size=int(rng.integers(0, 4)), replace=False)]
            mask = np.ones(assembled.b.shape[0], dtype=bool)
            for i, kappa in drop:
                mask[assembled.uid == assembled.stage_uid_base[i] + kappa] = False
            res = assembled.solve_lex(drop)
            ref = solve_lp(program.cost, assembled.a[mask], assembled.b[mask])
            assert res.status == ref.status == "optimal"
            assert np.array_equal(res.x, ref.x)
            assert res.objective == ref.objective
            expected = np.zeros(mask.shape[0])
            expected[mask] = ref.duals
            assert np.array_equal(res.duals, expected)


class TestWarmDropOne:
    @pytest.mark.parametrize(
        "n, seed",
        [pytest.param(n, seed, id=str(n) if seed == n else f"{n}-seed{seed}")
         for n in (5, 10) for seed in (n, 1, 2, 3)],
    )
    def test_warm_matches_cold_on_cuboid(self, n, seed):
        # m = 7 000-7 500 rows: the size support_set meets on cuboid programs
        inst, program, ms = cuboid_draw(n, seed)
        sol = solve(program, ms)
        assembled = sol._assembled
        for i in range(program.n_stages):
            for kappa in sol.active[i]:
                warm = assembled.solve_lex([(i, kappa)], start=assembled.base)
                cold = assembled.solve_lex([(i, kappa)])
                assert warm.warm and not cold.warm
                assert np.abs(warm.x - cold.x).max() <= 1e-9
                if n == 5:
                    assert warm.pivots <= 4 and warm.pivots < cold.pivots
        assert support_set(program, ms, sol) == cuboid_support_sets(inst, ms)


class TestEssentialSets:
    def test_non_degenerate_equals_support(self, rng):
        for trial in range(15):
            program = random_lp_program(rng, dim=2, n_stages=1)
            ms = draw_multisample(program, [6], seed=100 + trial)
            sol = solve(program, ms)
            support = support_set(program, ms, sol)
            essential, minimal = essential_sets_bruteforce(program, ms)
            if len(essential) == 1:
                pairs = sorted((0, k) for k in support[0])
                assert sorted(minimal) == pairs

    def test_three_lines_degenerate(self):
        program = three_lines_program()
        ms = fixed_multisample(
            [np.array([[-1.0], [0.5], [1.0]])],
            [np.array([0.2, 0.5, 0.9])],
        )
        sol = solve(program, ms)
        assert np.allclose(sol.x, [0.0, 0.0], atol=1e-9)
        # slope -1 is the lone support constraint
        assert support_set(program, ms, sol) == [[0]]
        essential, minimal = essential_sets_bruteforce(program, ms)
        assert len(essential) == 2
        assert all(len(e) == 2 for e in essential)
        assert all((0, 0) in e for e in essential)
        # lowest tie-break sum picks {slope -1, slope +0.5}
        assert minimal == ((0, 0), (0, 1))

    def test_empty_stage_lists(self):
        program = ScenarioProgram(
            dim=2, cost=np.array([1.0, 0.0]),
            box_lower=np.array([-1.0, -1.0]), box_upper=np.array([1.0, 1.0]),
        )
        ms = fixed_multisample([])
        essential, minimal = essential_sets_bruteforce(program, ms)
        assert essential == [()]
        assert minimal == ()

    def test_guard(self):
        program = order_stats_program()
        ms = draw_multisample(program, [17], seed=0)
        with pytest.raises(ValueError, match="guard"):
            essential_sets_bruteforce(program, ms, max_total=16)


class TestSamplingLemma:
    def test_non_violating_extra_is_vacuous(self):
        program = order_stats_program()
        ms = fixed_multisample([np.array([[0.3], [0.5]])])
        assert sampling_lemma_check(program, ms, np.array([0.2]), 0)

    def test_violating_extra_is_essential(self):
        program = order_stats_program()
        ms = fixed_multisample([np.array([[0.3], [0.5]])])
        assert sampling_lemma_check(program, ms, np.array([0.9]), 0)

    def test_random_small_instances(self, rng):
        program = order_stats_program()
        for trial in range(200):
            ms = draw_multisample(program, [3], seed=trial)
            extra = rng.uniform()
            assert sampling_lemma_check(program, ms, np.array([extra]), 0)


class TestSupportRank:
    def test_single_fixed_row(self):
        assert support_rank_linear([[1.0, 2.0, 0.0]]) == 1

    def test_cuboid_rows(self):
        from scenopt.program import CuboidCoordinateGenerator

        gen = CuboidCoordinateGenerator(coordinate=1, n=3)
        assert support_rank_linear(gen.rank_rows()) == 2

    def test_full_rank(self):
        assert support_rank_linear(np.eye(4)) == 4

    def test_quadratic(self):
        assert support_rank_quadratic(np.eye(3)) == 3
        assert support_rank_quadratic(np.diag([1.0, 1.0, 0.0])) == 2
        assert support_rank_quadratic(np.zeros((2, 2))) == 0

    def test_quadratic_domain(self):
        with pytest.raises(ValueError, match="symmetric"):
            support_rank_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="semi-definite"):
            support_rank_quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_probability_bound_empirical(self):
        # frequency of a fixed index being a support constraint <= rank / K
        from scenopt.cuboid_bench import CuboidInstance, cuboid_support_sets

        inst = CuboidInstance(n=2, eps=0.1)
        k = 6
        reps = 10_000
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(reps):
            draws = [rng.standard_normal((k, 1)) for _ in range(2)]
            ms = MultiSample(outcomes=draws, tie_breaks=[np.zeros(k)] * 2,
                             tie_break_box=0.0, provenance={})
            support = cuboid_support_sets(inst, ms)
            hits += 0 in support[0]
        p_hat = hits / reps
        bound = 2.0 / k
        sigma = np.sqrt(bound * (1 - bound) / reps)
        assert p_hat <= bound + 3 * sigma
