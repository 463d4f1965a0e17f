import numpy as np
import pytest

from scenopt import bounds
from scenopt.bounds import implicit_sample_size
from scenopt.cuboid_bench import (
    TABLE_EPS,
    TABLE_N,
    CuboidInstance,
    cuboid_plan,
    cuboid_program,
    cuboid_solve_analytic,
    cuboid_support_sets,
    run_table1,
    run_table2,
)
from scenopt.program import MultiSample
from scenopt.scenario_core import draw_multisample, solve, support_set
from scenopt.validate import estimate_violation


def manual_multisample(arrays):
    return MultiSample(outcomes=[np.asarray(a, dtype=float) for a in arrays], seed=0)


class TestInstance:
    def test_scalar_eps_broadcasts(self):
        inst = CuboidInstance(n=3, eps=0.1)
        assert inst.eps == (0.1, 0.1, 0.1)
        assert inst.dim == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            CuboidInstance(n=0, eps=0.1)
        with pytest.raises(ValueError):
            CuboidInstance(n=2, eps=(0.1,))
        with pytest.raises(ValueError):
            CuboidInstance(n=2, eps=0.1, mode="nope")


class TestAnalyticSolve:
    def test_two_point_hull(self):
        inst = CuboidInstance(n=1, eps=0.1)
        ms = manual_multisample([np.array([[0.0], [2.0]])])
        sol = cuboid_solve_analytic(inst, ms)
        assert sol.x[0] == pytest.approx(1.0)   # center
        assert sol.x[1] == pytest.approx(2.0)   # width
        assert sol.objective == pytest.approx(2.0)

    def test_hand_geometry_single_stage(self):
        inst = CuboidInstance(n=2, eps=0.1, mode="single-stage")
        ms = manual_multisample([np.array([[0.0, 0.0], [1.0, 2.0]])])
        sol = cuboid_solve_analytic(inst, ms)
        assert sol.x[2] == pytest.approx(1.0)
        assert sol.x[3] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(np.sqrt(5.0))

    def test_empty_samples_rejected(self):
        inst = CuboidInstance(n=1, eps=0.1)
        with pytest.raises(ValueError):
            cuboid_solve_analytic(inst, manual_multisample([np.zeros((0, 1))]))

    def test_lp_agreement_multi(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 4))
            inst = CuboidInstance(n=n, eps=0.05)
            program = cuboid_program(inst)
            sizes = [int(rng.integers(3, 9))] * n
            ms = draw_multisample(program, sizes, seed=trial)
            analytic = cuboid_solve_analytic(inst, ms)
            lp = solve(program, ms)
            assert lp.status == "optimal"
            assert np.max(np.abs(analytic.x[: 2 * n] - lp.x)) < 1e-8
            assert support_set(program, ms, lp) == cuboid_support_sets(inst, ms)

    def test_lp_agreement_single(self, rng):
        for trial in range(40):
            n = int(rng.integers(1, 4))
            inst = CuboidInstance(n=n, eps=0.05, mode="single-stage")
            program = cuboid_program(inst)
            ms = draw_multisample(program, [int(rng.integers(4, 12))], seed=trial)
            analytic = cuboid_solve_analytic(inst, ms)
            lp = solve(program, ms)
            assert np.max(np.abs(analytic.x[: 2 * n] - lp.x)) < 1e-8
            assert support_set(program, ms, lp) == cuboid_support_sets(inst, ms)

    def test_support_cardinality_rank_bound(self, rng):
        # per-stage support never exceeds the rank bound 2
        inst = CuboidInstance(n=3, eps=0.1)
        for trial in range(2000):
            draws = [rng.standard_normal((7, 1)) for _ in range(3)]
            ms = manual_multisample(draws)
            support = cuboid_support_sets(inst, ms)
            assert all(len(s) <= 2 for s in support)
            assert sum(len(s) for s in support) <= inst.dim

    def test_exact_violation_oracle_matches_mc(self):
        inst = CuboidInstance(n=2, eps=0.1)
        program = cuboid_program(inst)
        ms = draw_multisample(program, [40, 40], seed=6)
        sol = solve(program, ms)
        for stage in program.stages:
            exact = stage.violation_exact(sol.x)
            mc = estimate_violation(sol.x, stage, 200_000, 0.01, seed=91)
            assert mc.ci_low <= exact <= mc.ci_high


class TestPlans:
    def test_multi_stage_plan(self):
        plan = cuboid_plan(CuboidInstance(n=2, eps=0.01))
        assert plan.sizes() == (1734, 1734)

    def test_single_stage_plan(self):
        instance = CuboidInstance(n=2, eps=0.01, mode="single-stage")
        plan = cuboid_plan(instance)
        assert plan.sizes() == (2334,)
        assert plan.stages[0].zeta_bar == instance.dim  # 2n + 1, the epigraph dimension

    def test_mixed_eps_plan(self):
        instance = CuboidInstance(n=3, eps=(0.01, 0.05, 0.01))
        plan = cuboid_plan(instance)
        assert plan.sizes() == (1777, 349, 1777)
        assert plan.sizes() == tuple(implicit_sample_size(2, e, 1e-6 / 3) for e in instance.eps)

    def test_one_inversion_per_distinct_stage(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return implicit_sample_size(*args)

        monkeypatch.setattr(bounds, "implicit_sample_size", counting)
        plan = cuboid_plan(CuboidInstance(n=500, eps=0.05))
        assert len(plan.stages) == 500
        assert calls == [(2, 0.05, 1e-6 / 500)]


class TestTables:
    def test_table1_spot_entries(self):
        multi, single = run_table1(1e-6)
        assert multi.shape == single.shape == (len(TABLE_EPS), len(TABLE_N))
        assert multi[0, 0] == 1734
        assert multi[3, 6] == 82
        assert single[0, 0] == 2334
        assert single[0, 6] == 115786
        assert single[2, 4] == 1533

    def test_table2_smoke(self):
        table = run_table2(n_list=(2,), eps_list=(0.10,), replications=300, seed=1)
        mean, stderr = table[(0.10, 2)]
        assert 0.0 < mean < 0.15
        assert stderr < 0.01

    def test_table2_deterministic_and_thread_invariant(self):
        a = run_table2(n_list=(2,), eps_list=(0.25,), replications=400, seed=7)
        b = run_table2(n_list=(2,), eps_list=(0.25,), replications=400, seed=7)
        c = run_table2(n_list=(2,), eps_list=(0.25,), replications=400, seed=7, threads=4)
        assert a == b == c
