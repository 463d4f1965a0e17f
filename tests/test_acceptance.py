"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical criteria
run at full scale (1e4 to 1e5 replications) on frozen seeds; expect the whole
module to take several minutes.
"""

import json
import math
import pathlib
import time
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from scenopt.bounds import (
    chernoff_sample_size,
    implicit_sample_size,
    refined_sample_size,
)
from scenopt.cli import main as cli_main
from scenopt.cuboid_bench import (
    TABLE_EPS,
    TABLE_N,
    CuboidInstance,
    cuboid_program,
    cuboid_support_sets,
    run_table1,
    run_table2,
)
from scenopt.discard import monotonicity_empirical_check, remove_greedy
from scenopt.probkernel import (
    binomial_cdf,
    binomial_tail_leq_exact,
    log_beta,
    log_binomial_coefficient,
    regularized_incomplete_beta,
)
from scenopt.program import MultiSample, program_from_json
from scenopt.scenario_core import (
    draw_multisample,
    essential_sets_bruteforce,
    sampling_lemma_check,
    solve,
    support_set,
)
from scenopt.validate import _replication_seed, violation_survey

from conftest import order_stats_program, random_lp_program, single_stage_plan

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

TABLE1_MULTI = np.array(
    [
        [1734, 1777, 1831, 1903, 2072, 2144, 2311],
        [341, 349, 360, 374, 407, 421, 454],
        [166, 170, 176, 182, 199, 205, 221],
        [62, 63, 65, 67, 73, 76, 82],
    ]
)

TABLE1_SINGLE = np.array(
    [
        [2334, 2722, 3431, 5020, 15588, 27535, 115786],
        [459, 536, 677, 992, 3095, 5477, 23093],
        [225, 263, 332, 488, 1533, 2719, 11506],
        [84, 99, 125, 186, 595, 1063, 4550],
    ]
)

EPS_FRACTIONS = {0.01: Fraction(1, 100), 0.05: Fraction(5, 100),
                 0.10: Fraction(10, 100), 0.25: Fraction(25, 100)}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _recheck_exact(zeta: int, size: int, eps: float, theta: Fraction) -> bool:
    """Exact-rational confirmation that ``size`` is the minimal adequate K."""
    eps_frac = EPS_FRACTIONS[eps]
    holds = binomial_tail_leq_exact(zeta - 1, size, eps_frac, theta)
    below = binomial_tail_leq_exact(zeta - 1, size - 1, eps_frac, theta)
    return holds and not below


def test_a1_table1_multi_exact():
    start = time.monotonic()
    multi, _ = run_table1(1e-6)
    elapsed = time.monotonic() - start
    mismatches = int(np.sum(multi != TABLE1_MULTI))
    _report(
        "A1", mismatches == 0 and elapsed < 5.0,
        f"28/28 multi-stage sizes exact, {elapsed:.2f}s (limit 5s)"
        if mismatches == 0 else f"{mismatches} mismatching entries",
    )


def test_a2_table1_single_exact():
    start = time.monotonic()
    _, single = run_table1(1e-6)
    elapsed = time.monotonic() - start
    bad = []
    for r, eps in enumerate(TABLE_EPS):
        for c, n in enumerate(TABLE_N):
            ours, expected = int(single[r, c]), int(TABLE1_SINGLE[r, c])
            if ours == expected:
                continue
            if abs(ours - expected) == 1:
                # settle a potential off-by-one with exact integer arithmetic
                if _recheck_exact(2 * n + 1, ours, eps, Fraction(1, 10**6)):
                    bad.append(f"({eps},{n}): exact arithmetic confirms {ours}, table says {expected}")
                    continue
            bad.append(f"({eps},{n}): got {ours}, expected {expected}")
    _report(
        "A2", not bad and elapsed < 5.0,
        f"28/28 single-stage sizes exact, {elapsed:.2f}s (limit 5s)" if not bad else "; ".join(bad),
    )


def test_a3_table2_desk_scale():
    cells = {(0.01, 2): 0.024, (0.10, 10): 0.115, (0.25, 50): 0.285}
    start = time.monotonic()
    failures = []
    details = []
    for (eps, n), expected in cells.items():
        table = run_table2(n_list=(n,), eps_list=(eps,), replications=10_000, seed=20260808)
        mean, stderr = table[(eps, n)]
        tolerance = max(0.005, 4.0 * stderr)
        details.append(f"({eps:.2f},{n})={100*mean:.2f}% vs {100*expected:.1f}%")
        if abs(mean - expected) > tolerance:
            failures.append(
                f"({eps},{n}): {mean:.4f} vs {expected:.4f}, tolerance {tolerance:.4f}"
            )
    elapsed = time.monotonic() - start
    _report(
        "A3", not failures and elapsed < 600.0,
        f"{'; '.join(details)}, {elapsed:.0f}s (limit 600s)" if not failures else "; ".join(failures),
    )


def _ks_statistic(sample: np.ndarray, cdf) -> float:
    v = np.sort(sample)
    n = v.shape[0]
    f = cdf(v)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def test_a4_sampling_theorem_tightness():
    replications = 100_000
    ks_critical = math.sqrt(-math.log(0.005) / 2.0)  # level 0.01
    program = order_stats_program()
    failures = []
    details = []
    for size, eps in [(10, 0.1), (50, 0.05), (100, 0.02)]:
        program.stages[0].eps = eps
        plan = single_stage_plan(size, eps)
        survey = violation_survey(program, plan, replications, seed=4_000 + size)
        p_exact = binomial_cdf(0, size, eps)  # (1 - eps)^K
        p_hat = float(survey.exceed_frequency[0])
        sigma = math.sqrt(p_exact * (1.0 - p_exact) / replications)
        if abs(p_hat - p_exact) > 3.0 * sigma:
            failures.append(f"K={size}: freq {p_hat:.5f} vs {p_exact:.5f} (3 sigma {3*sigma:.5f})")
        violations = survey.violation[:, 0]
        d_stat = _ks_statistic(violations, lambda v: 1.0 - (1.0 - v) ** size)
        if d_stat > ks_critical / math.sqrt(replications):
            failures.append(f"K={size}: KS {d_stat:.5f} above {ks_critical/math.sqrt(replications):.5f}")
        details.append(f"K={size}: |freq-exact|={abs(p_hat - p_exact):.2e}, KS={d_stat:.4f}")
    _report("A4", not failures, "; ".join(details if not failures else failures))


def test_a5_discarding_theorem_order_statistics():
    replications = 100_000
    eps = 0.1
    program = order_stats_program(eps=eps)
    failures = []
    details = []
    for size, budget in [(50, 2), (100, 5)]:
        plan = single_stage_plan(size, eps, discard=budget)
        mismatches = 0
        exceed = 0
        for rep in range(replications):
            ms = draw_multisample(program, plan, _replication_seed(5_000 + size, rep))
            result = remove_greedy(program, ms, (budget,))
            x = result.solution.objective
            expected = float(np.partition(ms.outcomes[0].ravel(), size - budget - 1)[size - budget - 1])
            if abs(x - expected) > 1e-9:
                mismatches += 1
            if 1.0 - x > eps:
                exceed += 1
        bound = binomial_cdf(budget, size, eps)  # C(R, R) * Phi(R; K, eps)
        sigma = math.sqrt(bound * (1.0 - bound) / replications)
        p_hat = exceed / replications
        if mismatches:
            failures.append(f"K={size},R={budget}: {mismatches} order-statistic mismatches")
        if p_hat > bound + 3.0 * sigma:
            failures.append(f"K={size},R={budget}: freq {p_hat:.5f} above bound {bound:.5f}+3sigma")
        details.append(f"K={size},R={budget}: order-stat 100%, freq {p_hat:.5f} <= {bound:.5f}+{3*sigma:.5f}")
    _report("A5", not failures, "; ".join(details if not failures else failures))


def test_a6_structural_property_suite():
    failures = []

    # (i) support-set cardinality, cuboid family (analytic path), 6,000 runs
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(6000):
        n = 2 if trial % 2 == 0 else 3
        inst = CuboidInstance(n=n, eps=0.1)
        k = int(rng.integers(4, 9))
        draws = [rng.standard_normal((k, 1)) for _ in range(n)]
        # these trials once drew tie values here; the draw stays so that
        # every trial sees the outcomes it always has
        rng.uniform(size=(n, k))
        ms = MultiSample(outcomes=draws, seed=0)
        support = cuboid_support_sets(inst, ms)
        if any(len(s) > 2 for s in support) or sum(len(s) for s in support) > inst.dim:
            failures.append(f"cuboid trial {trial}: support bound violated")
            break
        checked += 1

    # cross-validate the analytic support sets against the generic LP path
    for trial in range(300):
        inst = CuboidInstance(n=2, eps=0.1)
        program = cuboid_program(inst)
        ms = draw_multisample(program, [5, 5], seed=trial)
        sol = solve(program, ms)
        if support_set(program, ms, sol) != cuboid_support_sets(inst, ms):
            failures.append(f"cuboid trial {trial}: analytic vs LP support mismatch")
            break

    # (ii) support-set cardinality, random-LP family, 4,000 runs
    for trial in range(4000):
        rng_t = np.random.default_rng(10_000 + trial)
        dim = int(rng_t.integers(2, 4))
        stages = int(rng_t.integers(1, 3))
        program = random_lp_program(rng_t, dim=dim, n_stages=stages)
        sizes = [int(rng_t.integers(4, 11))] * stages
        ms = draw_multisample(program, sizes, seed=trial)
        sol = solve(program, ms)
        if sol.status != "optimal":
            continue
        support = support_set(program, ms, sol)
        bound_ok = all(
            len(s) <= program.stages[i].zeta_bar for i, s in enumerate(support)
        )
        if not bound_ok or sum(len(s) for s in support) > program.dim:
            failures.append(f"LP trial {trial}: support bound violated")
            break
        checked += 1

    # (iii) essential set == support set on brute-force non-degenerate runs
    compared = 0
    for trial in range(150):
        rng_t = np.random.default_rng(50_000 + trial)
        program = random_lp_program(rng_t, dim=2, n_stages=1)
        ms = draw_multisample(program, [int(rng_t.integers(5, 8))], seed=trial)
        sol = solve(program, ms)
        if sol.status != "optimal":
            continue
        essential, minimal = essential_sets_bruteforce(program, ms)
        if len(essential) != 1:
            continue  # degenerate instance: equality is not asserted
        support_pairs = sorted((0, k) for k in support_set(program, ms, sol)[0])
        if sorted(minimal) != support_pairs:
            failures.append(f"essential/support mismatch at trial {trial}")
            break
        compared += 1

    # (iv) sampling-lemma implication on 10,000 small instances
    lemma_checked = 0
    one_d = order_stats_program()
    rng = np.random.default_rng(707)
    for trial in range(6000):
        ms = draw_multisample(one_d, [3], seed=trial)
        if not sampling_lemma_check(one_d, ms, np.array([float(rng.uniform())]), 0):
            failures.append(f"sampling lemma failed on 1-D trial {trial}")
            break
        lemma_checked += 1
    for trial in range(4000):
        rng_t = np.random.default_rng(90_000 + trial)
        program = random_lp_program(rng_t, dim=2, n_stages=1)
        ms = draw_multisample(program, [4], seed=trial)
        if solve(program, ms).status != "optimal":
            continue
        extra = program.stages[0].sampler.draw(np.random.default_rng(trial), 1)[0]
        if not sampling_lemma_check(program, ms, extra, 0):
            failures.append(f"sampling lemma failed on LP trial {trial}")
            break
        lemma_checked += 1

    _report(
        "A6", not failures,
        f"support bounds on {checked} instances, essential==support on {compared} "
        f"non-degenerate instances, sampling lemma on {lemma_checked} instances"
        if not failures else "; ".join(failures),
    )


def test_a7_bound_ordering_and_identity():
    failures = []
    for zeta in range(1, 51):
        for eps in (0.01, 0.05, 0.10, 0.25):
            for theta in (1e-3, 1e-6, 1e-9):
                implicit = implicit_sample_size(zeta, eps, theta)
                refined = refined_sample_size(zeta, eps, theta)
                chernoff = chernoff_sample_size(zeta, eps, theta)
                if not implicit <= refined <= chernoff:
                    failures.append(f"ordering broken at ({zeta}, {eps}, {theta})")

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        a = int(rng.integers(1, 40))
        b = int(rng.integers(1, 40))
        eps = float(rng.uniform(0.01, 0.99))
        lhs = regularized_incomplete_beta(eps, a, b) * math.exp(log_beta(a, b))
        rhs = (
            (1.0 / b)
            * math.exp(-log_binomial_coefficient(a + b - 1, b))
            * binomial_cdf(b - 1, a + b - 1, 1.0 - eps)
        )
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-10:
        failures.append(f"beta/binomial identity error {worst:.2e} above 1e-10")
    _report(
        "A7", not failures,
        f"implicit <= refined <= chernoff on 600 grid points; identity max error {worst:.2e}"
        if not failures else "; ".join(failures),
    )


def test_a8_monotonicity_oracle():
    program = program_from_json(json.loads((SPEC_DIR / "two_stage_monotonicity.json").read_text()))
    ok_a, counterexample_a = monotonicity_empirical_check(
        program.stages[0], program.cost, program.box_lower, program.box_upper,
        trials=100_000, seed=2026,
    )
    ok_b, counterexample_b = monotonicity_empirical_check(
        program.stages[1], program.cost, program.box_lower, program.box_upper,
        trials=100_000, seed=2026,
    )
    failures = []
    if not ok_a:
        failures.append(f"discrete-slope stage falsified: {counterexample_a}")
    if ok_b or counterexample_b is None:
        failures.append("continuous-slope stage produced no counterexample in 1e5 trials")
    _report(
        "A8", not failures,
        "discrete-slope stage certified over 1e5 trials; continuous-slope stage falsified"
        if not failures else "; ".join(failures),
    )


def test_a9_cli_determinism():
    runner = CliRunner()
    spec = str(SPEC_DIR / "cuboid_n2.json")
    outputs = set()
    for threads in (1, 4):
        for _ in range(3):
            result = runner.invoke(
                cli_main,
                ["solve", "--spec", spec, "--seed", "17", "--validate", "1000",
                 "--threads", str(threads)],
            )
            assert result.exit_code == 0
            outputs.add(result.output)
    _report(
        "A9", len(outputs) == 1,
        "byte-identical over 3 runs x threads {1,4}" if len(outputs) == 1
        else f"{len(outputs)} distinct outputs",
    )
