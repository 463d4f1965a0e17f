#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

Each check is shown a valid output, which it must accept, and deliberately
corrupted copies, each of which it must reject.  Valid outputs are built
here from first principles (hulls of drawn samples, the paper's published
table 1, Beta-distributed violations), never from saved program output.

    python3 bench/selftest.py        # exit 0 and one line per case
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks

# The paper's table 1 (theta = 1e-6): rows eps = 1, 5, 10, 25 %, columns n.
TABLE_N = (2, 3, 5, 10, 50, 100, 500)
TABLE_EPS_PCT = (1, 5, 10, 25)
TABLE1_MULTI = (
    (1734, 1777, 1831, 1903, 2072, 2144, 2311),
    (341, 349, 360, 374, 407, 421, 454),
    (166, 170, 176, 182, 199, 205, 221),
    (62, 63, 65, 67, 73, 76, 82),
)
TABLE1_SINGLE = (
    (2334, 2722, 3431, 5020, 15588, 27535, 115786),
    (459, 536, 677, 992, 3095, 5477, 23093),
    (225, 263, 332, 488, 1533, 2719, 11506),
    (84, 99, 125, 186, 595, 1063, 4550),
)

failures: list[str] = []


def expect(label: str, errors: list[str], should_pass: bool) -> None:
    ok = (not errors) == should_pass
    verdict = "accepts" if not errors else f"rejects ({errors[0][:90]})"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        failures.append(label)


def table1_text(table, bump=None) -> str:
    lines = ["# manifest: manifest.json", "eps_percent," + ",".join(map(str, TABLE_N))]
    for r, eps in enumerate(TABLE_EPS_PCT):
        row = list(table[r])
        if bump is not None and bump[0] == r:
            row[bump[1]] += bump[2]
        lines.append(f"{eps}," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def test_sizes() -> None:
    good = {"stages": [
        {"stage": i, "size": 166, "discard": 0, "eps": 0.1, "zeta_bar": 2} for i in range(2)
    ]}
    expect("plan K=166 (eps 0.1, rank 2, theta 1e-6 over 2 stages)",
           checks.check_plan(good, [0.1, 0.1], [2, 2], 0, 1e-6), True)
    for delta in (-1, 1):
        bad = {"stages": [dict(good["stages"][0]), dict(good["stages"][1], size=166 + delta)]}
        expect(f"plan K={166 + delta}", checks.check_plan(bad, [0.1, 0.1], [2, 2], 0, 1e-6), False)
    discard = {"stages": [
        {"stage": i, "size": 292, "discard": 5, "eps": 0.1, "zeta_bar": 2} for i in range(2)
    ]}
    expect("plan K=292 with R=5", checks.check_plan(discard, [0.1, 0.1], [2, 2], 5, 1e-6), True)
    expect("plan K=292 read as R=4", checks.check_plan(
        {"stages": [dict(s, discard=4) for s in discard["stages"]]}, [0.1, 0.1], [2, 2], 4, 1e-6
    ), False)

    multi, single = table1_text(TABLE1_MULTI), table1_text(TABLE1_SINGLE)
    expect("published table 1", checks.check_table1(multi, single, 1e-6), True)
    expect("table 1 multi eps=5% n=10 plus one",
           checks.check_table1(table1_text(TABLE1_MULTI, (1, 3, 1)), single, 1e-6), False)
    expect("table 1 single eps=1% n=500 minus one",
           checks.check_table1(multi, table1_text(TABLE1_SINGLE, (0, 6, -1)), 1e-6), False)


def test_cuboid() -> None:
    rng = np.random.default_rng(5)
    n, k, n_val = 3, 360, 10_000
    outcomes = [rng.standard_normal((k, 1)) for _ in range(n)]
    lo = np.array([o.min() for o in outcomes])
    hi = np.array([o.max() for o in outcomes])
    x = np.concatenate([(lo + hi) / 2, hi - lo])
    support = [sorted({int(o.argmin()), int(o.argmax())}) for o in outcomes]
    p = [
        0.5 * math.erfc(hi[i] / math.sqrt(2)) + 0.5 * math.erfc(-lo[i] / math.sqrt(2))
        for i in range(n)
    ]
    violations = [int(rng.binomial(n_val, p_i)) for p_i in p]
    expect("cuboid hull solution", checks.check_cuboid_instance(n, outcomes, x, support, violations, n_val), True)

    shifted = x.copy()
    shifted[0] += 1e-3
    expect("cuboid z shifted", checks.check_cuboid_instance(n, outcomes, shifted, support, violations, n_val), False)
    narrow = x.copy()
    narrow[n + 1] -= 1e-3
    narrow[1] -= 5e-4
    expect("cuboid width cut (row violated)",
           checks.check_cuboid_instance(n, outcomes, narrow, support, violations, n_val), False)
    wrong_support = [list(s) for s in support]
    wrong_support[2] = wrong_support[2][:1]
    expect("cuboid support missing a member",
           checks.check_cuboid_instance(n, outcomes, x, wrong_support, violations, n_val), False)
    off = list(violations)
    off[1] = 2 * off[1] + 40
    expect("cuboid violation count off",
           checks.check_cuboid_instance(n, outcomes, x, support, off, n_val), False)


def survey_text(values, eps=0.1) -> str:
    lines = ["replication,stage,violation,exceeds"]
    for rep, row in enumerate(values):
        for i, v in enumerate(row):
            lines.append(f"{rep},{i},nan," if math.isnan(v) else f"{rep},{i},{v:.10g},{int(v > eps)}")
    return "\n".join(lines) + "\n"


def test_survey() -> None:
    rng = np.random.default_rng(9)
    reps, k, n_val = 100, 166, 10_000
    values = rng.binomial(n_val, rng.beta(2, k - 1, size=(reps, 2))) / n_val
    args = (reps, [k, k], [0.1, 0.1], [2, 2], n_val, True)

    def run(vals):
        return checks.check_survey(checks.parse_survey_csv(survey_text(vals)), *args)

    expect("survey with Beta(2, K-1) violations", run(values), True)
    bad = values.copy()
    bad[7, 1] = math.nan
    expect("survey with an infeasible replication", run(bad), False)
    bad = values.copy()
    bad[3, 0] = 0.1004
    expect("survey with V above eps", run(bad), False)
    expect("survey missing a replication",
           checks.check_survey(checks.parse_survey_csv(survey_text(values[:-1])), *args), False)
    expect("survey with mean violation 0.05", run(np.full((reps, 2), 0.05)), False)


def test_table2() -> None:
    def text(mean, stderr=0.0007, cell="1,2", reps=10_000):
        return (f"# manifest: manifest.json\neps_percent,n,mean_surplus,stderr,replications\n"
                f"{cell},{mean:.6f},{stderr:.6f},{reps}\n")

    def run(t, eps=0.01, n=2):
        return checks.check_table2_cell(checks.parse_table2(t), eps, n, 10_000)

    expect("table2 1:2 at 2.62%", run(text(0.0262)), True)
    expect("table2 25:50 at 28.47%", run(text(0.2847, 0.0003, "25,50"), 0.25, 50), True)
    expect("table2 1:2 at 3.1%", run(text(0.031)), False)
    expect("table2 1:2 negative surplus", run(text(-0.0262)), False)
    expect("table2 wrong cell", run(text(0.115, cell="10,10")), False)
    expect("table2 wrong replications", run(text(0.0262, reps=1000)), False)


if __name__ == "__main__":
    test_sizes()
    test_cuboid()
    test_survey()
    test_table2()
    print(f"{len(failures)} self-test failure(s)")
    sys.exit(1 if failures else 0)
