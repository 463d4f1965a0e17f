"""Correctness checks for the benchmark's operations.

Every check compares an output of scenopt against a value computed here,
apart from the package (binomial tails in mpmath, the normal distribution
through ``math.erfc``, hulls and extremes straight from the drawn samples),
or against a property the scenario method guarantees.  Each function
returns a list of failure messages; an empty list means the output passed.
``selftest.py`` feeds each one a corrupted output to show it rejects it.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 60

# Published single-over-multi objective surplus of the three table2 cells.
PUBLISHED_SURPLUS = {(0.01, 2): 0.024, (0.10, 10): 0.115, (0.25, 50): 0.285}

# Feasibility slack for a sampled row, relative to the row's scale; the LP
# core reports solutions feasible to ~1e-9 (scaled).
ROW_TOL = 1e-7
# Distance, in binomial standard deviations, that a Monte-Carlo count may
# sit from its expectation before a check fails.
Z_ALLOW = 6.0


def discard_tail(zeta: int, discard: int, trials: int, eps: float) -> mpmath.mpf:
    """C(R + zeta - 1, R) * Phi(R + zeta - 1; K, eps) in 60-digit arithmetic,
    with eps taken as the exact binary value of the float."""
    p = mpmath.mpf(eps)
    q = 1 - p
    top = discard + zeta - 1
    term = q ** trials
    total = term
    for j in range(top):
        term = term * (trials - j) / (j + 1) * p / q
        total += term
    return math.comb(top, discard) * total


def check_minimal_size(
    size: int, zeta: int, discard: int, eps: float, theta: float, label: str
) -> list[str]:
    """``size`` is the smallest K >= zeta + R + 1 whose discard tail is at
    most theta."""
    floor = zeta + discard + 1
    theta_mp = mpmath.mpf(theta)
    if size < floor:
        return [f"{label}: K={size} below the floor {floor}"]
    if discard_tail(zeta, discard, size, eps) > theta_mp:
        return [f"{label}: K={size} misses the tail bound {theta:g}"]
    if size > floor and discard_tail(zeta, discard, size - 1, eps) <= theta_mp:
        return [f"{label}: K={size} is not minimal, K-1 already meets {theta:g}"]
    return []


def check_plan(plan_doc: dict, eps, zeta, discard: int, theta_total: float) -> list[str]:
    """A ``scenopt plan`` document: stage i was planned at (eps[i], zeta[i])
    with ``discard`` removals, and its K_i is minimal under an even split of
    the confidence budget."""
    stages = plan_doc["stages"]
    if len(stages) != len(eps):
        return [f"plan has {len(stages)} stages, the spec has {len(eps)}"]
    theta_i = theta_total / len(stages)
    errors = []
    for i, entry in enumerate(stages):
        if (entry["eps"], entry["zeta_bar"], entry["discard"]) != (eps[i], zeta[i], discard):
            errors.append(f"plan stage {i}: unexpected parameters {entry}")
            continue
        errors += check_minimal_size(
            entry["size"], zeta[i], discard, eps[i], theta_i, f"plan stage {i}"
        )
    return errors


def _normal_cdf(v: float) -> float:
    return 0.5 * math.erfc(-v / math.sqrt(2.0))


def check_cuboid_instance(n: int, outcomes, x, support, violations, n_val: int) -> list[str]:
    """One multi-stage cuboid solve on the (z, w) layout.

    ``outcomes`` are the drawn samples per coordinate, ``x`` the solver's
    point, ``support`` the support sets and ``violations`` the Monte-Carlo
    violation counts per stage out of ``n_val`` fresh draws.
    """
    import numpy as np  # here, so that importing this module leaves numpy out of set-up

    errors = []
    x = np.asarray(x, dtype=float)
    z, w = x[:n], x[n:]
    for i in range(n):
        values = np.asarray(outcomes[i], dtype=float).reshape(-1)
        lo, hi = float(values.min()), float(values.max())
        scale = 1.0 + max(abs(lo), abs(hi))
        if abs(z[i] - 0.5 * (lo + hi)) > ROW_TOL * scale or abs(w[i] - (hi - lo)) > ROW_TOL * scale:
            errors.append(f"coordinate {i}: (z, w)=({z[i]}, {w[i]}) is not the hull [{lo}, {hi}]")
        slack = np.maximum(values - (z[i] + 0.5 * w[i]), (z[i] - 0.5 * w[i]) - values)
        if float(slack.max()) > ROW_TOL * scale:
            errors.append(f"coordinate {i}: a sampled row is violated by {float(slack.max()):.3g}")
        order = np.argsort(values, kind="stable")
        extremes = set()
        if values[order[0]] < values[order[1]]:
            extremes.add(int(order[0]))
        if values[order[-1]] > values[order[-2]]:
            extremes.add(int(order[-1]))
        if set(support[i]) != extremes:
            errors.append(f"coordinate {i}: support {sorted(support[i])} != strict extremes {sorted(extremes)}")
        p = _normal_cdf(z[i] - 0.5 * w[i]) + 1.0 - _normal_cdf(z[i] + 0.5 * w[i])
        allowance = Z_ALLOW * math.sqrt(n_val * p * (1.0 - p)) + 1.0
        if abs(violations[i] - n_val * p) > allowance:
            errors.append(
                f"coordinate {i}: {violations[i]}/{n_val} violations, closed form "
                f"expects {n_val * p:.1f} +- {allowance:.1f}"
            )
    return errors


def parse_survey_csv(text: str) -> list[tuple[int, int, float, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "replication,stage,violation,exceeds":
        raise ValueError(f"unexpected survey header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        rep, stage, violation, exceeds = line.split(",")
        rows.append((int(rep), int(stage), float(violation), exceeds))
    return rows


def check_survey(
    rows, replications: int, sizes, eps, zeta, n_val: int, check_mean: bool
) -> list[str]:
    """One ``scenopt validate`` survey.

    Every replication must be feasible and stay within eps (the method
    bounds P(V_i > eps_i) by theta_i, here 5e-7).  With ``check_mean`` each
    stage's mean violation must stay within zeta/(K+1), the mean of the
    Beta(zeta, K - zeta + 1) law that dominates V_i, plus Z_ALLOW standard
    errors of that law and of the n_val-draw estimate.
    """
    errors = []
    n_stages = len(sizes)
    expected = {(r, i) for r in range(replications) for i in range(n_stages)}
    seen = {(r, i) for r, i, _, _ in rows}
    if seen != expected or len(rows) != len(expected):
        return [f"survey rows cover {len(seen)} of {len(expected)} (replication, stage) pairs"]
    sums = [0.0] * n_stages
    for rep, stage, violation, exceeds in rows:
        if math.isnan(violation):
            errors.append(f"replication {rep} stage {stage} is infeasible")
            continue
        if not 0.0 <= violation <= eps[stage] or exceeds != "0":
            errors.append(f"replication {rep} stage {stage}: V={violation} exceeds eps={eps[stage]}")
        sums[stage] += violation
    if check_mean and not errors:
        for i in range(n_stages):
            k, zb = sizes[i], zeta[i]
            mean_bound = zb / (k + 1)
            second_moment = zb * (zb + 1) / ((k + 1) * (k + 2))
            allowance = Z_ALLOW * math.sqrt((second_moment + mean_bound / n_val) / replications)
            mean = sums[i] / replications
            if mean > mean_bound + allowance:
                errors.append(
                    f"stage {i}: mean violation {mean:.5f} above zeta/(K+1)={mean_bound:.5f} "
                    f"+ {allowance:.5f}"
                )
    return errors


def parse_table1(text: str) -> tuple[list[float], list[int], list[list[int]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    if header[0] != "eps_percent":
        raise ValueError(f"unexpected table1 header {lines[0]!r}")
    n_values = [int(v) for v in header[1:]]
    eps_values, sizes = [], []
    for line in lines[1:]:
        cells = line.split(",")
        eps_values.append(float(cells[0]) / 100.0)
        sizes.append([int(v) for v in cells[1:]])
    return eps_values, n_values, sizes


def check_table1(multi_text: str, single_text: str, theta: float) -> list[str]:
    """Multi-stage entries are minimal at rank 2 with theta/n per stage;
    single-stage entries are minimal at rank 2n + 1 with the full theta."""
    errors = []
    for text, mode in ((multi_text, "multi"), (single_text, "single")):
        eps_values, n_values, sizes = parse_table1(text)
        if len(eps_values) != 4 or len(n_values) != 7:
            errors.append(f"table1 {mode}: grid is {len(eps_values)}x{len(n_values)}, expected 4x7")
        for r, eps in enumerate(eps_values):
            for c, n in enumerate(n_values):
                if mode == "multi":
                    zeta, theta_i = 2, theta / n
                else:
                    zeta, theta_i = 2 * n + 1, theta
                errors += check_minimal_size(
                    sizes[r][c], zeta, 0, eps, theta_i, f"table1 {mode} eps={eps:g} n={n}"
                )
    return errors


def parse_table2(text: str) -> list[tuple[float, int, float, float, int]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if lines[0] != "eps_percent,n,mean_surplus,stderr,replications":
        raise ValueError(f"unexpected table2 header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        eps_pct, n, mean, stderr, reps = line.split(",")
        rows.append((float(eps_pct) / 100.0, int(n), float(mean), float(stderr), int(reps)))
    return rows


def check_table2_cell(rows, eps: float, n: int, replications: int) -> list[str]:
    """The single requested cell, with a positive mean surplus within
    max(0.005, 4 stderr) of the published value."""
    if len(rows) != 1 or rows[0][:2] != (eps, n) or rows[0][4] != replications:
        return [f"table2 {eps:g}:{n}: expected one row for the cell, got {rows}"]
    _, _, mean, stderr, _ = rows[0]
    errors = []
    if not mean > 0.0:
        errors.append(f"table2 {eps:g}:{n}: mean surplus {mean} is not positive")
    published = PUBLISHED_SURPLUS[(eps, n)]
    tolerance = max(0.005, 4.0 * stderr)
    if not abs(mean - published) <= tolerance:
        errors.append(
            f"table2 {eps:g}:{n}: mean surplus {mean:.4f} vs published {published:.3f} "
            f"(tolerance {tolerance:.4f})"
        )
    return errors
