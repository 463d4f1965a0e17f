#!/usr/bin/env python3
"""Digest sweep over random library programs, for bit-for-bit comparisons.

Each program is ``random_lp_program`` from ``tests/conftest.py`` with a
random dimension (2-4), stage count (1-2), per-stage sample sizes (6-19),
discard budgets (0-3) and sampling seed, all drawn from one generator.
Every program runs through ``solve``, ``support_set`` (when the solve is
optimal), ``remove_greedy`` and ``remove_marginal``; every tenth program
whose budgets sum to at most 3 also runs through ``remove_optimal``, and
every program with at most 8 sampled constraints through
``essential_sets_bruteforce`` (which draws nothing from the generator).

The script prints one SHA-256 digest per algorithm over the statuses, the
bytes of x and of the objective, the active sets, and for removals the
removed samples, the improvement and the assumption modes; for essential
sets, every essential set and the minimal one, or the exception raised.
A last line counts the dual-simplex runs over the whole sweep and the
pivots they took.  Run it in two checkouts with the same arguments; equal
lines mean equal results.

Usage:
    PYTHONPATH=src python scripts/library_sweep.py [--rng 12345] [--programs 300]
"""

import argparse
import hashlib
import pathlib
import sys

import numpy as np

from scenopt import lp
from scenopt.discard import remove_greedy, remove_marginal, remove_optimal
from scenopt.scenario_core import (
    draw_multisample,
    essential_sets_bruteforce,
    solve,
    support_set,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_lp_program  # noqa: E402


def _feed_solution(digest, solution) -> None:
    digest.update(solution.status.encode())
    digest.update(np.asarray(solution.x, dtype=float).tobytes())
    digest.update(np.float64(solution.objective).tobytes())
    digest.update(repr(solution.active).encode())


def _feed_removal(digest, result) -> None:
    _feed_solution(digest, result.solution)
    digest.update(repr(result.removed).encode())
    digest.update(np.float64(result.objective_improvement).tobytes())
    digest.update(repr(result.assumption_modes).encode())


def _count_simplex_runs() -> list[int]:
    """Wrap ``lp._dual_form_simplex``, which every LP solve goes through, to
    record the pivots of each run."""
    pivots = []
    original = lp._dual_form_simplex

    def counted(*args):
        result = original(*args)
        pivots.append(result[2])
        return result

    lp._dual_form_simplex = counted
    return pivots


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rng", type=int, default=12345, help="seed of the program generator")
    parser.add_argument("--programs", type=int, default=300)
    args = parser.parse_args()

    names = ("solve", "support_set", "greedy", "marginal", "optimal", "essential")
    digests = {name: hashlib.sha256() for name in names}
    runs = dict.fromkeys(names, 0)
    pivots = _count_simplex_runs()
    rng = np.random.default_rng(args.rng)
    for index in range(args.programs):
        dim = rng.integers(2, 5)
        n_stages = rng.integers(1, 3)
        program = random_lp_program(rng, dim, n_stages)
        sizes = rng.integers(6, 20, size=n_stages).tolist()
        discards = rng.integers(0, 4, size=n_stages).tolist()
        seed = int(rng.integers(2**31))
        ms = draw_multisample(program, sizes, seed)

        solution = solve(program, ms)
        _feed_solution(digests["solve"], solution)
        runs["solve"] += 1
        if solution.status == "optimal":
            digests["support_set"].update(repr(support_set(program, ms, solution)).encode())
            runs["support_set"] += 1
        for name, algorithm in (("greedy", remove_greedy), ("marginal", remove_marginal)):
            _feed_removal(digests[name], algorithm(program, ms, discards))
            runs[name] += 1
        if index % 10 == 0 and sum(discards) <= 3:
            _feed_removal(digests["optimal"], remove_optimal(program, ms, discards))
            runs["optimal"] += 1
        if sum(sizes) <= 8:
            try:
                outcome = repr(essential_sets_bruteforce(program, ms))
            except (ValueError, ArithmeticError) as exc:
                outcome = type(exc).__name__
            digests["essential"].update(outcome.encode())
            runs["essential"] += 1

    for name in names:
        print(f"{name:<12} {runs[name]:>4} {digests[name].hexdigest()}")
    print(f"{'pivots':<12} {len(pivots):>4} {sum(pivots)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
