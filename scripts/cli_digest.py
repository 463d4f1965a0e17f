#!/usr/bin/env python3
"""Digest the CLI's outputs over a fixed grid of invocations, for bit-for-bit
comparisons of two checkouts.

The grid runs in-process through click's ``CliRunner``:

- ``plan`` on the three specs, plain and with ``--method chernoff --R 3``;
- ``solve`` on the three specs at seeds 0, 3 and 7: plain, with
  ``--validate 500``, and with ``--discard greedy|marginal --R 3``; and
  ``--discard optimal --R 2`` on ``order_stats_1d``;
- ``validate`` on the two-stage spec with ``--discard greedy --R 5,5
  --reps 4``, and on ``order_stats_1d``;
- ``samplesize`` on a few (zeta, eps, theta, discard, method) points;
- ``cuboid table1``, and ``cuboid table2`` on two cells;
- the ``--out`` (``--out-dir``) variant of each command that writes files.

The script prints one SHA-256 digest per command over every invocation's
exit code, stdout and the files it wrote.  The temporary directory is
replaced by ``<tmp>`` and every ``wall_clock_s`` by 0 first, so equal lines
mean equal results.  To compare with another checkout, run this same copy
of the script with ``PYTHONPATH=<checkout>/src``: the manifests record the
spec paths, so a copy in another directory digests differently.

Usage:
    PYTHONPATH=src python scripts/cli_digest.py
"""

import hashlib
import os
import pathlib
import re
import sys
import tempfile

from click.testing import CliRunner

from scenopt.cli import main as cli_main

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
CUBOID = str(SPEC_DIR / "cuboid_n2.json")
ORDER_STATS = str(SPEC_DIR / "order_stats_1d.json")
TWO_STAGE = str(SPEC_DIR / "two_stage_monotonicity.json")
SPECS = (CUBOID, ORDER_STATS, TWO_STAGE)
SEEDS = (0, 3, 7)

_WALL_CLOCK = re.compile(r'("wall_clock_s": )[0-9.eE+-]+')


def grid(tmp: str) -> list[tuple[str, list[str]]]:
    """(digest name, argv) pairs; each ``--out`` path is fresh under ``tmp``."""
    runs: list[tuple[str, list[str]]] = []
    for spec in SPECS:
        runs.append(("plan", ["plan", "--spec", spec]))
        runs.append(("plan", ["plan", "--spec", spec, "--method", "chernoff", "--R", "3"]))
    for spec in SPECS:
        for seed in SEEDS:
            base = ["solve", "--spec", spec, "--seed", str(seed)]
            runs.append(("solve", base))
            runs.append(("solve", base + ["--validate", "500"]))
            for algorithm in ("greedy", "marginal"):
                runs.append(("solve", base + ["--discard", algorithm, "--R", "3"]))
    for seed in SEEDS:
        runs.append(("solve", ["solve", "--spec", ORDER_STATS, "--seed", str(seed),
                               "--discard", "optimal", "--R", "2"]))
    runs.append(("solve", ["solve", "--spec", TWO_STAGE, "--seed", "3", "--validate", "500",
                           "--discard", "greedy", "--R", "2", "--threads", "2",
                           "--out", os.path.join(tmp, "solve")]))
    survey = ["validate", "--spec", TWO_STAGE, "--seed", "3", "--discard", "greedy",
              "--R", "5,5", "--reps", "4"]
    runs.append(("validate", survey))
    runs.append(("validate", ["validate", "--spec", ORDER_STATS, "--seed", "5",
                              "--reps", "20", "--nval", "2000"]))
    runs.append(("validate", survey + ["--threads", "2",
                                       "--out", os.path.join(tmp, "validate", "survey.csv")]))
    for zeta, eps, theta, discard, method in (
        (2, 0.01, 5e-7, 0, "implicit"), (2, 0.1, 1e-6, 0, "chernoff"),
        (5, 0.05, 1e-9, 5, "refined"), (1, 0.5, 0.5, 0, "implicit"),
    ):
        runs.append(("samplesize", ["samplesize", "--zeta", str(zeta), "--eps", str(eps),
                                    "--theta", str(theta), "--discard", str(discard),
                                    "--method", method]))
    runs.append(("cuboid table1", ["cuboid", "table1", "--out-dir", os.path.join(tmp, "table1")]))
    runs.append(("cuboid table2", ["cuboid", "table2", "--reps", "200", "--seed", "7",
                                   "--cells", "10:2,25:10", "--threads", "2",
                                   "--out", os.path.join(tmp, "table2", "table2.csv")]))
    return runs


def _normalise(text: str, tmp: str) -> bytes:
    return _WALL_CLOCK.sub(r"\g<1>0", text.replace(tmp, "<tmp>")).encode()


def _files(root: str) -> set[str]:
    return {os.path.join(d, f) for d, _, names in os.walk(root) for f in names}


def main() -> int:
    runner = CliRunner()
    digests: dict = {}
    counts: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in grid(tmp):
            before = _files(tmp)
            result = runner.invoke(cli_main, args)
            if result.exit_code != 0:
                print(f"exit {result.exit_code}: scenopt {' '.join(args)}", file=sys.stderr)
            digest = digests.setdefault(name, hashlib.sha256())
            counts[name] = counts.get(name, 0) + 1
            digest.update(f"exit {result.exit_code}\n".encode())
            digest.update(_normalise(result.stdout, tmp))
            for path in sorted(_files(tmp) - before):
                digest.update(_normalise(path, tmp))
                digest.update(_normalise(pathlib.Path(path).read_text(), tmp))
    for name, digest in digests.items():
        print(f"{name:<14} {counts[name]:>3} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
