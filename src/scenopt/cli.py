"""Command-line frontend: planning, solving, discarding, validation, benchmark.

Subcommands: samplesize, plan, solve, validate, cuboid.  All randomness flows
from --seed through named streams, so identical invocations produce identical
bytes.  The options that plan, solve and validate share are declared once
below; ``_plan`` loads and plans a spec for all three, and ``_write_manifest``
writes the manifest of every command that writes files.  Exit codes: 0
success, 2 usage/schema errors (flag ranges, spec schema defects, and --R
without --discard in solve and validate), 3 infeasible program, 4 simplex
iteration limit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import __version__
from .bounds import discard_posterior_confidence, plan_multistage, stage_sample_size
from .cuboid_bench import TABLE_EPS, TABLE_N, run_table1, run_table2_cells
from .discard import remove_greedy, remove_marginal, remove_optimal
from .program import program_from_json, solution_to_json
from .scenario_core import draw_multisample, solve, support_set
from .validate import estimate_violation, violation_survey

_ALGORITHMS = {"greedy": remove_greedy, "marginal": remove_marginal, "optimal": remove_optimal}
_MANIFEST = "manifest.json"

_spec_option = click.option("--spec", "spec_path", required=True, type=click.Path())
_seed_option = click.option("--seed", type=int, default=0, show_default=True)
_theta_option = click.option(
    "--theta", type=click.FloatRange(0, 1, min_open=True, max_open=True),
    default=1e-6, show_default=True,
)
_alpha_option = click.option(
    "--alpha", type=click.FloatRange(0, 1, min_open=True, max_open=True),
    default=0.05, show_default=True,
)
_method_option = click.option(
    "--method",
    type=click.Choice(["implicit", "chernoff", "refined"]),
    default="implicit",
    show_default=True,
)
_discard_option = click.option(
    "--discard",
    "algorithm",
    type=click.Choice(["none", *_ALGORITHMS]),
    default="none",
    show_default=True,
    help="Removal algorithm for sampling-and-discarding.",
)
_removals_option = click.option(
    "--R", "discard_text", default=None, help="Per-stage removal counts, e.g. '5,0'."
)
_recorded_threads_option = click.option(
    "--threads", type=click.IntRange(min=1), default=1, show_default=True,
    help="Recorded in the manifest only; the command runs serially.",
)


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int | None
    version: str
    outputs: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0


def _require_optimal(solution) -> None:
    """Exit 4 on a simplex iteration limit, 3 on any other non-optimal status."""
    if solution.status == "iteration-limit":
        click.echo("simplex iteration limit reached; no solution", err=True)
        sys.exit(4)
    if solution.status != "optimal":
        click.echo(f"program is {solution.status} under the drawn multisample", err=True)
        sys.exit(3)


def _write_manifest(
    out_dir: str, command: str, params: dict, seed: int | None, outputs: list[str],
    started: float,
) -> None:
    """Write the run's manifest.json, timed from ``started`` (time.monotonic)."""
    manifest = RunManifest(
        command=command, params=params, seed=seed, version=__version__, outputs=outputs,
        wall_clock_s=time.monotonic() - started,
    )
    with open(os.path.join(out_dir, _MANIFEST), "w") as handle:
        json.dump(asdict(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: str, lines: list[str]) -> str:
    """Write CSV lines below a comment naming the manifest beside them."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write(f"# manifest: {_MANIFEST}\n")
        handle.write("\n".join(lines) + "\n")
    return path


def _parse_discards(text: str | None, n_stages: int) -> tuple[int, ...]:
    if not text:
        return (0,) * n_stages
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"discard counts must be integers, got {text!r}")
    if len(values) == 1:
        values = values * n_stages
    if len(values) != n_stages:
        raise click.UsageError(f"expected {n_stages} discard counts, got {len(values)}")
    return tuple(values)


def _plan(spec_path: str, theta: float, method: str, discard_text: str | None):
    """(program, discards, plan) of a spec; any defect is a usage error."""
    try:
        with open(spec_path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read program spec {spec_path}: {exc}")
    try:
        program = program_from_json(doc)
    except ValueError as exc:
        raise click.UsageError(f"invalid program spec: {exc}")
    discards = _parse_discards(discard_text, program.n_stages)
    try:
        plan = plan_multistage(program, theta, method=method, discards=discards)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return program, discards, plan


def _check_runnable(program, algorithm: str, discards: tuple[int, ...]) -> None:
    """Drawing needs a sampler on every stage, and --R needs --discard."""
    if algorithm == "none" and any(discards):
        raise click.UsageError("--R requires a removal algorithm via --discard")
    for i, stage in enumerate(program.stages):
        if stage.sampler is None:
            raise click.UsageError(f"stage {i} has no sampler configured")


def _plan_doc(plan) -> dict:
    return {"theta_total": plan.theta_total, "stages": [asdict(entry) for entry in plan.stages]}


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Scenario-program planning, solving, discarding, and validation."""


@main.command("samplesize")
@click.option("--zeta", type=int, required=True, help="Support-rank bound of the stage.")
@click.option("--eps", type=float, required=True, help="Violation level in (0, 1).")
@click.option("--theta", type=float, required=True, help="Confidence budget in (0, 1).")
@click.option("--discard", type=int, default=0, show_default=True, help="Ex-post removal budget.")
@_method_option
def cmd_samplesize(zeta: int, eps: float, theta: float, discard: int, method: str) -> None:
    """Print the planned sample size and the tail bound it achieves."""
    try:
        size, _ = stage_sample_size(zeta, eps, theta, discard, method)
        achieved = discard_posterior_confidence(zeta, size, discard, eps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(str(size))
    click.echo(f"# achieved-bound {achieved:.6e}")


@main.command("plan")
@_spec_option
@_theta_option
@_method_option
@_removals_option
def cmd_plan(spec_path: str, theta: float, method: str, discard_text: str | None) -> None:
    """Print the per-stage sampling plan for a program spec."""
    _, _, plan = _plan(spec_path, theta, method, discard_text)
    click.echo(json.dumps(_plan_doc(plan), indent=2, sort_keys=True))


@main.command("solve")
@_spec_option
@_seed_option
@_theta_option
@_method_option
@_discard_option
@_removals_option
@click.option(
    "--validate", "n_val", type=click.IntRange(min=0), default=0,
    help="Validation draws per stage.",
)
@_alpha_option
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Write outputs here.")
@_recorded_threads_option
def cmd_solve(
    spec_path: str, seed: int, theta: float, method: str, algorithm: str,
    discard_text: str | None, n_val: int, alpha: float, out_dir: str | None, threads: int,
) -> None:
    """Plan, draw, solve, optionally discard and validate, then emit JSON."""
    started = time.monotonic()
    program, discards, plan = _plan(spec_path, theta, method, discard_text)
    _check_runnable(program, algorithm, discards)
    ms = draw_multisample(program, plan, seed)

    doc: dict = {"seed": seed, "plan": _plan_doc(plan)}
    if algorithm == "none":
        solution = solve(program, ms)
        _require_optimal(solution)
        support = support_set(program, ms, solution)
        doc.update(solution_to_json(solution, support=support))
    else:
        result = _ALGORITHMS[algorithm](program, ms, discards)
        solution = result.solution
        _require_optimal(solution)
        doc.update(solution_to_json(solution))
        doc["removed"] = result.removed
        doc["objective_improvement"] = result.objective_improvement
        doc["assumption_modes"] = result.assumption_modes

    if n_val > 0:
        doc["validation"] = [
            asdict(estimate_violation(np.asarray(doc["x"]), stage, n_val, alpha, seed))
            for stage in program.stages
        ]

    if out_dir:
        doc["manifest"] = os.path.join(out_dir, _MANIFEST)
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        solution_path = os.path.join(out_dir, "solution.json")
        with open(solution_path, "w") as handle:
            handle.write(payload + "\n")
        params = {
            "spec": spec_path, "theta": theta, "method": method,
            "discard_algorithm": algorithm, "discards": list(discards),
            "validate": n_val, "alpha": alpha, "threads": threads,
        }
        _write_manifest(out_dir, "solve", params, seed, [solution_path], started)
    click.echo(payload)


@main.command("validate")
@_spec_option
@_seed_option
@click.option("--reps", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--nval", type=click.IntRange(min=1), default=10_000, show_default=True)
@_alpha_option
@_theta_option
@_method_option
@_discard_option
@_removals_option
@click.option("--out", "out_path", type=click.Path(), default=None, help="CSV destination.")
@_recorded_threads_option
def cmd_validate(
    spec_path: str, seed: int, reps: int, nval: int, alpha: float, theta: float, method: str,
    algorithm: str, discard_text: str | None, out_path: str | None, threads: int,
) -> None:
    """Replicated violation survey; CSV rows (replication, stage, violation, exceeds)."""
    started = time.monotonic()
    program, discards, plan = _plan(spec_path, theta, method, discard_text)
    _check_runnable(program, algorithm, discards)
    survey = violation_survey(
        program, plan, reps, seed=seed,
        discard_algorithm=None if algorithm == "none" else _ALGORITHMS[algorithm],
        n_val=nval, alpha=alpha,
    )
    lines = ["replication,stage,violation,exceeds"]
    for rep in range(survey.replications):
        for i, stage in enumerate(program.stages):
            v = survey.violation[rep, i]
            if np.isnan(v):
                lines.append(f"{rep},{i},nan,")
            else:
                lines.append(f"{rep},{i},{v:.10g},{int(v > stage.eps)}")
    if not out_path:
        click.echo("\n".join(lines) + "\n", nl=False)
        return
    _write_csv(out_path, lines)
    params = {
        "spec": spec_path, "reps": reps, "nval": nval, "alpha": alpha,
        "theta": theta, "method": method, "discard_algorithm": algorithm,
        "discards": list(discards), "threads": threads,
    }
    out_dir = os.path.dirname(out_path) or "."
    _write_manifest(out_dir, "validate", params, seed, [out_path], started)


@main.group("cuboid")
def cmd_cuboid() -> None:
    """Minimal-diameter-cuboid benchmark tables."""


@cmd_cuboid.command("table1")
@_theta_option
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def cmd_table1(theta: float, out_dir: str) -> None:
    """Write the sample-size grids (multi- and single-stage) as CSV."""
    started = time.monotonic()
    multi, single = run_table1(theta)
    header = "eps_percent," + ",".join(str(n) for n in TABLE_N)
    outputs = []
    for name, table in (("table1_multi.csv", multi), ("table1_single.csv", single)):
        rows = [header] + [
            f"{eps * 100:g}," + ",".join(str(int(v)) for v in table[r])
            for r, eps in enumerate(TABLE_EPS)
        ]
        outputs.append(_write_csv(os.path.join(out_dir, name), rows))
        click.echo(outputs[-1])
    _write_manifest(out_dir, "cuboid table1", {"theta": theta}, None, outputs, started)


def _parse_cells(text: str) -> list[tuple[float, int]]:
    """The named (eps, n) cells in the order given, each once: eps in
    (0, 100) percent, n at least 1, and at least one cell."""
    if text == "all":
        return [(eps, n) for eps in TABLE_EPS for n in TABLE_N]
    cells: list[tuple[float, int]] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            eps_text, n_text = piece.split(":")
            cell = (float(eps_text) / 100.0, int(n_text))
        except ValueError:
            raise click.UsageError(f"cell spec must look like '1:2,10:50', got {text!r}")
        if not (0.0 < cell[0] < 1.0 and cell[1] >= 1):
            raise click.UsageError(f"cell {piece!r} needs eps in (0, 100) percent and n >= 1")
        if cell not in cells:
            cells.append(cell)
    if not cells:
        raise click.UsageError(f"--cells names no cell: {text!r}")
    return cells


@cmd_cuboid.command("table2")
@click.option("--reps", type=click.IntRange(min=1), default=10_000, show_default=True)
@_seed_option
@click.option("--cells", default="all", show_default=True, help="'all' or 'eps%:n' pairs.")
@_theta_option
@click.option("--out", "out_path", type=click.Path(), default="table2.csv", show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_table2(
    reps: int, seed: int, cells: str, theta: float, out_path: str, threads: int
) -> None:
    """Monte-Carlo the single-over-multi objective surplus grid as CSV."""
    started = time.monotonic()
    named = _parse_cells(cells)
    table = run_table2_cells(
        named, replications=reps, seed=seed, theta_total=theta,
        threads=threads,
    )
    lines = ["eps_percent,n,mean_surplus,stderr,replications"]
    for eps, n in named:
        mean, stderr = table[(eps, n)]
        lines.append(f"{eps * 100:g},{n},{mean:.6f},{stderr:.6f},{reps}")
    _write_csv(out_path, lines)
    params = {"reps": reps, "cells": cells, "theta": theta, "threads": threads}
    out_dir = os.path.dirname(out_path) or "."
    _write_manifest(out_dir, "cuboid table2", params, seed, [out_path], started)
    click.echo(out_path)


if __name__ == "__main__":
    main()
