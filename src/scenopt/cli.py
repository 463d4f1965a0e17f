"""Command-line frontend: planning, solving, discarding, validation, benchmark.

Subcommands: samplesize, plan, solve, validate, cuboid.  All randomness flows
from --seed through named streams, so identical invocations produce identical
bytes.  Exit codes: 0 success, 2 usage/schema errors, 3 infeasible program,
4 simplex iteration limit.
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


def _write_manifest(out_dir: str, manifest: RunManifest) -> str:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as handle:
        json.dump(asdict(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _load_program(spec_path: str):
    try:
        with open(spec_path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read program spec {spec_path}: {exc}")
    try:
        return program_from_json(doc)
    except ValueError as exc:
        raise click.UsageError(f"invalid program spec: {exc}")


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


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Scenario-program planning, solving, discarding, and validation."""


@main.command("samplesize")
@click.option("--zeta", type=int, required=True, help="Support-rank bound of the stage.")
@click.option("--eps", type=float, required=True, help="Violation level in (0, 1).")
@click.option("--theta", type=float, required=True, help="Confidence budget in (0, 1).")
@click.option("--discard", type=int, default=0, show_default=True, help="Ex-post removal budget.")
@click.option(
    "--method",
    type=click.Choice(["implicit", "chernoff", "refined"]),
    default="implicit",
    show_default=True,
)
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
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--theta", type=float, default=1e-6, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["implicit", "chernoff", "refined"]),
    default="implicit",
    show_default=True,
)
@click.option("--R", "discard_text", default=None, help="Per-stage removal counts, e.g. '5,0'.")
def cmd_plan(spec_path: str, theta: float, method: str, discard_text: str | None) -> None:
    """Print the per-stage sampling plan for a program spec."""
    program = _load_program(spec_path)
    discards = _parse_discards(discard_text, program.n_stages)
    try:
        plan = plan_multistage(program, theta, method=method, discards=discards)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    doc = {
        "theta_total": plan.theta_total,
        "stages": [asdict(entry) for entry in plan.stages],
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@main.command("solve")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--theta", type=float, default=1e-6, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["implicit", "chernoff", "refined"]),
    default="implicit",
    show_default=True,
)
@click.option(
    "--discard",
    "algorithm",
    type=click.Choice(["none", "greedy", "marginal", "optimal"]),
    default="none",
    show_default=True,
    help="Removal algorithm for sampling-and-discarding.",
)
@click.option("--R", "discard_text", default=None, help="Per-stage removal counts, e.g. '5,0'.")
@click.option("--validate", "n_val", type=int, default=0, help="Validation draws per stage.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Write outputs here.")
@click.option(
    "--threads", type=int, default=1, show_default=True,
    help="Recorded in the manifest only; the solve runs serially.",
)
def cmd_solve(
    spec_path: str,
    seed: int,
    theta: float,
    method: str,
    algorithm: str,
    discard_text: str | None,
    n_val: int,
    alpha: float,
    out_dir: str | None,
    threads: int,
) -> None:
    """Plan, draw, solve, optionally discard and validate, then emit JSON."""
    started = time.monotonic()
    program = _load_program(spec_path)
    discards = _parse_discards(discard_text, program.n_stages)
    if algorithm == "none" and any(discards):
        raise click.UsageError("--R requires a removal algorithm via --discard")
    try:
        plan = plan_multistage(program, theta, method=method, discards=discards)
        ms = draw_multisample(program, plan, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    doc: dict = {
        "seed": seed,
        "plan": {
            "theta_total": plan.theta_total,
            "stages": [asdict(entry) for entry in plan.stages],
        },
    }
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
        reports = []
        for stage in program.stages:
            est = estimate_violation(np.asarray(doc["x"]), stage, n_val, alpha, seed)
            reports.append(asdict(est))
        doc["validation"] = reports

    payload = json.dumps(doc, indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        solution_path = os.path.join(out_dir, "solution.json")
        manifest = RunManifest(
            command="solve",
            params={
                "spec": spec_path, "theta": theta, "method": method,
                "discard_algorithm": algorithm, "discards": list(discards),
                "validate": n_val, "alpha": alpha, "threads": threads,
            },
            seed=seed,
            version=__version__,
            outputs=[solution_path],
        )
        doc["manifest"] = os.path.join(out_dir, "manifest.json")
        payload = json.dumps(doc, indent=2, sort_keys=True)
        with open(solution_path, "w") as handle:
            handle.write(payload)
            handle.write("\n")
        manifest.wall_clock_s = time.monotonic() - started
        _write_manifest(out_dir, manifest)
    click.echo(payload)


@main.command("validate")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--nval", type=int, default=10_000, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--theta", type=float, default=1e-6, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["implicit", "chernoff", "refined"]),
    default="implicit",
    show_default=True,
)
@click.option(
    "--discard",
    "algorithm",
    type=click.Choice(["none", "greedy", "marginal", "optimal"]),
    default="none",
    show_default=True,
    help="Removal algorithm for sampling-and-discarding.",
)
@click.option("--R", "discard_text", default=None, help="Per-stage removal counts.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="CSV destination.")
@click.option(
    "--threads", type=int, default=1, show_default=True,
    help="Recorded in the manifest only; the survey runs serially.",
)
def cmd_validate(
    spec_path: str,
    seed: int,
    reps: int,
    nval: int,
    alpha: float,
    theta: float,
    method: str,
    algorithm: str,
    discard_text: str | None,
    out_path: str | None,
    threads: int,
) -> None:
    """Replicated violation survey; CSV rows (replication, stage, violation, exceeds)."""
    started = time.monotonic()
    program = _load_program(spec_path)
    discards = _parse_discards(discard_text, program.n_stages)
    try:
        plan = plan_multistage(program, theta, method=method, discards=discards)
    except ValueError as exc:
        raise click.UsageError(str(exc))
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
    body = "\n".join(lines) + "\n"
    if out_path:
        out_dir = os.path.dirname(out_path) or "."
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest(
            command="validate",
            params={
                "spec": spec_path, "reps": reps, "nval": nval, "alpha": alpha,
                "theta": theta, "method": method, "discard_algorithm": algorithm,
                "discards": list(discards), "threads": threads,
            },
            seed=seed,
            version=__version__,
            outputs=[out_path],
        )
        manifest.wall_clock_s = time.monotonic() - started
        manifest_path = _write_manifest(out_dir, manifest)
        with open(out_path, "w") as handle:
            handle.write(f"# manifest: {os.path.basename(manifest_path)}\n")
            handle.write(body)
    else:
        click.echo(body, nl=False)


@main.group("cuboid")
def cmd_cuboid() -> None:
    """Minimal-diameter-cuboid benchmark tables."""


@cmd_cuboid.command("table1")
@click.option("--theta", type=float, default=1e-6, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def cmd_table1(theta: float, out_dir: str) -> None:
    """Write the sample-size grids (multi- and single-stage) as CSV."""
    started = time.monotonic()
    multi, single = run_table1(theta)
    os.makedirs(out_dir, exist_ok=True)
    header = "eps_percent," + ",".join(str(n) for n in TABLE_N)
    outputs = []
    for name, table in (("table1_multi.csv", multi), ("table1_single.csv", single)):
        path = os.path.join(out_dir, name)
        rows = [header]
        for r, eps in enumerate(TABLE_EPS):
            rows.append(f"{eps * 100:g}," + ",".join(str(int(v)) for v in table[r]))
        with open(path, "w") as handle:
            handle.write("# manifest: manifest.json\n")
            handle.write("\n".join(rows) + "\n")
        outputs.append(path)
        click.echo(path)
    manifest = RunManifest(
        command="cuboid table1", params={"theta": theta}, seed=None,
        version=__version__, outputs=outputs, wall_clock_s=time.monotonic() - started,
    )
    _write_manifest(out_dir, manifest)


def _parse_cells(text: str) -> list[tuple[float, int]]:
    """The named (eps, n) cells in the order given, each once."""
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
        if cell not in cells:
            cells.append(cell)
    return cells


@cmd_cuboid.command("table2")
@click.option("--reps", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cells", default="all", show_default=True, help="'all' or 'eps%:n' pairs.")
@click.option("--theta", type=float, default=1e-6, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="table2.csv", show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
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
    out_dir = os.path.dirname(out_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w") as handle:
        handle.write("# manifest: manifest.json\n")
        handle.write("\n".join(lines) + "\n")
    manifest = RunManifest(
        command="cuboid table2",
        params={"reps": reps, "cells": cells, "theta": theta,
                "threads": threads},
        seed=seed, version=__version__, outputs=[out_path],
        wall_clock_s=time.monotonic() - started,
    )
    _write_manifest(out_dir, manifest)
    click.echo(out_path)


if __name__ == "__main__":
    main()
