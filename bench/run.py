#!/usr/bin/env python3
"""Benchmark of scenopt: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload cuboid-lp --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` of the same checkout.  Each run sets
the workload up (timed as ``setup_s``, repeated in fresh interpreters and
reported as the median), then runs whole rounds of the workload's
operations for about ``--seconds`` seconds, checks every output, and
prints one JSON object as the last line of stdout.  With ``--trace 1`` the
run instead times the calls into each layer (see ``tracing.py``) and reports
the per-layer metrics.  ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
from tracing import Tracer, count_under, summarize

# The benchmark process runs at most two compute threads: the table2
# --threads 2 pool.  BLAS stays single-threaded so it does not add more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SURVEY_SPEC = os.path.join(ROOT, "specs", "two_stage_monotonicity.json")

THETA = 1e-6
N_VAL = 10_000
SETUP_PROBES = 4          # fresh-interpreter set-ups besides the run's own
TRACE_SHARE = 2.0 / 3.0   # share of --seconds measured traced in a trace run


def load_scenopt():
    """Import the checkout's scenopt (and its CLI) and nothing else."""
    sys.path.insert(0, SRC)
    import scenopt
    import scenopt.cli
    from click.testing import CliRunner

    if os.path.dirname(os.path.abspath(scenopt.__file__)) != os.path.join(SRC, "scenopt"):
        raise RuntimeError(f"imported scenopt from {scenopt.__file__}, not from {SRC}")
    return scenopt, CliRunner()


class OpFailed(RuntimeError):
    pass


class Workload:
    """Set-up plus rounds of operations.  ``once`` runs at the start of the
    timed phase; ``ops`` make one round.  An operation maps a seed to
    (scenarios processed, payload) and its check maps the payload to a
    list of failure messages; ``check_setup`` checks what set-up made."""

    once: tuple = ()
    ops: tuple = ()

    def __init__(self) -> None:
        self.tracer = None

    def setup(self) -> None:
        self.scenopt, self.runner = load_scenopt()

    def invoke(self, args: list[str]) -> str:
        """One in-process ``scenopt`` command; its stdout on success."""
        invoke = self.runner.invoke
        if self.tracer is not None:
            invoke = self.tracer.wrap("cli", invoke)
        result = invoke(self.scenopt.cli.main, args)
        if result.exit_code != 0:
            raise OpFailed(f"scenopt {' '.join(args)} exited {result.exit_code}: "
                           f"{result.exception!r} {result.stderr.strip()[-300:]}")
        return result.stdout


class CuboidLp(Workload):
    """Multi-stage minimal cuboid through the generic library path."""

    N_VALUES = (5, 10)
    EPS = 0.05

    def setup(self) -> None:
        super().setup()
        cb = self.scenopt.cuboid_bench
        self.programs = {
            n: cb.cuboid_program(cb.CuboidInstance(n=n, eps=self.EPS, theta_total=THETA))
            for n in self.N_VALUES
        }
        self.plans = {n: self.scenopt.bounds.plan_multistage(p, THETA) for n, p in self.programs.items()}
        self.ops = tuple((f"n={n}", self._op(n)) for n in self.N_VALUES)

    def check_setup(self) -> list[str]:
        errors = []
        for n, plan in self.plans.items():
            for entry in plan.stages:
                errors += checks.check_minimal_size(
                    entry.size, 2, 0, self.EPS, THETA / n, f"cuboid n={n} stage {entry.stage}"
                )
        return errors

    def _op(self, n: int):
        program = self.programs[n]

        def run(seed: int):
            sp = self.scenopt
            plan = sp.bounds.plan_multistage(program, THETA)
            ms = sp.scenario_core.draw_multisample(program, plan, seed)
            solution = sp.scenario_core.solve(program, ms)
            if solution.status != "optimal":
                raise OpFailed(f"cuboid n={n} seed={seed}: status {solution.status}")
            support = sp.scenario_core.support_set(program, ms, solution)
            estimates = [
                sp.validate.estimate_violation(solution.x, stage, N_VAL, 0.05, seed)
                for stage in program.stages
            ]
            return sum(plan.sizes()), (ms, solution, support, estimates)

        def check(payload) -> list[str]:
            ms, solution, support, estimates = payload
            return checks.check_cuboid_instance(
                n, ms.outcomes, solution.x, support, [e.violations for e in estimates], N_VAL
            )

        return run, check


class Survey(Workload):
    """``scenopt validate`` on the two-stage spec, one survey per operation."""

    def __init__(self, replications: int, discard: int, check_mean: bool) -> None:
        super().__init__()
        self.replications = replications
        self.discard = discard
        self.check_mean = check_mean
        budgets = ["--R", f"{discard},{discard}"] if discard else []
        self.plan_args = ["plan", "--spec", SURVEY_SPEC] + budgets
        self.survey_args = [
            "validate", "--spec", SURVEY_SPEC, "--nval", str(N_VAL), "--threads", "1",
            "--reps", str(replications),
        ] + (["--discard", "greedy"] + budgets if discard else [])
        self.ops = (("survey", (self._run, self._check)),)

    def setup(self) -> None:
        super().setup()
        self.plan_doc = json.loads(self.invoke(self.plan_args))

    def check_setup(self) -> list[str]:
        with open(SURVEY_SPEC) as handle:
            stages = json.load(handle)["stages"]
        self.eps = [float(s["eps"]) for s in stages]
        self.zeta = [int(s["zeta_bar"]) for s in stages]
        self.sizes = [int(e["size"]) for e in self.plan_doc["stages"]]
        return checks.check_plan(self.plan_doc, self.eps, self.zeta, self.discard, THETA)

    def _run(self, seed: int):
        out = self.invoke(self.survey_args + ["--seed", str(seed)])
        return self.replications * sum(self.sizes), out

    def _check(self, out: str) -> list[str]:
        rows = checks.parse_survey_csv(out)
        return checks.check_survey(
            rows, self.replications, self.sizes, self.eps, self.zeta, N_VAL, self.check_mean
        )


class CuboidTables(Workload):
    """``scenopt cuboid table1`` once per run, then rounds of three
    ``table2`` cells, each cell one operation."""

    CELLS = ((0.01, 2), (0.10, 10), (0.25, 50))
    REPS = 10_000

    def setup(self) -> None:
        super().setup()
        cb = self.scenopt.cuboid_bench
        self.cell_sizes = {}
        for eps, n in self.CELLS:
            multi = cb.cuboid_plan(cb.CuboidInstance(n=n, eps=eps, theta_total=THETA))
            single = cb.cuboid_plan(
                cb.CuboidInstance(n=n, eps=eps, theta_total=THETA, mode="single-stage")
            )
            self.cell_sizes[(eps, n)] = (multi.sizes()[0], single.sizes()[0])
        self.once = (("table1", (self._table1, self._check_table1)),)
        self.ops = tuple(
            (f"{eps * 100:g}:{n}", self._cell(eps, n)) for eps, n in self.CELLS
        )

    def check_setup(self) -> list[str]:
        errors = []
        for (eps, n), (k_multi, k_single) in self.cell_sizes.items():
            errors += checks.check_minimal_size(k_multi, 2, 0, eps, THETA / n, f"cell {eps:g}:{n} multi")
            errors += checks.check_minimal_size(
                k_single, 2 * n + 1, 0, eps, THETA, f"cell {eps:g}:{n} single"
            )
        return errors

    def _table1(self, seed: int):
        out_dir = os.path.join(OUT, "table1")
        self.invoke(["cuboid", "table1", "--out-dir", out_dir])
        texts = []
        for name in ("table1_multi.csv", "table1_single.csv"):
            with open(os.path.join(out_dir, name)) as handle:
                texts.append(handle.read())
        return 0, texts

    def _check_table1(self, texts) -> list[str]:
        return checks.check_table1(texts[0], texts[1], THETA)

    def _cell(self, eps: float, n: int):
        k_multi, k_single = self.cell_sizes[(eps, n)]
        path = os.path.join(OUT, "table2", f"cell-{eps * 100:g}-{n}.csv")

        def run(seed: int):
            self.invoke([
                "cuboid", "table2", "--reps", str(self.REPS), "--threads", "2",
                "--cells", f"{eps * 100:g}:{n}", "--seed", str(seed), "--out", path,
            ])
            with open(path) as handle:
                text = handle.read()
            return self.REPS * (n * k_multi + k_single), text

        def check(text: str) -> list[str]:
            return checks.check_table2_cell(checks.parse_table2(text), eps, n, self.REPS)

        return run, check


WORKLOADS = {
    "cuboid-lp": CuboidLp,
    "survey-plain": lambda: Survey(replications=25, discard=0, check_mean=True),
    "survey-greedy": lambda: Survey(replications=3, discard=5, check_mean=False),
    "cuboid-tables": CuboidTables,
}


def measure(workload: Workload, rng: random.Random, seconds: float, run_once: bool) -> dict:
    """Run whole rounds for about ``seconds`` (at least one round)."""
    stats = {"attempted": 0, "failed": 0, "errors": [], "scenarios": 0, "timed_s": 0.0,
             "per_op_s": []}

    def run_op(label, op) -> float:
        run, check = op
        seed = rng.getrandbits(31)
        stats["attempted"] += 1
        start = time.perf_counter()
        try:
            scenarios, payload = run(seed)
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            stats["failed"] += 1
            print(f"{label} seed={seed}: failed: {exc!r}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        stats["scenarios"] += scenarios
        try:
            errors = check(payload)
        except (ValueError, IndexError, KeyError) as exc:  # malformed output
            errors = [f"output does not parse: {exc!r}"]
        stats["errors"] += [f"{label} seed={seed}: {e}" for e in errors]
        return elapsed

    began = time.perf_counter()
    if run_once:
        for label, op in workload.once:
            stats["timed_s"] += run_op(label, op)
    while True:
        round_s = sum(run_op(label, op) for label, op in workload.ops)
        stats["timed_s"] += round_s
        stats["per_op_s"].append(round_s / len(workload.ops))
        # Stop at the round boundary nearest the deadline, so that a run
        # lasts --seconds give or take half a round.
        if time.perf_counter() - began + round_s / 2 >= seconds:
            break
    return stats


def setup_probe(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# Layers whose calls per operation are reported as ``<name>.calls``.
CALL_METRICS = (
    "lp.solve_lp", "lp.solve_lp_lexicographic", "scenario_core.solve",
    "validate.estimate_violation", "validate.clopper_pearson",
    "probkernel.regularized_incomplete_beta", "probkernel.binomial_cdf",
    "bounds.implicit_sample_size",
)
# Layers whose self time per operation is reported as ``<name>.s`` (wall)
# and ``<name>.cpu_s`` (thread CPU).
SELF_METRICS = (
    "lp.solve_lp", "lp.solve_lp_lexicographic", "scenario_core.AssembledProgram",
    "scenario_core.solve", "scenario_core.support_set", "scenario_core.draw_multisample",
    "discard.remove_greedy", "discard.check_discard_assumption",
    "validate.violation_survey", "validate.estimate_violation", "validate.clopper_pearson",
    "probkernel.regularized_incomplete_beta", "probkernel.binomial_cdf",
    "bounds.plan_multistage", "bounds.implicit_sample_size",
    "program.sampler.draw", "program.generator.rows_batch",
    "cuboid_bench.run_table1", "cuboid_bench.run_table2",
)


def per_layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    spans = tracer.spans
    summary = summarize(spans)
    calls, self_s, self_cpu_s = summary["calls"], summary["self_s"], summary["self_cpu_s"]
    ops = traced["attempted"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in CALL_METRICS:
        put(f"{name}.calls", calls.get(name, 0) / ops, "calls/op")
    for name in SELF_METRICS:
        put(f"{name}.s", self_s.get(name, 0.0) / ops, "s/op")
    for name in SELF_METRICS:
        put(f"{name}.cpu_s", self_cpu_s.get(name, 0.0) / ops, "s/op")
    lex = calls.get("lp.solve_lp_lexicographic", 0)
    in_lex = count_under(spans, "lp.solve_lp", "lp.solve_lp_lexicographic", direct=True)
    put("lp.solves_per_lex", in_lex / lex if lex else 0.0, "solves/lex")
    removed = tracer.counters.get("discard.removed", 0.0)
    in_greedy = count_under(spans, "lp.solve_lp", "discard.remove_greedy")
    put("discard.removed", removed / ops, "samples/op")
    put("discard.solves_per_removal", in_greedy / removed if removed else 0.0, "solves/removal")
    put("cli.self_s", self_s.get("cli", 0.0) / ops, "s/op")
    put("cli.self_cpu_s", self_cpu_s.get("cli", 0.0) / ops, "s/op")
    traced_p50 = statistics.median(traced["per_op_s"])
    untraced_p50 = statistics.median(untraced["per_op_s"])
    put("trace.op_p50_s", traced_p50, "s")
    put("trace.untraced_op_p50_s", untraced_p50, "s")
    put("trace.overhead_s", traced_p50 - untraced_p50, "s")
    put("trace.ops", ops, "count")
    put("trace.spans", len(spans) / ops, "spans/op")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]()
    workload.setup()
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(os.path.join(OUT, "table2"), exist_ok=True)
    errors = workload.check_setup()
    rng = random.Random(f"{args.workload}/{args.seed}")

    if args.trace:
        untraced = measure(workload, rng, args.seconds * (1.0 - TRACE_SHARE), run_once=False)
        tracer = Tracer()
        tracer.install(hooks={
            "discard.remove_greedy":
                lambda tr, result: tr.count("discard.removed", sum(len(r) for r in result.removed)),
        })
        workload.tracer = tracer
        try:
            stats = measure(workload, rng, args.seconds * TRACE_SHARE, run_once=True)
        finally:
            tracer.uninstall()
            workload.tracer = None
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = per_layer_metrics(tracer, stats, untraced)
        stats["attempted"] += untraced["attempted"]
        stats["failed"] += untraced["failed"]
        errors += untraced["errors"]
    else:
        # Half the fresh set-ups run before the timed phase and half after,
        # so that the median samples the machine at both ends of the run.
        setups = [setup_s] + [setup_probe(args.workload) for _ in range(SETUP_PROBES // 2)]
        stats = measure(workload, rng, args.seconds, run_once=True)
        setups += [setup_probe(args.workload) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(stats["per_op_s"]), "unit": "s"},
            "scenarios_per_s": {"value": stats["scenarios"] / stats["timed_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("per-op round means (s): " + " ".join(f"{t:.3f}" for t in stats["per_op_s"]),
          file=sys.stderr)
    errors += stats["errors"]
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
