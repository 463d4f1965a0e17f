import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from scenopt.cli import main
from scenopt.bounds import SampleSizePlan, StagePlan, plan_multistage
from scenopt.program import program_from_json
from scenopt.lp import solve_lp
from scenopt.scenario_core import draw_multisample, solve

from conftest import random_lp_program

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
CUBOID = str(SPEC_DIR / "cuboid_n2.json")
ORDER_STATS = str(SPEC_DIR / "order_stats_1d.json")
NO_SAMPLER = "<order_stats_1d without its sampler>"


@pytest.fixture
def runner():
    return CliRunner()


def _discard_args(algorithm: str) -> list[str]:
    return [] if algorithm == "none" else ["--discard", algorithm, "--R", "1"]


class TestSamplesize:
    def test_reference_value(self, runner):
        result = runner.invoke(main, ["samplesize", "--zeta", "2", "--eps", "0.01", "--theta", "5e-7"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "1734"
        assert "achieved-bound" in result.output

    def test_floored_trivial_case(self, runner):
        result = runner.invoke(main, ["samplesize", "--zeta", "1", "--eps", "0.5", "--theta", "0.5"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "2"

    def test_chernoff(self, runner):
        result = runner.invoke(
            main, ["samplesize", "--method", "chernoff", "--zeta", "2", "--eps", "0.1", "--theta", "1e-6"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "297"

    def test_discard_budget(self, runner):
        result = runner.invoke(
            main, ["samplesize", "--zeta", "2", "--eps", "0.1", "--theta", "5e-7", "--discard", "10"]
        )
        assert result.exit_code == 0
        size = int(result.output.splitlines()[0])
        assert size > 166

    @pytest.mark.parametrize("method", ["implicit", "chernoff", "refined"])
    @pytest.mark.parametrize("discard", [0, 5])
    @pytest.mark.parametrize("zeta,eps,theta", [(1, 0.1, 1e-6), (5, 0.05, 1e-9)])
    def test_matches_one_stage_plan(self, runner, method, discard, zeta, eps, theta):
        result = runner.invoke(
            main,
            ["samplesize", "--zeta", str(zeta), "--eps", str(eps), "--theta", str(theta),
             "--discard", str(discard), "--method", method],
        )
        assert result.exit_code == 0
        program = random_lp_program(np.random.default_rng(0), dim=5)
        program.stages[0].zeta_bar = zeta
        program.stages[0].eps = eps
        plan = plan_multistage(program, theta, method=method, discards=(discard,))
        assert int(result.output.splitlines()[0]) == plan.sizes()[0]

    def test_closed_form_raised_to_plan_floor(self, runner):
        # the refined formula gives 2 here, below the plan floor zeta_bar + 1
        result = runner.invoke(
            main, ["samplesize", "--method", "refined", "--zeta", "2", "--eps", "0.99", "--theta", "0.99"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "3"

    def test_bad_flags_exit_2(self, runner):
        result = runner.invoke(main, ["samplesize", "--zeta", "2", "--eps", "1.5", "--theta", "0.5"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["samplesize", "--zeta", "2"])
        assert result.exit_code == 2


class TestPlan:
    def test_cuboid_plan(self, runner):
        result = runner.invoke(main, ["plan", "--spec", CUBOID, "--theta", "1e-6"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [s["size"] for s in doc["stages"]] == [341, 341]

    def test_schema_violation_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2, "cost": [1]}))
        result = runner.invoke(main, ["plan", "--spec", str(bad)])
        assert result.exit_code == 2
        missing = runner.invoke(main, ["plan", "--spec", str(tmp_path / "nope.json")])
        assert missing.exit_code == 2
        cuboid = json.loads(pathlib.Path(CUBOID).read_text())
        order_stats = json.loads(pathlib.Path(ORDER_STATS).read_text())
        defects = {
            "stage without eps": (order_stats, lambda doc: doc["stages"][0].pop("eps")),
            "stage without generator":
                (order_stats, lambda doc: doc["stages"][0].pop("generator")),
            "cuboid generator without coordinate":
                (cuboid, lambda doc: doc["stages"][0]["generator"].pop("coordinate")),
            "cuboid coordinate outside [0, n)":
                (cuboid, lambda doc: doc["stages"][1]["generator"].update(coordinate=5)),
            "sampler dim differs from delta_dim":
                (order_stats, lambda doc: doc["stages"][0]["sampler"].update(dim=3)),
            "delta_dim differs from sampler dim":
                (order_stats, lambda doc: doc["stages"][0]["generator"].update(delta_dim=2)),
            "scalar a0": (order_stats, lambda doc: doc["stages"][0]["generator"]["rows"][0]
                          .update(a0=-1)),
            "b_delta longer than delta_dim":
                (order_stats, lambda doc: doc["stages"][0]["generator"]["rows"][0]
                 .update(b_delta=[-1, 0])),
            "a_delta of the wrong shape":
                (order_stats, lambda doc: doc["stages"][0]["generator"]["rows"][0]
                 .update(a_delta=[1, 2])),
            "monotone given as a string":
                (order_stats, lambda doc: doc["stages"][0].update(monotone="false")),
            "non-integer zeta_bar": (cuboid, lambda doc: doc["stages"][0].update(zeta_bar=1.9)),
            "non-integer dimension": (order_stats, lambda doc: doc.update(dimension=1.5)),
            "non-integer delta_dim":
                (order_stats, lambda doc: doc["stages"][0]["generator"].update(delta_dim=1.5)),
            "non-integer cuboid coordinate":
                (cuboid, lambda doc: doc["stages"][1]["generator"].update(coordinate=1.5)),
            "uniform sampler with low above high":
                (order_stats, lambda doc: doc["stages"][0]["sampler"].update(low=2, high=1)),
            "NaN cost": (order_stats, lambda doc: doc.update(cost=[float("nan")])),
        }
        for name, (valid, damage) in defects.items():
            doc = json.loads(json.dumps(valid))
            damage(doc)
            bad.write_text(json.dumps(doc))
            result = runner.invoke(main, ["plan", "--spec", str(bad)])
            assert result.exit_code == 2, name
            assert "invalid program spec" in result.output, name


class TestSolve:
    def test_cuboid_support_sizes(self, runner):
        result = runner.invoke(main, ["solve", "--spec", CUBOID, "--seed", "3"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "optimal"
        assert all(len(s) <= 2 for s in doc["support"])
        assert len(doc["x"]) == 4

    def test_byte_identical_reruns(self, runner):
        args = ["solve", "--spec", CUBOID, "--seed", "11", "--validate", "500"]
        outputs = {runner.invoke(main, args).output for _ in range(3)}
        assert len(outputs) == 1

    def test_greedy_discard_order_statistic(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--spec", ORDER_STATS, "--seed", "5",
             "--discard", "greedy", "--R", "5"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        program = program_from_json(json.loads(pathlib.Path(ORDER_STATS).read_text()))
        plan = SampleSizePlan(
            stages=(
                StagePlan(stage=0, size=doc["plan"]["stages"][0]["size"], discard=5,
                          eps=0.1, theta=doc["plan"]["stages"][0]["theta"],
                          zeta_bar=1, method="implicit-discard"),
            ),
            theta_total=doc["plan"]["theta_total"],
        )
        ms = draw_multisample(program, plan, 5)
        sixth_largest = float(np.sort(ms.outcomes[0].ravel())[-6])
        assert doc["objective"] == pytest.approx(sixth_largest, abs=1e-9)
        assert doc["assumption_modes"] == ["violated-by-reduced"]

    def test_discard_requires_algorithm(self, runner):
        result = runner.invoke(main, ["solve", "--spec", ORDER_STATS, "--R", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("algorithm", ["none", "greedy", "marginal", "optimal"])
    def test_infeasible_exit_3(self, runner, tmp_path, algorithm):
        doc = json.loads(pathlib.Path(ORDER_STATS).read_text())
        doc["deterministic_rows"] = [{"a": [1.0], "b": -2.0}]  # x <= -2 vs x >= delta
        spec = tmp_path / "infeasible.json"
        spec.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["solve", "--spec", str(spec), "--seed", "1"] + _discard_args(algorithm)
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("algorithm", ["none", "greedy", "marginal", "optimal"])
    def test_iteration_limit_exit_4(self, runner, monkeypatch, algorithm):
        monkeypatch.setattr("scenopt.lp._ITERATIONS_PER_SIZE", 0)
        box = np.vstack([np.eye(2), -np.eye(2)])
        assert solve_lp(np.ones(2), box, np.ones(4)).status == "iteration-limit"
        program = program_from_json(json.loads(pathlib.Path(CUBOID).read_text()))
        ms = draw_multisample(program, plan_multistage(program, 1e-6), 0)
        assert solve(program, ms).status == "iteration-limit"
        result = runner.invoke(
            main, ["solve", "--spec", CUBOID, "--seed", "0"] + _discard_args(algorithm)
        )
        assert result.exit_code == 4
        assert "iteration limit" in result.output

    def test_outputs_reference_manifest(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, ["solve", "--spec", CUBOID, "--seed", "2", "--out", str(out)])
        assert result.exit_code == 0
        solution = json.loads((out / "solution.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert solution["manifest"] == str(out / "manifest.json")
        assert str(out / "solution.json") in manifest["outputs"]
        assert manifest["seed"] == 2


class TestValidateCommand:
    def test_csv_shape(self, runner):
        result = runner.invoke(
            main, ["validate", "--spec", ORDER_STATS, "--seed", "4", "--reps", "6", "--nval", "200"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "replication,stage,violation,exceeds"
        assert len(lines) == 7
        rep, stage, violation, exceeds = lines[1].split(",")
        assert (rep, stage) == ("0", "0")
        assert 0.0 <= float(violation) <= 1.0
        assert exceeds in ("0", "1")

    def test_deterministic(self, runner):
        args = ["validate", "--spec", ORDER_STATS, "--seed", "4", "--reps", "5", "--nval", "100"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_out_writes_manifest(self, runner, tmp_path):
        args = ["validate", "--spec", ORDER_STATS, "--seed", "4", "--reps", "3", "--nval", "100",
                "--discard", "greedy", "--R", "1"]
        out = tmp_path / "survey" / "violations.csv"
        result = runner.invoke(main, args + ["--threads", "2", "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "# manifest: manifest.json"
        assert lines[1:] == runner.invoke(main, args).output.splitlines()
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["params"] == {
            "spec": ORDER_STATS, "reps": 3, "nval": 100, "alpha": 0.05, "theta": 1e-6,
            "method": "implicit", "discard_algorithm": "greedy", "discards": [1], "threads": 2,
        }
        assert manifest["seed"] == 4
        assert manifest["outputs"] == [str(out)]


class TestBadInputExit2:
    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "--spec", ORDER_STATS, "--reps", "-1"],
            ["validate", "--spec", CUBOID, "--nval", "0"],
            ["cuboid", "table2", "--reps", "0", "--cells", "10:2"],
            ["validate", "--spec", NO_SAMPLER],
            ["validate", "--spec", ORDER_STATS, "--R", "2"],
            ["solve", "--spec", ORDER_STATS, "--alpha", "2", "--validate", "10"],
            ["validate", "--spec", ORDER_STATS, "--alpha", "2", "--reps", "2", "--nval", "10"],
            ["validate", "--spec", ORDER_STATS, "--alpha", "0", "--reps", "2", "--nval", "10"],
            ["solve", "--spec", ORDER_STATS, "--validate", "-5"],
            ["cuboid", "table2", "--threads", "-3", "--reps", "10", "--cells", "10:2"],
            ["solve", "--spec", ORDER_STATS, "--threads", "-5"],
            ["validate", "--spec", ORDER_STATS, "--threads", "-5", "--reps", "2", "--nval", "10"],
            ["cuboid", "table1", "--theta", "2"],
            ["cuboid", "table2", "--theta", "0", "--cells", "1:2"],
            ["cuboid", "table2", "--cells", "0:2"],
            ["cuboid", "table2", "--cells", "150:2"],
            ["cuboid", "table2", "--cells", "1:0"],
            ["cuboid", "table2", "--cells", ","],
        ],
        ids=["negative-reps", "zero-nval", "table2-zero-reps", "no-sampler", "R-without-discard",
             "solve-alpha-2", "validate-alpha-2", "validate-alpha-0", "negative-validate",
             "table2-negative-threads", "solve-negative-threads", "validate-negative-threads",
             "table1-theta-2", "table2-theta-0", "table2-eps-0", "table2-eps-150", "table2-n-0",
             "table2-no-cells"],
    )
    def test_exit_2(self, runner, tmp_path, args):
        doc = json.loads(pathlib.Path(ORDER_STATS).read_text())
        del doc["stages"][0]["sampler"]
        spec = tmp_path / "no_sampler.json"
        spec.write_text(json.dumps(doc))
        args = [str(spec) if a == NO_SAMPLER else a for a in args]
        if args[:2] == ["cuboid", "table2"]:
            args += ["--out", str(tmp_path / "table2.csv")]
        elif args[:2] == ["cuboid", "table1"]:
            args += ["--out-dir", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert not list(tmp_path.glob("*.csv"))


class TestCuboidCommands:
    def test_table1_files(self, runner, tmp_path):
        result = runner.invoke(main, ["cuboid", "table1", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        multi = (tmp_path / "table1_multi.csv").read_text().splitlines()
        single = (tmp_path / "table1_single.csv").read_text().splitlines()
        assert multi[0] == "# manifest: manifest.json"
        assert multi[1] == "eps_percent,2,3,5,10,50,100,500"
        assert multi[2].startswith("1,1734,1777,")
        assert single[2].endswith("115786")
        assert (tmp_path / "manifest.json").exists()

    def test_table2_smoke(self, runner, tmp_path):
        out = tmp_path / "table2.csv"
        result = runner.invoke(
            main,
            ["cuboid", "table2", "--reps", "100", "--seed", "7",
             "--cells", "10:2", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "eps_percent,n,mean_surplus,stderr,replications"
        cells = lines[2].split(",")
        assert cells[0] == "10" and cells[1] == "2"
        assert float(cells[3]) > 0  # wide standard error in smoke mode

    def test_table2_writes_named_cells_only(self, runner, tmp_path):
        out = tmp_path / "table2.csv"
        result = runner.invoke(
            main,
            ["cuboid", "table2", "--reps", "20", "--cells", "1:2,10:10", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[2:]]
        assert rows == [["1", "2"], ["10", "10"]]

    def test_table2_manifest(self, runner, tmp_path):
        out = tmp_path / "tables" / "table2.csv"
        result = runner.invoke(
            main,
            ["cuboid", "table2", "--reps", "20", "--seed", "7", "--cells", "10:2",
             "--threads", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text().splitlines()[0] == "# manifest: manifest.json"
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["command"] == "cuboid table2"
        assert manifest["params"] == {"reps": 20, "cells": "10:2", "theta": 1e-6, "threads": 2}
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(out)]
