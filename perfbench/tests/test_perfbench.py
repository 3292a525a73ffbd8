"""Tests of the benchmark itself, on tiny models.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""
from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BAD_VERIFY = Op("bad verify", 0, ["verify", "--T", "0", "--marks", "1,-1", "--lambda", "0.5", "--Q", "0.5,0.5"],
                workloads.check_verify)


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: run.run_traced(workloads.operations(w, 3, workloads.TINY)) for w in workloads.WORKLOADS}


@pytest.fixture()
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_declaration_matches_the_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(one_setup):
    record = run.run_untraced(workloads.operations("hedge", 3, workloads.TINY),
                              workloads.setup_model("hedge", workloads.TINY), seconds=0)
    line = run.result_line(record, run.E2E_UNITS)
    # one set-up and two operations, each after a run of the reference program
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 6
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_each_time_is_scaled_by_the_reference_run_before_it(monkeypatch, one_setup):
    # reference, set-up, reference, first operation, reference, second operation
    walls = iter([0.8, 2.0, 0.2, 1.0, 0.4, 3.0])

    def outcome(*_):
        return run.Outcome(next(walls), 1.0, 1, [])

    for name in ("measure_reference", "measure_setup", "run_subprocess"):
        monkeypatch.setattr(run, name, outcome)
    monkeypatch.setattr(run, "REFERENCE_S", 0.4)
    record = run.run_untraced(workloads.operations("hedge", 3, workloads.TINY),
                              workloads.setup_model("hedge", workloads.TINY), seconds=0)
    assert record["metrics"]["setup_s"] == pytest.approx(1.0)
    assert record["metrics"]["wall_s"] == pytest.approx(2.0 + 3.0)
    assert (record["raw_setup_s"], record["raw_wall_s"]) == (2.0, 4.0)


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for workload, record in traced.items():
        assert record["failed"] == 0, (workload, record["operations"])
        line = run.result_line(record, {name: spans.unit_of(name) for name in record["metrics"]})
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_every_span_lies_inside_its_parent(traced):
    for record in traced.values():
        by_id = {span["id"]: span for span in record["spans"]}
        assert by_id
        for span in by_id.values():
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_layer_self_times_account_for_the_traced_wall_time(traced):
    for record in traced.values():
        m = record["metrics"]
        accounted = sum(v for k, v in m.items() if k.endswith("_s") and not k.startswith("trace."))
        assert accounted + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"], rel=0.02, abs=0.01)


def test_traced_run_sees_the_layers_each_workload_targets(traced):
    assert traced["verify"]["metrics"]["diagnostics.doleans_product_vs_series_s"] > 0
    assert traced["calculus"]["metrics"]["chaos.kernel_convert_s"] > 0
    assert traced["calculus"]["metrics"]["malliavin.mehler_s"] > 0
    assert traced["calculus"]["metrics"]["hedging.recursion_s"] == 0
    assert traced["hedge"]["metrics"]["hedging.oracle_s"] > 0
    assert traced["cli"]["metrics"]["stein.pmf_s"] > 0
    assert traced["cli"]["metrics"]["space.configurations"] > 0


def test_bad_operation_counts_as_failed_in_both_modes(one_setup):
    ops = [BAD_VERIFY, *workloads.operations("verify", 3, workloads.TINY)[:1]]
    untraced = run.run_untraced(ops, workloads.setup_model("verify", workloads.TINY), seconds=0)
    assert (untraced["attempted"], untraced["failed"]) == (6, 1)
    assert untraced["operations"][0]["errors"][0].startswith("exit 2")
    traced = run.run_traced(ops)
    assert (traced["attempted"], traced["failed"]) == (4, 2)
    assert not run.result_line(traced, {n: "s" for n in traced["metrics"]})["correct"]


def test_output_checks_report_instead_of_raising():
    op = workloads.operations("calculus", 3, workloads.TINY)[1]
    assert workloads.check_output(op, "order,support,value\n0,,0.5\n").startswith("order-0 value")
    assert workloads.check_output(op, "garbage") is not None
    hedge = workloads.operations("hedge", 3, workloads.TINY)[0]
    assert workloads.check_output(hedge, "{}").startswith("malformed output")
    assert workloads.check_output(hedge, json.dumps(
        {"self_financing_residual": 0.0, "residual_gap": 1e-6})).startswith("residual_gap")


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.operations(workload, 5, workloads.TINY)
        again = workloads.operations(workload, 5, workloads.TINY)
        assert [(op.argv, op.session) for op in first] == [(op.argv, op.session) for op in again]
    assert workloads.operations("calculus", 5)[0].session != workloads.operations("calculus", 6)[0].session


def test_indicators_have_the_same_jumps_on_every_seed():
    model = dict(workloads.BINARY, T=11)
    ranks = {workloads.indicator_rank(random.Random(seed), model, 2) for seed in range(20)}
    assert len(ranks) > 1
    for rank in ranks:
        digits = [rank // 3**t % 3 for t in range(11)]
        assert digits.count(1) == digits.count(2) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""
