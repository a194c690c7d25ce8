"""Every workload runs end to end at smoke size and reports every metric."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as runner
from perfbench import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def smoke_plan(name: str) -> workloads.Plan:
    return dataclasses.replace(
        workloads.WORKLOADS[name], scale=0.3, setup_repeats=1,
        min_eval_passes=2, fresh_warmup=20, parity_users=8, replay_repeats=1,
        block_s=0.1)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            runs[name, trace] = workloads.run(
                name, seed=3, seconds=0.4, trace=trace, workdir=workdir,
                plan=smoke_plan(name))
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(
        results, name):
    result = results[name, False]
    assert result.problems == []
    assert result.outcomes.failed == 0 and result.outcomes.attempted > 0
    assert set(result.end_to_end) == set(workloads.END_TO_END_UNITS)
    assert all(math.isfinite(value) and value > 0
               for value in result.end_to_end.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_sums(results, name):
    result = results[name, True]
    assert result.problems == []
    assert set(result.per_layer) == set(workloads.PER_LAYER_UNITS)
    layer = result.per_layer
    assert layer["train.step_ms"] > 0 and layer["tensor.backward_ms"] > 0
    assert layer["core.decoder.fwdbwd_ms"] > 0
    assert layer["tensor.allocs_per_step"] > 0
    if name == "serve-hot":
        assert layer["serve.forwards_per_request"] == 0
        assert layer["serve.worker.recommend_ms"] > 0
    if name == "serve-fresh":
        assert layer["serve.forwards_per_request"] == 1
        assert layer["serve.worker.history_ms"] > 0
        assert layer["core.transition.fwd_ms"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quality_metrics_repeat_with_tracing_on(results, name):
    plain, traced = results[name, False], results[name, True]
    for metric in ("final_loss", "test_hr10"):
        assert plain.end_to_end[metric] == traced.end_to_end[metric]


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(runner.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(Path(runner.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert completed.returncode == 2
    assert completed.stdout == ""
