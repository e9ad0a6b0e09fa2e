"""Quick test of the benchmark itself at toy scale (max_n=5, order=5, points=2).

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = tuple(run.REQUIRED_LAYERS)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
        assert NAME.fullmatch(metric["unit"].replace("/", "")), metric
        assert isinstance(metric["value"], (int, float))
    return result, json.loads(detail_line)["detail"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, detail = _result(workload, 0)
    declared = [m["name"] for m in _spec()["end_to_end"]]
    assert list(result["metrics"]) == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "nproc", "loadavg_before", "loadavg_after"):
        assert key in detail
    if workload == "verify_warm":
        assert all(pick["file"] for pick in detail["spot_check"])


def test_some_workload_traces_every_layer():
    assert set(run.REQUIRED_LAYERS["verify_warm"]) == set(run.LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_its_layers(workload):
    result, detail = _result(workload, 1)
    assert list(result["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    assert all(detail["layer_calls"][layer] > 0
               for layer in run.REQUIRED_LAYERS[workload])
    assert detail["trace"]["spans"] and not detail["trace"]["missing"]
    hits = result["metrics"]["harness.dist_table.hits"]["value"]
    misses = result["metrics"]["harness.dist_table.misses"]["value"]
    if workload == "tables_cold":
        assert misses > 0
    else:
        assert hits > 0 and misses == 0


def test_declared_metrics_match_the_runner():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tables_cold", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
