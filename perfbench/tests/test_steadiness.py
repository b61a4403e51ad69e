"""Steadiness self-test of the benchmark, on its short inputs.

    python3 -m pytest -q perfbench/tests

Runs every workload through ``run.py --short`` (about ten minutes on two
CPUs) and checks what the benchmark promises: every declared metric is
emitted with its unit and sample count, no percentile rests on fewer
than ten samples beyond it, the quality counts and ``*.kcalls`` work
counts repeat exactly under another ``PYTHONHASHSEED``, and traced self
times plus ``unattributed.self_ms`` add up to the traced latency.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

QUALITY = ("static_conflicts", "dynamic_conflicts", "dsa_cycles", "spills",
           "code_size_instrs")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    seconds = _spec()["run_seconds"]
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--short"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return {"result": result, "report": report}


@pytest.fixture(scope="session")
def run_once():
    """``run_once(workload, trace, hashseed)``, each run made only once."""
    done: dict = {}

    def run(workload: str, trace: int, hashseed: str = "1") -> dict:
        key = (workload, trace, hashseed)
        if key not in done:
            done[key] = _run(workload, trace, hashseed)
        return done[key]

    return run


WORKLOADS = [w["name"] for w in _spec()["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_has_unit_and_samples(run_once, workload, trace):
    declared = _spec()["per_layer" if trace else "end_to_end"]
    out = run_once(workload, trace)
    metrics = out["report"]["metrics"]
    assert {m["name"] for m in declared} == set(metrics)
    for entry in declared:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"]
        assert isinstance(got["samples"], int) and got["samples"] >= 0
        assert isinstance(got["value"], float)
        final = out["result"]["metrics"][entry["name"]]
        assert final == {"value": got["value"], "unit": got["unit"]}
    if not trace:
        for entry in declared:
            assert metrics[entry["name"]]["samples"] >= 1, entry["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_percentile_rests_on_fewer_than_ten_samples(run_once, workload, trace):
    for name, metric in run_once(workload, trace)["report"]["metrics"].items():
        found = re.search(r"_p(\d+)(?:_|$)", name)
        if not found or metric["samples"] == 0:
            continue
        beyond = metric["samples"] * (100 - int(found.group(1))) / 100
        assert beyond >= 10, (name, metric["samples"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quality_counts_repeat_under_another_hash_seed(run_once, workload):
    first = run_once(workload, 0, "1")["report"]["metrics"]
    second = run_once(workload, 0, "2")["report"]["metrics"]
    for name in QUALITY:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_kcalls_repeat_under_another_hash_seed(run_once):
    first = run_once("compile-suite", 1, "1")["report"]["metrics"]
    second = run_once("compile-suite", 1, "2")["report"]["metrics"]
    kcalls = [name for name in first if name.endswith(".kcalls")]
    assert len(kcalls) >= 10
    for name in kcalls:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_self_times_sum_to_traced_latency(run_once):
    report = run_once("compile-suite", 1)["report"]
    self_ms = report["detail"]["self_ms"]
    assert "unattributed.self_ms" in self_ms and len(self_ms) >= 10
    total = sum(metric["value"] for metric in self_ms.values())
    traced = report["detail"]["traced_latency_ms"]
    assert total == pytest.approx(traced, rel=1e-9)


def test_fingerprint_separates_config_from_code(run_once):
    fingerprint = run_once("compile-suite", 0)["report"]["fingerprint"]
    config = fingerprint["config"]
    for key in ("seed", "nproc", "python", "numpy", "repro_fast",
                "pythonhashseed", "generation"):
        assert key in config
    assert config["pythonhashseed"] == "1"
    assert set(fingerprint["code"]) == {"git_commit", "src_sha256"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
