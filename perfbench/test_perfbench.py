"""Self-test of the benchmark: every workload at a tiny size.

Each run must report every metric ``BENCHMARK.json`` names for its mode,
with the declared unit, and pass every output check; the traced run
must leave the program unpatched.  Runs in-process with ``--seconds 0``
(two timed iterations per phase) to stay fast.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, tracer

REPO_ROOT = os.path.dirname(run.BENCH_DIR)
with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def pinned_env(monkeypatch):
    # main() pins the BLAS thread variables; restore them afterwards.
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, capsys, pinned_env):
    result = _run(capsys, "--workload", workload, "--seed", "3",
                  "--seconds", "0", "--trace", "0", "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3  # warm-up + two timed iterations
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, capsys, pinned_env):
    from repro.api.session import Session
    from repro.serving.fleet import RoundRobinRouter

    before = (Session.__dict__["serve"],
              RoundRobinRouter.__dict__["route_one"])
    result = _run(capsys, "--workload", workload, "--seed", "3",
                  "--seconds", "0", "--trace", "1", "--tiny")
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units
    assert (Session.__dict__["serve"],
            RoundRobinRouter.__dict__["route_one"]) == before
    if workload == "serve-fleet":
        assert metrics["serving.router.route_one_calls"]["value"] == 0
        assert all(m["value"] == 0 for k, m in metrics.items()
                   if k.startswith("core."))
    if workload == "train-sptt":
        assert metrics["core.sptt.forward_s"]["value"] > 0


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20_000)))
    outer = t.wrap("outer", lambda: inner() + inner())
    outer()
    assert t.calls("inner") == 2 and t.calls("outer") == 1
    assert t.self_s("outer") == pytest.approx(
        t.total_s("outer") - t.total_s("inner"))
    # A same-name call inside an open span is passed through untimed.
    again = t.wrap("outer", lambda: 1)
    t.wrap("outer", lambda: again())()
    assert t.calls("outer") == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
