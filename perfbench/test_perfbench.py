"""Tests of the benchmark itself (not of powerlimits).

Run from the repository root:  python3 -m pytest perfbench -q

They drive ``run.py`` in ``--smoke`` mode (a few hundred samples per
workload), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".terms", ".matmuls", ".bytes", ".calls", ".draws")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke(workload, trace, seed=3):
    done = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: smoke(w, 1) for w in workloads.WORKLOADS}


def test_declared_workloads_match_the_generator():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_smoke_prints_every_declared_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_prints_every_declared_per_layer_metric(traced_runs):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert tracer.per_layer_metrics() == {
        m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    for workload, result in traced_runs.items():
        assert result["correct"], workload
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_counts_repeat_exactly_with_the_same_seed(traced_runs):
    for workload, first in traced_runs.items():
        second = smoke(workload, 1)
        counts = {k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)}
        assert counts
        for k in counts:
            assert first["metrics"][k]["value"] == second["metrics"][k]["value"], (workload, k)


def test_fourier_sums_idle_where_predicted(traced_runs):
    calls = {w: r["metrics"]["kernels.fourier_sums.calls"]["value"] for w, r in traced_runs.items()}
    assert calls["flags-so3"] == 0 and calls["mixture-u2"] == 0
    assert calls["spectral-u4"] > 0 and calls["torus-grid"] > 0


def test_self_times_partition_the_root_span():
    recorder = tracer.Recorder()

    def inner(n):
        return sum(range(n))

    wrapped_inner = recorder.wrap("test.inner", inner)

    def outer():
        return wrapped_inner(20000) + wrapped_inner(30000)

    recorder.wrap("test.outer", outer)()
    (_, start, end, _, _), = [s for s in recorder.spans if s[0] == "test.outer"]
    assert [s[3] for s in recorder.spans] == [-1, 0, 0]
    assert sum(recorder.self_times()) == pytest.approx(end - start, abs=1e-12)
    values = recorder.summary(end - start)
    assert values["test.inner.calls"] == 2
    assert values["experiments.unattributed_s"] == pytest.approx(0.0, abs=1e-12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "flags-so3", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
