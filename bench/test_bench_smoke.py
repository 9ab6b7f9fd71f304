"""Smoke test of the benchmark harness: one tiny pass of each workload."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_tiny_pass_of_every_workload(tmp_path):
    spec = _spec()
    results = tmp_path / "results"
    proc = _run("--workload", "all", "--tiny", "--seed", "3", "--seconds", "0",
                "--trace", "0", "--results-dir", str(results))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 3
    names = {f"{w['name']}.{m['name']}" for w in spec["workloads"]
             for m in spec["end_to_end"]}
    assert set(line["metrics"]) == names
    for metric in line["metrics"].values():
        assert metric["value"] >= 0
    for name in ("wall_s", "cpu_s", "case_s_p50", "case_s_tail", "setup_s",
                 "peak_rss_mb", "failed_frac"):
        assert name in proc.stdout

    compared = _run("--compare", str(results), str(results))
    assert compared.returncode == 0, compared.stderr
    for workload in spec["workloads"]:
        assert f"== {workload['name']}" in compared.stdout


def test_traced_tiny_pass_reports_every_layer(tmp_path):
    spec = _spec()
    proc = _run("--workload", "check-gate", "--tiny", "--seed", "3",
                "--seconds", "0", "--trace", "1",
                "--results-dir", str(tmp_path / "results"))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # The jensen suite checks 200 slabs; gradient differentiates reduced_energy.
    assert line["metrics"]["sets.jensen_gap.calls"]["value"] == 200
    assert line["metrics"]["reduced.reduced_energy.calls"]["value"] > 0
    assert line["metrics"]["reduced.minimize_direct.calls"]["value"] == 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "check-gate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
