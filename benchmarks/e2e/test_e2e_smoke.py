"""The benchmark end to end: every workload briefly, checks on.

Each test starts real servers, so together they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_with_checks_passing():
    done = run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = last_json(done.stdout)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(line["metrics"]) == sorted(
        f"{w}.{m['name']}" for w in workloads for m in SPEC["end_to_end"]
    )
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_traced_smoke_reports_every_layer():
    # The arguments BENCHMARK.json's command is run with, plus --smoke.
    done = run(
        "--smoke", "--workload", "mixed", "--seed", "5", "--seconds", "2", "--trace", "1"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    never_zero = [name for name in metrics if name.endswith(".count")]
    assert all(metrics[name]["value"] > 0 for name in never_zero)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("--workload", "sample-small", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
