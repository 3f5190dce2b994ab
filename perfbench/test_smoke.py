"""Smoke test of the benchmark runner: every workload at a tiny size.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def records(trace: int) -> dict:
    return {w["name"]: json.loads((ROOT / ".perfbench_run" /
                                   f"result-{w['name']}-seed0-trace{trace}.json").read_text())
            for w in SPEC["workloads"]}


def test_smoke_untraced_reports_every_end_to_end_metric():
    proc = run_bench(ROOT, "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    for name, rec in records(0).items():
        assert rec["result"]["failed"] == 0, (name, rec["errors"])
        assert set(rec["result"]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert rec["samples"]["fail_ratio"] == rec["result"]["attempted"]


def test_smoke_traced_reports_every_per_layer_metric():
    proc = run_bench(ROOT, "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    for name, rec in records(1).items():
        metrics = rec["result"]["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}, name
        assert (ROOT / rec["detail"]["spans_file"]).is_file()
        joint = metrics["observables.joint_distribution.calls"]["value"]
        assert (joint > 0) == (name == "joint-witness")
        convolve = metrics["grids.convolve.calls"]["value"]
        assert (convolve > 0) == name.startswith("verify-")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "verify-desk", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
