"""Each benchmark workload, built at seed 0 and full size, runs one op and
passes its own checks.

So a name the benchmark imports from ``uncert`` that goes away, or a
seed-0 report column that stops matching ``perfbench/reference/*.csv``,
fails here and not only in the benchmark.  ``perfbench/`` is only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# loaded from its file, since perfbench/ is not on the import path
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = workloads.build(name, 0, tmp_path)
    _, output = workload.run()
    workload.check(output)
    if hasattr(workload, "check_mass"):
        workload.check_mass()
