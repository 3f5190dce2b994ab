"""The committed benchmark records, BENCH_*.json at the repository root.

Each one backs a performance claim with paired runs of a parent and a
change, so it must parse, say what it measured and how, and name only
workloads that BENCHMARK.json defines, each with at least ten pairs.
BENCHMARK.json is only read.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED_KEYS = ("change", "command", "method", "environment", "workloads")
MIN_PAIRS = 10


def _workload_names() -> set:
    return {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_well_formed(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [k for k in REQUIRED_KEYS if k not in record]
    assert not missing, f"{path.name} lacks {missing}"
    names = _workload_names()
    assert record["workloads"], f"{path.name} records no workload"
    for key, runs in record["workloads"].items():
        # a workload name, optionally run at another seed: "scan-lattice@57"
        m = re.fullmatch(r"(?P<name>[^@]+)(@(?P<seed>\d+))?", key)
        assert m and m["name"] in names, f"{path.name}: {key!r} is no BENCHMARK.json workload"
        seeds, first = runs["seeds"], runs["first"]
        if m["seed"] is not None:
            assert set(seeds) == {int(m["seed"])}, f"{path.name}: {key!r} seeds"
        assert len(seeds) == len(first) >= MIN_PAIRS, \
            f"{path.name}: {key!r} has {len(seeds)} seeds and {len(first)} pairs"
