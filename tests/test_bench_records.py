"""The committed benchmark records, BENCH_*.json at the repository root.

Each one backs a performance claim with paired runs of a parent and a
change, so it must parse, say what it measured and how, and name only
workloads that BENCHMARK.json defines, each with at least ten pairs.  A
record that claims a gain names, in each entry of its `claim` list, an
end-to-end metric of BENCHMARK.json, a workload key the record ran, and
whether the claim was met.  BENCHMARK.json is only read.

A per-layer metric `<layer>.<name>.<field>` reads the spans of what
`uncert.<layer>` binds to `<name>`, so it reads 0 once that name is gone
(unless a span hook counts under it, as `states.fft` does).  The names
already gone are pinned, so deleting another one a metric cites fails
here instead of zeroing its metric.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED_KEYS = ("change", "command", "method", "environment", "workloads")
MIN_PAIRS = 10
LAYERS = ("grids", "states", "observables", "metrology", "cli")
# the `<layer>.<name>` of per-layer metrics that `uncert.<layer>` lacks
VANISHED = {
    "metrology.calibration_error", "metrology.error_bar_width", "metrology.localized_probes",
    "metrology.probes", "metrology.resolution_width", "metrology.verify_joint_ur",
    "observables.outcome_distribution", "observables.warp_joint",
    "states.fft", "states.probe_states",
}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload_names() -> set:
    return {w["name"] for w in _benchmark()["workloads"]}


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


CLAIMS = [p for p in RECORDS if "claim" in json.loads(p.read_text())]


@pytest.mark.parametrize("path", CLAIMS, ids=[p.name for p in CLAIMS])
def test_claims_name_a_gated_metric_and_a_recorded_workload(path):
    record = json.loads(path.read_text())
    metrics = {m["name"] for m in _benchmark()["end_to_end"]}
    assert record["claim"], f"{path.name} has an empty claim"
    for entry in record["claim"]:
        assert entry["metric"] in metrics, \
            f"{path.name}: {entry['metric']!r} is no end-to-end metric"
        assert entry["workload"] in record["workloads"], \
            f"{path.name}: {entry['workload']!r} is not a workload the record ran"
        assert isinstance(entry.get("met"), bool), f"{path.name}: a claim lacks 'met'"


def test_per_layer_metrics_name_what_their_layer_holds():
    vanished = set()
    for metric in _benchmark()["per_layer"]:
        layer, *rest = metric["name"].split(".")
        if layer in LAYERS and len(rest) == 2 \
                and not hasattr(importlib.import_module(f"uncert.{layer}"), rest[0]):
            vanished.add(f"{layer}.{rest[0]}")
    assert vanished == VANISHED
