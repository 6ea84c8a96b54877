"""BENCHMARK.json names exactly the metrics the benchmark prints."""
import json
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_workloads_exist_and_share_the_per_layer_apps():
    for w in SPEC["workloads"]:
        wl = workloads.WORKLOADS[w["name"]]
        # Every per-layer application time must exist on every workload.
        apps = {k[len("harness."):-2] for k in tracing.PER_LAYER if k.startswith("harness.run_")}
        assert apps <= set(wl.apps)
