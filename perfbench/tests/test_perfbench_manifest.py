"""BENCHMARK.json names exactly the workloads and metrics the benchmark
prints, and stays within its format limits."""

import json
import re
from pathlib import Path

from perfbench import metrics, run, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in manifest()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_metrics_match_the_printed_ones():
    doc = manifest()
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(metrics.PER_LAYER)


def test_format_limits():
    doc = manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    entries = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in
               doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= doc["run_seconds"] <= 60
