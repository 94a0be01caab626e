"""``BENCHMARK.json`` says what ``spec.py`` runs and reports."""

from __future__ import annotations

import json
import re
from pathlib import Path

import spec

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["command"] == ["python3", "benchmarks/budget/run.py"]
    assert BENCH["paths"] == ["benchmarks/budget"]
    assert BENCH["run_seconds"] == spec.DEFAULT_SECONDS


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    for w in BENCH["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_match():
    assert BENCH["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_match():
    assert BENCH["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.LAYER_METRICS
        if m.every_workload
    ]


def test_names_and_units():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCH["workloads"]]
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
