"""Metrics ``run.py`` derives from the requests of one run."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run
import spec
from loadgen import Op


def _answered(kind, due, done, body, vehicles=(), days=None):
    op = Op(kind, 0, due, b"", 0, tuple(vehicles), days)
    op.sent, op.done, op.status, op.body = due, done, 200, json.dumps(body).encode()
    return op


def _forecast(vid, day, version):
    return {"vehicle_id": vid, "as_of_day": day, "model_version": version}


class TestCycleToChampion:
    def test_closure_on_the_first_streamed_day_waits_for_a_newer_model(self):
        # v1's preload ends on day 29 and the set-up champion is version
        # 3; the first streamed day, 30, closes a cycle.
        inputs = SimpleNamespace(closures=[("v1", 30)])
        initial = [_answered("setup", 0.0, 0.1, {"forecasts": [_forecast("v1", 29, 3)]})]
        ops = [
            _answered("ingest", 1.0, 1.01, {}, ("v1",), {"v1": 30}),
            # Still the set-up champion: not the retrained one.
            _answered("probe", 1.05, 1.2, _forecast("v1", 30, 3)),
            _answered("probe", 1.25, 1.6, _forecast("v1", 30, 4)),
        ]
        assert run.cycle_to_champion(inputs, ops, initial) == [pytest.approx(0.6)]

    def test_prior_version_comes_from_earlier_reads_too(self):
        inputs = SimpleNamespace(closures=[("v1", 40)])
        initial = [_answered("setup", 0.0, 0.1, {"forecasts": [_forecast("v1", 29, 3)]})]
        ops = [
            _answered("read", 0.5, 0.6, _forecast("v1", 35, 5)),
            _answered("ingest", 2.0, 2.01, {}, ("v1",), {"v1": 40}),
            _answered("probe", 2.05, 2.1, _forecast("v1", 40, 5)),
            _answered("read", 2.2, 2.5, _forecast("v1", 40, 6)),
        ]
        assert run.cycle_to_champion(inputs, ops, initial) == [pytest.approx(0.5)]

    def test_no_newer_model_is_infinite(self):
        inputs = SimpleNamespace(closures=[("v1", 30)])
        initial = [_answered("setup", 0.0, 0.1, {"forecasts": [_forecast("v1", 29, 3)]})]
        ops = [
            _answered("ingest", 1.0, 1.01, {}, ("v1",), {"v1": 30}),
            _answered("probe", 1.05, 1.2, _forecast("v1", 30, 3)),
        ]
        assert run.cycle_to_champion(inputs, ops, initial) == [float("inf")]


class TestResultLine:
    def test_one_workload_keeps_plain_names(self):
        line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}
        assert run.result_line(["predict-one"], [line]) == line

    def test_several_workloads_qualify_names(self):
        lines = [
            {"correct": True, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}},
            {"correct": False, "attempted": 4, "failed": 1, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}}},
        ]
        line = run.result_line(["predict-one", "cycle-rollover"], lines)
        assert line == {
            "correct": False,
            "attempted": 7,
            "failed": 1,
            "metrics": {
                "predict-one.setup_s": {"value": 1.5, "unit": "s"},
                "cycle-rollover.setup_s": {"value": 2.5, "unit": "s"},
            },
        }


def test_seconds_is_fixed_to_the_benchmark_run_length():
    assert run.parse_args(["--seconds", str(spec.DEFAULT_SECONDS)]).seconds == spec.DEFAULT_SECONDS
    with pytest.raises(SystemExit):
        run.parse_args(["--seconds", str(spec.DEFAULT_SECONDS + 1)])
