"""The traced run's layer split adds up to what the client measured."""

from __future__ import annotations

import pytest

import layers
import spec
from loadgen import Op


def _trace():
    """One GET of v01 whose batch retrained a model in a pool thread."""
    op = Op("read", 0, 0.1000, b"", 0, ("v01",))
    op.sent, op.done, op.status, op.request_id = 0.1002, 0.1120, 200, "r1"
    rows = [
        ["gateway.request", 0.1005, 0.1110, None, {"rid": "r1", "status": 200}],
        ["gateway.to_dict", 0.1100, 0.1101, 0, None],
        ["engine.predict_many", 0.1056, 0.1090, None, {"ids": ["v01", "v02"]}],
        ["service.predict_batch", 0.1060, 0.1088, 2, {"n": 2}],
        ["kernel.predict", 0.1070, 0.1072, 3, {"rows": 2}],
        ["gateway.encode", 0.1111, 0.1112, None, {"rid": "r1"}],
        ["train.fit", 0.1057, 0.1059, None, None],  # pool thread: no parent
        ["engine.predict_many", 0.2000, 0.2010, None, {"ids": ["v09"]}],
    ]
    return rows, [op]


def test_median_split_adds_up_to_the_latency():
    rows, ops = _trace()
    _, split = layers.analyse(rows, ops, (0.0, 1.0), steady_phase=0)
    read = split["read"]
    assert read["latency_ms"] == pytest.approx(12.0)
    assert sum(read["layers_ms"].values()) == pytest.approx(12.0)
    expected = {
        "loadgen": 0.2,
        "connection": 0.3,
        "gateway": 7.0,
        "gateway.to_dict": 0.1,
        "engine.refresh": 0.4,  # 3.4 ms batch - 2.8 ms predict_batch - 0.2 ms fit
        "train": 0.2,
        "service.route": 2.6,
        "kernel": 0.2,
        "gateway.encode": 0.1,
        "transport": 0.9,
    }
    assert read["layers_ms"] == pytest.approx(expected)


def test_layer_metrics():
    rows, ops = _trace()
    metrics, _ = layers.analyse(rows, ops, (0.0, 1.0), steady_phase=0)
    assert set(metrics) == {m.name for m in spec.LAYER_METRICS}
    assert metrics["engine.predict_many_calls"] == 2
    assert metrics["gateway.coalesced_per_batch"] == pytest.approx(1.5)
    assert metrics["gateway.self_p50_ms"] == pytest.approx(7.0)
    assert metrics["transport.residual_p50_ms"] == pytest.approx(1.3)
    assert metrics["kernel.rows_per_call"] == pytest.approx(2.0)
    assert metrics["service.route_us_per_vehicle"] == pytest.approx(1300.0)
    assert metrics["train.fits_on_read_path"] == 1
    assert metrics["journal.appends"] == 0 and metrics["journal.append_p50_us"] is None


def test_window_excludes_set_up_spans():
    rows, ops = _trace()
    metrics, _ = layers.analyse(rows, ops, (0.15, 1.0), steady_phase=0)
    assert metrics["engine.predict_many_calls"] == 1
    assert metrics["train.fits"] == 0
