"""Observability contract of the serving stack.

Three guarantees pinned here:

* every gateway response — success, 429, 504, degraded — carries a
  request id usable against ``/v1/trace/{request_id}``;
* a forced circuit-breaker/ladder fallback leaves a ``fallback`` span
  event whose ``fallback_reason`` matches the served ``Forecast``;
* the JSON shapes of ``/v1/metrics``, ``/v1/trace/{id}`` and the
  event-log lines are golden — downstream dashboards parse them
  without a schema, so key sets and orderings are asserted exactly.
"""

import asyncio
import json

import numpy as np

from repro.serving import (
    CircuitBreaker,
    FleetEngine,
    IngestionGuard,
    MaintenancePredictionService,
)
from repro.serving.faults import FaultInjector, faulty_predictor_factory
from repro.serving.gateway import (
    DEGRADED_HEADER,
    REQUEST_ID_HEADER,
    FleetGateway,
    GatewayConfig,
)
from repro.serving.monitoring import DriftMonitor

T_V = 200_000.0
ID_HEADER_KEY = REQUEST_ID_HEADER.lower()  # handle_request sees lowercase


def fleet_usage(n_vehicles: int = 3, n_days: int = 25):
    rng = np.random.default_rng(11)
    return {
        f"v{i:02d}": rng.uniform(15_000, 25_000, size=n_days)
        for i in range(n_vehicles)
    }


def build_engine(**service_kwargs) -> FleetEngine:
    engine = FleetEngine(
        t_v=T_V, window=0, algorithm="LR", **service_kwargs
    )
    usage = fleet_usage()
    engine.register_fleet(usage)
    for vehicle_id, series in usage.items():
        engine.ingest_history(vehicle_id, series)
    return engine


def build_degraded_engine() -> FleetEngine:
    """Every trainer fails, so predictions walk the Section-4 ladder
    down to the baseline and serve a degraded, reasoned forecast."""
    injector = FaultInjector(seed=0, rates={"train": 1.0})
    service = MaintenancePredictionService(
        t_v=T_V,
        window=0,
        algorithm="LR",
        guard=IngestionGuard(),
        breaker=CircuitBreaker(),
        predictor_factory=faulty_predictor_factory(injector),
    )
    engine = FleetEngine(service)
    usage = fleet_usage()
    engine.register_fleet(usage)
    for vehicle_id, series in usage.items():
        engine.ingest_history(vehicle_id, series)
    return engine


async def started_gateway(config=None, engine=None, **start_kwargs):
    gateway = FleetGateway(
        engine if engine is not None else build_engine(),
        config or GatewayConfig(),
    )
    await gateway.start(**start_kwargs)
    return gateway


def run(coro):
    return asyncio.run(coro)


def all_events(trace: dict) -> list[dict]:
    return [event for span in trace["spans"] for event in span["events"]]


class TestRequestIdOnEveryResponse:
    def test_success_and_error_responses_carry_ids(self):
        async def scenario():
            gateway = await started_gateway()
            responses = [
                await gateway.handle_request("GET", "/v1/predict/v00"),
                await gateway.handle_request("GET", "/nope"),  # 404
                await gateway.handle_request("POST", "/v1/health"),  # 405
                await gateway.handle_request(
                    "POST", "/v1/ingest", b"{broken"
                ),  # 400
            ]
            await gateway.shutdown()
            return responses

        responses = run(scenario())
        assert [r.status for r in responses] == [200, 404, 405, 400]
        for response in responses:
            assert response.headers[REQUEST_ID_HEADER]

    def test_client_supplied_id_is_echoed(self):
        async def scenario():
            gateway = await started_gateway()
            good = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "client-id-42"},
            )
            bad = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "not valid: spaces!"},
            )
            await gateway.shutdown()
            return good, bad

        good, bad = run(scenario())
        assert good.headers[REQUEST_ID_HEADER] == "client-id-42"
        replaced = bad.headers[REQUEST_ID_HEADER]
        assert replaced and replaced != "not valid: spaces!"

    def test_429_rejection_carries_id(self):
        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(max_queue=1),
                dispatch=False,  # queue fills; nothing drains it yet
            )
            tasks = [
                asyncio.create_task(
                    gateway.handle_request("GET", "/v1/predict/v00")
                )
                for _ in range(3)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            rejected = [
                task.result() for task in tasks if task.done()
            ]
            gateway.start_dispatcher()
            await asyncio.gather(*(t for t in tasks if not t.done()))
            await gateway.shutdown()
            return rejected

        rejected = run(scenario())
        assert rejected and all(r.status == 429 for r in rejected)
        for response in rejected:
            assert response.headers[REQUEST_ID_HEADER]

    def test_504_deadline_carries_id_and_span_event(self):
        async def scenario():
            gateway = await started_gateway(dispatch=False)
            doomed = asyncio.create_task(
                gateway.handle_request(
                    "GET", "/v1/predict/v00?deadline_ms=1",
                    headers={ID_HEADER_KEY: "req-doomed"},
                )
            )
            await asyncio.sleep(0.05)  # let the deadline lapse
            gateway.start_dispatcher()
            response = await doomed
            trace = gateway.obs.tracer.export("req-doomed")
            await gateway.shutdown()
            return response, trace

        response, trace = run(scenario())
        assert response.status == 504
        assert response.headers[REQUEST_ID_HEADER] == "req-doomed"
        names = [event["name"] for event in all_events(trace)]
        assert "deadline-expired" in names

    def test_degraded_response_carries_id(self):
        async def scenario():
            gateway = await started_gateway(engine=build_degraded_engine())
            response = await gateway.handle_request(
                "GET", "/v1/predict/v00"
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200
        assert response.headers[DEGRADED_HEADER] == "true"
        assert response.headers[REQUEST_ID_HEADER]

    def test_tracing_disabled_still_assigns_ids(self):
        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(tracing=False)
            )
            response = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "untraced-1"},
            )
            trace = await gateway.handle_request(
                "GET", "/v1/trace/untraced-1"
            )
            await gateway.shutdown()
            return response, trace

        response, trace = run(scenario())
        assert response.status == 200
        assert response.headers[REQUEST_ID_HEADER] == "untraced-1"
        assert trace.status == 404  # nothing recorded while disabled


class TestTracePropagation:
    def test_predict_trace_spans_gateway_to_engine(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "req-trace-1"},
            )
            trace_response = await gateway.handle_request(
                "GET", "/v1/trace/req-trace-1"
            )
            await gateway.shutdown()
            return response, trace_response

        response, trace_response = run(scenario())
        assert response.status == 200
        assert trace_response.status == 200
        trace = trace_response.payload
        assert trace["request_id"] == "req-trace-1"
        by_name = {span["name"]: span for span in trace["spans"]}
        root = by_name["GET /v1/predict/v00"]
        assert root["parent_id"] is None
        assert root["attributes"]["endpoint"] == "predict"
        assert root["attributes"]["status"] == 200
        # The micro-batch hop: the engine recorded this request's
        # service.predict call as a child of its root, so the chain is
        # unbroken even though one predict_many served the batch.
        engine_span = by_name["engine.predict"]
        assert engine_span["attributes"]["vehicle_id"] == "v00"
        assert engine_span["parent_id"] == root["span_id"]
        assert engine_span["status"] == "ok"
        assert engine_span["duration_ms"] >= 0.0
        assert root["attributes"]["queue_depth"] >= 1

    def test_anonymous_traffic_is_head_sampled(self):
        """Anonymous requests are traced 1-in-``trace_sample_every``;
        a client-supplied id forces tracing regardless of the tick."""

        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(trace_sample_every=4)
            )
            for _ in range(8):
                await gateway.handle_request("GET", "/v1/predict/v00")
            forced = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "req-forced"},
            )
            anonymous_traces = len(gateway.obs.tracer.request_ids()) - 1
            forced_trace = await gateway.handle_request(
                "GET", "/v1/trace/req-forced"
            )
            await gateway.shutdown()
            return forced, anonymous_traces, forced_trace

        forced, anonymous_traces, forced_trace = run(scenario())
        assert forced.status == 200
        # 8 anonymous requests at 1-in-4 sampling -> exactly 2 traces
        # (the tick is deterministic, starting at 0).
        assert anonymous_traces == 2
        assert forced_trace.status == 200
        names = {span["name"] for span in forced_trace.payload["spans"]}
        assert "engine.predict" in names

    def test_unknown_trace_404(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "GET", "/v1/trace/never-seen"
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 404
        assert response.headers[REQUEST_ID_HEADER]

    def test_fallback_event_matches_forecast_reason(self):
        """Forced ladder fallback: the ``fallback`` span event's
        ``fallback_reason`` attribute is exactly the reason served in
        the Forecast body."""

        async def scenario():
            gateway = await started_gateway(engine=build_degraded_engine())
            response = await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "req-degraded"},
            )
            trace_response = await gateway.handle_request(
                "GET", "/v1/trace/req-degraded"
            )
            await gateway.shutdown()
            return response, trace_response

        response, trace_response = run(scenario())
        forecast = response.payload
        assert forecast["degraded"] is True
        assert forecast["fallback_reason"]
        fallbacks = [
            event
            for event in all_events(trace_response.payload)
            if event["name"] == "fallback"
        ]
        assert len(fallbacks) == 1
        attributes = fallbacks[0]["attributes"]
        assert attributes["vehicle_id"] == "v00"
        assert attributes["fallback_reason"] == forecast["fallback_reason"]
        assert attributes["strategy"] == forecast["strategy"]


class TestGoldenSchemas:
    """Exact key sets of the public JSON surfaces."""

    METRICS_SECTIONS = {
        "counters",
        "gauges",
        "histograms",
        "gateway",
        "fleet",
        "drift",
        "kernel",
        "tracing",
        "events",
    }
    GATEWAY_KEYS = {
        "requests",
        "errors",
        "responses",
        "latency_s",
        "batch",
        "queue_high_water",
        "queue_rejections",
        "deadline_expirations",
    }
    SPAN_KEYS = {
        "span_id",
        "parent_id",
        "name",
        "start_ms",
        "duration_ms",
        "status",
        "attributes",
        "events",
    }
    EVENT_KEYS = {"name", "offset_ms", "attributes"}
    HISTOGRAM_KEYS = {"count", "mean", "max", "p50", "p95", "p99"}

    def _traffic(self):
        async def scenario():
            engine = build_engine(monitor=DriftMonitor(min_samples=1))
            gateway = await started_gateway(engine=engine)
            await gateway.handle_request(
                "GET", "/v1/predict/v00",
                headers={ID_HEADER_KEY: "golden-req"},
            )
            metrics = await gateway.handle_request("GET", "/v1/metrics")
            trace = await gateway.handle_request(
                "GET", "/v1/trace/golden-req"
            )
            jsonl = gateway.obs.events.to_jsonl()
            await gateway.shutdown()
            return metrics, trace, jsonl

        return run(scenario())

    def test_metrics_payload_shape(self):
        metrics, _, _ = self._traffic()
        assert metrics.status == 200
        payload = metrics.payload
        assert set(payload) == self.METRICS_SECTIONS
        assert set(payload["gateway"]) == self.GATEWAY_KEYS
        assert set(payload["gateway"]["batch"]) == {"sizes", "exec_s"}
        assert set(payload["tracing"]) == {
            "enabled",
            "capacity",
            "traces_held",
            "traces_started",
            "traces_evicted",
            "spans_recorded",
        }
        assert set(payload["events"]) == {
            "capacity", "emitted", "held", "dropped",
        }
        assert set(payload["fleet"]) == {
            "vehicles",
            "anomalies",
            "anomalies_total",
            "quarantined",
            "degraded_serves",
            "breaker_failures",
            "persist_failures",
            "dead_letter_overflow",
        }
        assert set(payload["drift"]) == {
            "vehicles_tracked",
            "residuals_recorded",
            "residuals_held",
            "resolved_by_strategy",
            "alerts",
            "alerts_suppressed",
            "still_degraded_vehicles",
            "threshold_days",
        }
        for summary in payload["histograms"].values():
            if summary["count"]:
                assert set(summary) == self.HISTOGRAM_KEYS

    def test_trace_payload_shape(self):
        _, trace, _ = self._traffic()
        assert trace.status == 200
        payload = trace.payload
        assert set(payload) == {"request_id", "spans"}
        assert payload["spans"], "trace must hold at least the root span"
        for span in payload["spans"]:
            assert set(span) == self.SPAN_KEYS
            for event in span["events"]:
                assert set(event) == self.EVENT_KEYS
        # Spans arrive in creation order: ids strictly increasing.
        ids = [span["span_id"] for span in payload["spans"]]
        assert ids == sorted(ids)

    def test_event_log_line_shape(self):
        _, _, jsonl = self._traffic()
        lines = jsonl.splitlines()
        assert lines, "gateway traffic must emit stage events"
        for line in lines:
            assert line.startswith('{"seq":')
            record = json.loads(line)
            assert list(record)[:3] == ["seq", "ts", "kind"]
        stage_records = [
            json.loads(line)
            for line in lines
            if json.loads(line)["kind"] == "stage"
        ]
        assert any(r["stage"] == "predict" for r in stage_records)


class TestEngineSections:
    def test_registry_collectors_match_metrics_section(self):
        """The snapshot's engine sections and ``metrics_section()`` come
        from one producer, including sections attached after obs."""
        from types import SimpleNamespace

        from repro.obs import Observability

        engine = build_engine(monitor=DriftMonitor())
        obs = Observability()
        engine.attach_observability(obs)
        engine.attach_durability(SimpleNamespace(status=lambda: {"ok": 1}))
        engine.attach_lifecycle(SimpleNamespace(counters=lambda: {"n": 2}))
        section = engine.metrics_section()
        assert list(section) == [
            "fleet", "drift", "kernel", "durability", "lifecycle",
        ]
        snapshot = obs.registry.snapshot()
        assert {name: snapshot[name] for name in section} == section
