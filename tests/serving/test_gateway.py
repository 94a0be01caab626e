"""Tests for the async HTTP fleet gateway.

Everything except the socket smoke test drives the gateway through
``handle_request`` directly — an asyncio in-process client, no real
sockets — so the suite stays fast and deterministic.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.serving import (
    CircuitBreaker,
    FleetEngine,
    IngestionGuard,
    MaintenancePredictionService,
)
from repro.serving.gateway import (
    DEGRADED_HEADER,
    FleetGateway,
    GatewayConfig,
    GatewayMetrics,
)
from repro.serving.service import Forecast

T_V = 200_000.0
N_VEHICLES = 4
N_DAYS = 25


def fleet_usage(
    n_vehicles: int = N_VEHICLES, n_days: int = N_DAYS
) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        f"v{i:02d}": rng.uniform(15_000, 25_000, size=n_days)
        for i in range(n_vehicles)
    }


def build_engine(usage=None, **service_kwargs) -> FleetEngine:
    usage = fleet_usage() if usage is None else usage
    engine = FleetEngine(
        t_v=T_V, window=0, algorithm="LR", **service_kwargs
    )
    engine.register_fleet(usage)
    for vehicle_id, series in usage.items():
        engine.ingest_history(vehicle_id, series)
    return engine


def serial_reference(usage=None) -> dict[str, Forecast]:
    """Sequential MaintenancePredictionService forecasts, one per vehicle."""
    usage = fleet_usage() if usage is None else usage
    service = MaintenancePredictionService(t_v=T_V, window=0, algorithm="LR")
    for vehicle_id in sorted(usage):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage[vehicle_id])
    return {vehicle_id: service.predict(vehicle_id) for vehicle_id in sorted(usage)}


def run(coro):
    return asyncio.run(coro)


async def started_gateway(config=None, engine=None, **start_kwargs):
    gateway = FleetGateway(
        engine if engine is not None else build_engine(),
        config or GatewayConfig(),
    )
    await gateway.start(**start_kwargs)
    return gateway


class TestRouting:
    def test_unknown_path_404(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request("GET", "/nope")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 404

    def test_wrong_method_405(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request("POST", "/v1/health")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 405
        assert response.headers["Allow"] == "GET"

    def test_bad_json_400(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "POST", "/v1/ingest", b"{not json"
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 400
        assert "invalid JSON" in response.payload["error"]

    def test_unknown_vehicle_404(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request("GET", "/v1/predict/ghost")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 404
        assert "ghost" in response.payload["error"]

    def test_unready_vehicle_422(self):
        async def scenario():
            usage = fleet_usage()
            engine = build_engine(usage)
            engine.service.register_vehicle("young")
            gateway = await started_gateway(engine=engine)
            response = await gateway.handle_request("GET", "/v1/predict/young")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 422

    def test_bad_deadline_400(self):
        async def scenario():
            gateway = await started_gateway()
            responses = [
                await gateway.handle_request(
                    "GET", "/v1/predict/v00?deadline_ms=banana"
                ),
                await gateway.handle_request(
                    "GET", "/v1/predict/v00?deadline_ms=-3"
                ),
            ]
            await gateway.shutdown()
            return responses

        assert [r.status for r in run(scenario())] == [400, 400]

    def test_requires_start(self):
        gateway = FleetGateway(build_engine())
        with pytest.raises(RuntimeError, match="start"):
            run(gateway.handle_request("GET", "/v1/health"))


class TestIngest:
    def test_single_reading(self):
        async def scenario():
            engine = build_engine()
            gateway = await started_gateway(engine=engine)
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "v00", "seconds": 20_000.0}).encode(),
            )
            await gateway.shutdown()
            return response, engine.service.n_days("v00")

        response, n_days = run(scenario())
        assert response.status == 200
        assert response.payload == {"ingested": 1}
        assert n_days == N_DAYS + 1

    def test_batch_readings(self):
        async def scenario():
            engine = build_engine()
            gateway = await started_gateway(engine=engine)
            readings = [
                {"vehicle_id": "v00", "seconds": 18_000.0, "day": N_DAYS},
                {"vehicle_id": "v01", "seconds": 21_000.0, "day": N_DAYS},
            ]
            response = await gateway.handle_request(
                "POST", "/v1/ingest", json.dumps({"readings": readings}).encode()
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200
        assert response.payload == {"ingested": 2}

    def test_auto_registers_unknown_vehicle(self):
        async def scenario():
            engine = build_engine()
            gateway = await started_gateway(engine=engine)
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps(
                    {"vehicle_id": "newcomer", "seconds": 5_000.0}
                ).encode(),
            )
            await gateway.shutdown()
            return response, engine.service.has_vehicle("newcomer")

        response, registered = run(scenario())
        assert response.status == 200
        assert registered

    def test_unknown_vehicle_without_auto_register(self):
        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(auto_register=False)
            )
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "ghost", "seconds": 1.0}).encode(),
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 422
        assert "ghost" in response.payload["error"]

    def test_dirty_reading_without_guard_422(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "v00", "seconds": -5.0}).encode(),
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 422
        assert response.payload["ingested"] == 0

    def test_dirty_reading_with_guard_screened(self):
        async def scenario():
            engine = build_engine(guard=IngestionGuard())
            gateway = await started_gateway(engine=engine)
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "v00", "seconds": -5.0}).encode(),
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200  # guard clamps, never raises

    def test_malformed_reading_400(self):
        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "v00"}).encode(),
            )
            await gateway.shutdown()
            return response

        assert run(scenario()).status == 400


class TestPredict:
    def test_single_forecast_round_trips(self):
        reference = serial_reference()

        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request("GET", "/v1/predict/v02")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200
        forecast = Forecast.from_dict(json.loads(response.body()))
        assert forecast == reference["v02"]
        assert DEGRADED_HEADER not in response.headers

    def test_batch_endpoint_mixed_outcomes(self):
        reference = serial_reference()

        async def scenario():
            gateway = await started_gateway()
            response = await gateway.handle_request(
                "POST",
                "/v1/predict:batch",
                json.dumps({"vehicle_ids": ["v01", "ghost", "v03"]}).encode(),
            )
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200
        payload = response.payload
        assert payload["errors"] == 1
        ok_1 = Forecast.from_dict(payload["forecasts"][0])
        ok_3 = Forecast.from_dict(payload["forecasts"][2])
        assert ok_1 == reference["v01"]
        assert ok_3 == reference["v03"]
        assert payload["forecasts"][1]["status"] == 404

    def test_batch_endpoint_rejects_bad_body(self):
        async def scenario():
            gateway = await started_gateway()
            responses = [
                await gateway.handle_request(
                    "POST", "/v1/predict:batch", json.dumps({}).encode()
                ),
                await gateway.handle_request(
                    "POST",
                    "/v1/predict:batch",
                    json.dumps({"vehicle_ids": []}).encode(),
                ),
            ]
            await gateway.shutdown()
            return responses

        assert [r.status for r in run(scenario())] == [400, 400]


class TestSerialEquivalence:
    """The acceptance contract: concurrent gateway forecasts are
    byte-identical to sequential service.predict on the same history,
    with and without micro-batching."""

    @pytest.mark.parametrize("max_batch_size", [1, 64])
    def test_concurrent_predicts_match_serial(self, max_batch_size):
        usage = fleet_usage()
        reference = serial_reference(usage)
        vehicle_ids = sorted(usage)

        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(max_batch_size=max_batch_size),
                engine=build_engine(usage),
            )
            # 6 concurrent requests per vehicle, interleaved.
            targets = [
                vehicle_ids[i % len(vehicle_ids)] for i in range(24)
            ]
            responses = await asyncio.gather(
                *(
                    gateway.handle_request("GET", f"/v1/predict/{vid}")
                    for vid in targets
                )
            )
            metrics = gateway.metrics.snapshot()
            await gateway.shutdown()
            return targets, responses, metrics

        targets, responses, metrics = run(scenario())
        assert all(response.status == 200 for response in responses)
        for vehicle_id, response in zip(targets, responses):
            served = Forecast.from_dict(json.loads(response.body()))
            # Byte-identical: dataclass equality covers every field
            # including the exact float payloads.
            assert served == reference[vehicle_id]
        sizes = metrics["batch"]["sizes"]
        if max_batch_size == 1:
            assert (sizes["count"], sizes["max"]) == (24, 1)
        else:
            # All 24 GETs are queued before the dispatcher resumes, so
            # one predict_many call serves them together.
            assert (sizes["count"], sizes["max"]) == (1, 24)

    def test_batch_endpoint_matches_serial(self):
        usage = fleet_usage()
        reference = serial_reference(usage)

        async def scenario():
            gateway = await started_gateway(engine=build_engine(usage))
            response = await gateway.handle_request(
                "POST",
                "/v1/predict:batch",
                json.dumps({"vehicle_ids": sorted(usage)}).encode(),
            )
            sizes = gateway.metrics.snapshot()["batch"]["sizes"]
            await gateway.shutdown()
            return response, sizes

        response, sizes = run(scenario())
        for item in response.payload["forecasts"]:
            served = Forecast.from_dict(item)
            assert served == reference[served.vehicle_id]
        # The whole request lands in one predict_many call.
        assert (sizes["count"], sizes["max"]) == (1, len(usage))


def gated_engine() -> FleetEngine:
    """An engine whose ``predict_many`` records each call's ids, then
    blocks on ``engine.gate`` until the test releases it."""
    engine = build_engine()
    engine.calls, engine.gate = [], threading.Event()
    engine.entered = threading.Event()
    predict_many = engine.predict_many

    def gated(ids, spans=None):
        engine.calls.append(list(ids))
        engine.entered.set()
        engine.gate.wait(10.0)
        return predict_many(ids, spans=spans)

    engine.predict_many = gated
    return engine


class TestWorkConservingDispatch:
    """The dispatcher never waits for company: a lone request goes to
    the engine at once, and what queues behind a running batch forms
    the next one, cut at ``max_batch_size``."""

    @pytest.mark.parametrize(
        "max_batch_size, backlog_calls",
        [
            (64, [["v01", "v02", "v03"]]),
            (2, [["v01", "v02"], ["v03"]]),
        ],
        ids=["cap64", "cap2"],
    )
    def test_lone_request_then_backlog(self, max_batch_size, backlog_calls):
        engine = gated_engine()

        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(max_batch_size=max_batch_size),
                engine=engine,
            )
            try:
                lone = asyncio.create_task(
                    gateway.handle_request("GET", "/v1/predict/v00")
                )
                for _ in range(5):
                    await asyncio.sleep(0)
                # Blocking here freezes the event loop, so no timer can
                # fire: the call must already be on the engine thread.
                dispatched = engine.entered.wait(2.0)
                backlog = [
                    asyncio.create_task(
                        gateway.handle_request("GET", f"/v1/predict/{vid}")
                    )
                    for vid in ("v01", "v02", "v03")
                ]
                for _ in range(5):
                    await asyncio.sleep(0)
                calls_while_blocked = list(engine.calls)
            finally:
                engine.gate.set()
            responses = await asyncio.gather(lone, *backlog)
            await gateway.shutdown()
            return dispatched, calls_while_blocked, responses

        dispatched, calls_while_blocked, responses = run(scenario())
        assert dispatched
        assert calls_while_blocked == [["v00"]]
        assert [r.status for r in responses] == [200] * 4
        assert engine.calls == [["v00"], *backlog_calls]


class TestAdmissionControl:
    def test_full_queue_429_with_retry_after(self):
        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(max_queue=2),
                dispatch=False,  # queue fills; nothing drains it yet
            )
            tasks = [
                asyncio.create_task(
                    gateway.handle_request("GET", "/v1/predict/v00")
                )
                for _ in range(4)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            rejected = [task.result() for task in tasks if task.done()]
            gateway.start_dispatcher()
            served = await asyncio.gather(
                *(task for task in tasks if not task.done())
            )
            rejections = gateway.metrics.queue_rejections
            await gateway.shutdown()
            return rejected, served, rejections

        rejected, served, rejections = run(scenario())
        assert [r.status for r in rejected] == [429, 429]
        assert all(r.headers["Retry-After"] for r in rejected)
        assert [r.status for r in served] == [200, 200]
        assert rejections == 2

    def test_depot_read_admitted_in_one_pass(self):
        """The ids of a predict:batch queue in order in one pass: the
        first ``max_queue`` are served, the rest answer 429 in their
        own slots, and no task is created per vehicle."""
        reference = serial_reference()
        ids = ["v00", "v01", "v02", "v03"]

        async def scenario():
            gateway = await started_gateway(
                config=GatewayConfig(max_queue=2), dispatch=False
            )
            tasks_before = len(asyncio.all_tasks())
            request = asyncio.create_task(
                gateway.handle_request(
                    "POST",
                    "/v1/predict:batch",
                    json.dumps({"vehicle_ids": ids}).encode(),
                )
            )
            for _ in range(3):
                await asyncio.sleep(0)
            tasks_added = len(asyncio.all_tasks()) - tasks_before
            metrics = gateway.metrics
            queued = (
                gateway._lanes[0].queue.qsize(),
                metrics.queue_high_water,
                metrics.queue_rejections,
            )
            gateway.start_dispatcher()
            response = await request
            await gateway.shutdown()
            return tasks_added, queued, response

        tasks_added, queued, response = run(scenario())
        assert tasks_added == 1  # the request's own task
        assert queued == (2, 2, 2)
        payload = response.payload
        assert payload["errors"] == 2
        served = [Forecast.from_dict(f) for f in payload["forecasts"][:2]]
        assert served == [reference["v00"], reference["v01"]]
        assert [
            (f["vehicle_id"], f["status"]) for f in payload["forecasts"][2:]
        ] == [("v02", 429), ("v03", 429)]

    def test_gated_depot_read_holds_no_task_per_vehicle(self):
        """While a batch waits on the engine, its request holds one
        task, and the high-water gauge reads the depth the admission
        pass left."""
        engine = gated_engine()
        ids = ["v00", "v01", "v02", "v03"]

        async def scenario():
            gateway = await started_gateway(engine=engine)
            tasks_before = len(asyncio.all_tasks())
            try:
                request = asyncio.create_task(
                    gateway.handle_request(
                        "POST",
                        "/v1/predict:batch",
                        json.dumps({"vehicle_ids": ids}).encode(),
                    )
                )
                for _ in range(5):
                    await asyncio.sleep(0)
                dispatched = engine.entered.wait(2.0)
                tasks_added = len(asyncio.all_tasks()) - tasks_before
            finally:
                engine.gate.set()
            response = await request
            high_water = gateway.metrics.queue_high_water
            await gateway.shutdown()
            return dispatched, tasks_added, high_water, response

        dispatched, tasks_added, high_water, response = run(scenario())
        assert dispatched
        assert tasks_added == 1
        assert high_water == len(ids)
        assert engine.calls == [ids]
        assert response.payload["errors"] == 0

    def test_expired_deadline_504_and_no_batch_slot(self):
        async def scenario():
            gateway = await started_gateway(dispatch=False)
            doomed = asyncio.create_task(
                gateway.handle_request("GET", "/v1/predict/v00?deadline_ms=1")
            )
            alive = asyncio.create_task(
                gateway.handle_request(
                    "GET", "/v1/predict/v01?deadline_ms=60000"
                )
            )
            await asyncio.sleep(0.05)  # let the first deadline lapse
            gateway.start_dispatcher()
            responses = await asyncio.gather(doomed, alive)
            metrics = gateway.metrics.snapshot()
            await gateway.shutdown()
            return responses, metrics

        (doomed, alive), metrics = run(scenario())
        assert doomed.status == 504
        assert alive.status == 200
        assert metrics["deadline_expirations"] == 1
        # The expired request never occupied a predict_many slot.
        assert metrics["batch"]["sizes"]["max"] == 1
        assert metrics["batch"]["sizes"]["count"] == 1


class TestDrainAndShutdown:
    def test_graceful_drain_serves_queued_requests(self):
        async def scenario():
            gateway = await started_gateway(dispatch=False)
            tasks = [
                asyncio.create_task(
                    gateway.handle_request("GET", f"/v1/predict/v{i:02d}")
                )
                for i in range(3)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            gateway.start_dispatcher()
            await gateway.shutdown()  # drain=True flushes the queue first
            responses = await asyncio.gather(*tasks)
            return gateway, responses

        gateway, responses = run(scenario())
        assert [r.status for r in responses] == [200, 200, 200]
        with pytest.raises(RuntimeError, match="start"):
            run(gateway.handle_request("GET", "/v1/health"))

    def test_shutdown_without_drain_fails_queued_503(self):
        async def scenario():
            gateway = await started_gateway(dispatch=False)
            tasks = [
                asyncio.create_task(
                    gateway.handle_request("GET", "/v1/predict/v00")
                )
                for _ in range(2)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            await gateway.shutdown(drain=False)
            return await asyncio.gather(*tasks)

        responses = run(scenario())
        assert [r.status for r in responses] == [503, 503]

    def test_draining_gateway_rejects_new_work(self):
        async def scenario():
            gateway = await started_gateway()
            gateway._draining = True  # what shutdown() flips first
            predict = await gateway.handle_request("GET", "/v1/predict/v00")
            ingest = await gateway.handle_request(
                "POST",
                "/v1/ingest",
                json.dumps({"vehicle_id": "v00", "seconds": 1.0}).encode(),
            )
            health = await gateway.handle_request("GET", "/v1/health")
            await gateway.shutdown()
            return predict, ingest, health

        predict, ingest, health = run(scenario())
        assert predict.status == 503
        assert predict.headers["Retry-After"]
        assert ingest.status == 503
        assert health.status == 200  # observability stays up
        assert health.payload["status"] == "draining"


def _broken_factory(algorithm):
    raise RuntimeError("model store on fire")


class TestDegradedServing:
    def test_degraded_forecast_flags_body_and_header(self):
        async def scenario():
            engine = build_engine(
                breaker=CircuitBreaker(),
                predictor_factory=_broken_factory,
            )
            gateway = await started_gateway(engine=engine)
            response = await gateway.handle_request("GET", "/v1/predict/v00")
            await gateway.shutdown()
            return response

        response = run(scenario())
        assert response.status == 200
        payload = response.payload
        assert payload["degraded"] is True
        assert payload["strategy"] == "baseline"
        assert payload["fallback_reason"]
        assert response.headers[DEGRADED_HEADER] == "true"


class TestHealthAndMetrics:
    def test_health_carries_gateway_counters_and_readiness(self):
        async def scenario():
            gateway = await started_gateway()
            await gateway.handle_request("GET", "/v1/predict/v00")
            response = await gateway.handle_request("GET", "/v1/health")
            await gateway.shutdown()
            return response

        response = run(scenario())
        payload = response.payload
        assert payload["status"] == "ok"
        assert payload["readiness"]["vehicles"] == N_VEHICLES
        assert payload["readiness"]["ready"] == N_VEHICLES
        assert payload["gateway"]["requests"]["predict"] == 1
        assert "vehicles" in payload and "persist_failures" in payload

    def test_metrics_populated_after_traffic(self):
        async def scenario():
            gateway = await started_gateway()
            await asyncio.gather(
                *(
                    gateway.handle_request("GET", "/v1/predict/v00")
                    for _ in range(5)
                )
            )
            await gateway.handle_request("GET", "/v1/predict/ghost")
            response = await gateway.handle_request("GET", "/v1/metrics")
            await gateway.shutdown()
            return response

        payload = run(scenario()).payload
        # /v1/metrics now serves the consolidated registry snapshot;
        # the gateway's own counters live under the "gateway" section.
        metrics = payload["gateway"]
        assert metrics["requests"]["predict"] == 6
        assert metrics["errors"]["predict"] == 1
        assert metrics["responses"]["predict"]["200"] == 5
        assert metrics["responses"]["predict"]["404"] == 1
        latency = metrics["latency_s"]["predict"]
        assert latency["count"] == 6
        assert 0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert metrics["queue_high_water"] >= 1
        for section in ("counters", "gauges", "histograms", "fleet", "drift",
                        "kernel", "tracing", "events"):
            assert section in payload

    def test_histogram_percentiles_ordered(self):
        metrics = GatewayMetrics()
        for value in range(100):
            metrics.observe("predict", 200, value / 100.0)
        summary = metrics.snapshot()["latency_s"]["predict"]
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["p50"] == pytest.approx(0.5, abs=0.02)


class TestSocketLayer:
    """One end-to-end smoke over a real localhost socket."""

    @staticmethod
    async def _request(reader, writer, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        if body:
            head += f"Content-Length: {len(body)}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await reader.readexactly(int(headers["content-length"]))
        return status, json.loads(data)

    def test_http_round_trip_with_keep_alive(self):
        reference = serial_reference()

        async def scenario():
            gateway = FleetGateway(build_engine(), GatewayConfig(port=0))
            host, port = await gateway.serve()
            reader, writer = await asyncio.open_connection(host, port)
            predict = await self._request(
                reader, writer, "GET", "/v1/predict/v00"
            )
            ingest = await self._request(
                reader,
                writer,
                "POST",
                "/v1/ingest",
                {"vehicle_id": "v00", "seconds": 19_000.0},
            )
            health = await self._request(reader, writer, "GET", "/v1/health")
            writer.close()
            await gateway.shutdown()
            return predict, ingest, health

        predict, ingest, health = run(scenario())
        assert predict[0] == 200
        assert Forecast.from_dict(predict[1]) == reference["v00"]
        assert ingest == (200, {"ingested": 1})
        assert health[0] == 200
        assert health[1]["gateway"]["requests"]["predict"] == 1

    def test_mixed_outcome_batch_over_keep_alive(self):
        reference = serial_reference()

        async def scenario():
            gateway = FleetGateway(build_engine(), GatewayConfig(port=0))
            host, port = await gateway.serve()
            reader, writer = await asyncio.open_connection(host, port)
            batch = await self._request(
                reader,
                writer,
                "POST",
                "/v1/predict:batch",
                {"vehicle_ids": ["v01", "ghost", "v03"]},
            )
            after = await self._request(
                reader, writer, "GET", "/v1/predict/v02"
            )
            writer.close()
            await gateway.shutdown()
            return batch, after

        (status, payload), after = run(scenario())
        assert status == 200
        assert payload["errors"] == 1
        forecasts = payload["forecasts"]
        assert Forecast.from_dict(forecasts[0]) == reference["v01"]
        assert forecasts[1] == {
            "vehicle_id": "ghost",
            "error": "unknown vehicle 'ghost'",
            "status": 404,
        }
        assert Forecast.from_dict(forecasts[2]) == reference["v03"]
        # The connection stays usable after the batch.
        assert after[0] == 200
        assert Forecast.from_dict(after[1]) == reference["v02"]

    def test_malformed_request_line_400(self):
        async def scenario():
            gateway = FleetGateway(build_engine(), GatewayConfig(port=0))
            host, port = await gateway.serve()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            await gateway.shutdown()
            return status

        assert run(scenario()) == 400


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_queue": 0},
            {"default_deadline_s": 0.0},
            {"drain_timeout_s": -1.0},
            {"max_body_bytes": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)


class TestEngineHooks:
    def test_readiness_counts_ready_vehicles(self):
        engine = build_engine()
        engine.service.register_vehicle("young")  # zero observed days
        readiness = engine.readiness()
        assert readiness["vehicles"] == N_VEHICLES + 1
        assert readiness["ready"] == N_VEHICLES
        assert readiness["inflight"] == 0

    def test_drain_returns_when_idle(self):
        engine = build_engine()
        assert engine.drain(timeout=0.5) is True
