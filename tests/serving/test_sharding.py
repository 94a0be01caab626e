"""Sharded serving suite: routing properties, pool equivalence, gateway.

The sharding contract has three layers:

* the consistent-hash router is **total** (every string routes),
  **deterministic** across processes and ``PYTHONHASHSEED`` values,
  and **stable** for a fixed shard count — growing the ring moves only
  keys claimed by the new shard;
* a :class:`ShardedFleetEngine` over an all-OLD fleet produces
  forecasts **bit-identical** to the serial single-engine path (OLD
  vehicles serve per-vehicle models, so partitioning the fleet cannot
  change any forecast input);
* the gateway scatter-gathers fleet-wide endpoints across every shard
  and routes per-vehicle traffic to the owning lane.
"""

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.serving import FleetEngine, FleetGateway, GatewayConfig
from repro.serving.sharding import (
    ShardRouter,
    ShardedFleetEngine,
    merge_fleet_health,
)

T_V = 50_000.0
WINDOW = 2
DAYS = 12  # 12 days x ~10k usage >> t_v, so every vehicle is OLD


def _fleet(n=12, seed=5):
    rng = np.random.default_rng(seed)
    ids = [f"veh-{i:03d}" for i in range(n)]
    return ids, {v: rng.uniform(8_000, 12_000, size=DAYS) for v in ids}


def _build_serial(ids, usage):
    engine = FleetEngine(t_v=T_V, window=WINDOW, algorithm="LR")
    engine.register_fleet(ids)
    for vehicle_id in ids:
        engine.ingest_history(vehicle_id, usage[vehicle_id])
    return engine


def _build_pool(ids, usage, n_shards, **kwargs):
    pool = ShardedFleetEngine(
        n_shards, t_v=T_V, window=WINDOW, algorithm="LR", **kwargs
    )
    pool.register_fleet(ids)
    for vehicle_id in ids:
        pool.ingest_history(vehicle_id, usage[vehicle_id])
    return pool


class TestShardRouter:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="replicas"):
            ShardRouter(2, replicas=0)

    def test_routing_is_total_and_in_range(self):
        router = ShardRouter(5)
        ids = [f"v{i}" for i in range(500)]
        ids += ["", " ", "véhicule-Ω", "a" * 300, "\x00\x01", "v1/v2"]
        for vehicle_id in ids:
            assert 0 <= router.shard_for(vehicle_id) < 5

    def test_routing_is_deterministic_within_process(self):
        first = ShardRouter(4)
        second = ShardRouter(4)
        for i in range(300):
            vehicle_id = f"veh-{i}"
            assert first.shard_for(vehicle_id) == second.shard_for(vehicle_id)

    def test_routing_uses_every_shard(self):
        router = ShardRouter(4)
        owners = {router.shard_for(f"veh-{i}") for i in range(400)}
        assert owners == {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", ["0", "42", "random"])
    def test_routing_stable_across_hash_seeds(self, seed):
        # The ring is keyed by BLAKE2, never by str.__hash__, so a
        # subprocess with a different PYTHONHASHSEED must route every
        # vehicle identically.
        script = (
            "import json, sys\n"
            "from repro.serving.sharding import ShardRouter\n"
            "router = ShardRouter(4)\n"
            "print(json.dumps({v: router.shard_for(v)"
            " for v in sys.argv[1:]}))\n"
        )
        ids = [f"veh-{i:03d}" for i in range(64)] + ["Ω", "truck/7"]
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script, *ids],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        local = ShardRouter(4)
        assert json.loads(out.stdout) == {
            vehicle_id: local.shard_for(vehicle_id) for vehicle_id in ids
        }

    def test_growing_the_ring_moves_only_keys_to_the_new_shard(self):
        # Consistent hashing: adding shard N leaves every key either on
        # its old shard or on the new one — and claims a nonzero,
        # bounded slice.
        ids = [f"veh-{i:04d}" for i in range(2000)]
        before = ShardRouter(4)
        after = ShardRouter(5)
        moved = 0
        for vehicle_id in ids:
            old = before.shard_for(vehicle_id)
            new = after.shard_for(vehicle_id)
            if new != old:
                assert new == 4, (vehicle_id, old, new)
                moved += 1
        assert 0 < moved < len(ids) // 2

    def test_partition_groups_by_owner_preserving_order(self):
        router = ShardRouter(3)
        ids = [f"veh-{i}" for i in range(30)]
        groups = router.partition(ids)
        assert sorted(v for ids_ in groups.values() for v in ids_) == sorted(
            ids
        )
        for shard, members in groups.items():
            assert [v for v in ids if router.shard_for(v) == shard] == members


class TestShardedFleetEngine:
    def test_forecasts_bit_identical_to_serial(self):
        ids, usage = _fleet()
        serial = _build_serial(ids, usage)
        reference = {
            f.vehicle_id: f.to_dict() for f in serial.predict_many(ids)
        }
        with _build_pool(ids, usage, 3) as pool:
            forecasts = pool.predict_many(ids)
            assert [f.vehicle_id for f in forecasts] == sorted(ids)
            for forecast in forecasts:
                assert forecast.to_dict() == reference[forecast.vehicle_id]
            # predict_all over the same fleet: same forecasts again.
            for forecast in pool.predict_all():
                assert forecast.to_dict() == reference[forecast.vehicle_id]

    def test_single_shard_pool_matches_serial(self):
        ids, usage = _fleet(n=6)
        serial = _build_serial(ids, usage)
        reference = [f.to_dict() for f in serial.predict_many(ids)]
        with _build_pool(ids, usage, 1) as pool:
            assert [
                f.to_dict() for f in pool.predict_many(ids)
            ] == reference

    def test_parent_bookkeeping_tracks_workers(self):
        ids, usage = _fleet(n=8)
        with _build_pool(ids, usage, 3) as pool:
            assert pool.vehicle_ids == sorted(ids)
            assert all(pool.n_days(v) == DAYS for v in ids)
            assert not pool.has_vehicle("veh-999")
            pool.ingest_day({v: 9_000.0 for v in ids})
            assert all(pool.n_days(v) == DAYS + 1 for v in ids)
            ingested, error = pool.ingest_records(
                [("veh-999", 9_500.0, None), (ids[0], 9_500.0, None)]
            )
            assert ingested == 2 and error is None
            assert pool.has_vehicle("veh-999")
            assert pool.n_days("veh-999") == 1
            assert pool.n_days(ids[0]) == DAYS + 2

    def test_guarded_drop_keeps_bookkeeping_authoritative(self):
        # A NaN reading is screened by the per-shard IngestionGuard and
        # never lands; the parent's day count must come from the worker
        # (a parent-side increment would drift and poison admission
        # control with false 200s).
        ids, usage = _fleet(n=4)
        with _build_pool(ids, usage, 2, resilient=True) as pool:
            ingested, error = pool.ingest_records(
                [(ids[0], float("nan"), None)]
            )
            assert error is None
            assert pool.n_days(ids[0]) == DAYS  # dropped, not counted

    def test_health_and_metrics_merge_across_shards(self):
        ids, usage = _fleet(n=9)
        with _build_pool(ids, usage, 3) as pool:
            pool.predict_many(ids)
            health = pool.health()
            assert sorted(health.vehicles) == sorted(ids)
            readiness = pool.readiness()
            assert readiness["vehicles"] == len(ids)
            assert readiness["ready"] == len(ids)
            assert set(readiness["shards"]) == {"0", "1", "2"}
            assert "cache" not in readiness
            sections = pool.metrics_sections()
            assert len(sections) == 3
            assert sum(s["fleet"]["vehicles"] for s in sections) == len(ids)

    def test_rejects_factory_with_service_kwargs(self):
        with pytest.raises(ValueError, match="service_kwargs"):
            ShardedFleetEngine(2, lambda shard: None, t_v=T_V)

    def test_close_is_idempotent(self):
        ids, usage = _fleet(n=4)
        pool = _build_pool(ids, usage, 2)
        assert pool.drain(5.0)
        pool.close()
        pool.close()
        assert all(not worker.process.is_alive() for worker in pool.workers)

    def test_durable_partitions_recover_per_shard(self, tmp_path):
        ids, usage = _fleet(n=6)
        state_dir = tmp_path / "state"
        pool = _build_pool(ids, usage, 2, durable_dir=state_dir)
        try:
            pool.ingest_day({v: 9_100.0 for v in ids})
            assert pool.durability.ready
            status = pool.durability.status()
            assert set(status["shards"]) == {"0", "1"}
        finally:
            pool.close()  # checkpoints each partition
        assert (state_dir / "shard-00").is_dir()
        assert (state_dir / "shard-01").is_dir()
        recovered = ShardedFleetEngine(
            2, t_v=T_V, window=WINDOW, algorithm="LR", durable_dir=state_dir
        )
        try:
            assert recovered.vehicle_ids == sorted(ids)
            assert all(recovered.n_days(v) == DAYS + 1 for v in ids)
        finally:
            recovered.close()

    def test_merge_fleet_health_unions_disjoint_reports(self):
        ids, usage = _fleet(n=6)
        serial = _build_serial(ids, usage)
        whole = serial.health()
        half_a = _build_serial(ids[:3], usage).health()
        half_b = _build_serial(ids[3:], usage).health()
        merged = merge_fleet_health([half_a, half_b])
        assert sorted(merged.vehicles) == sorted(whole.vehicles)


class TestShardedGateway:
    def _run(self, coro):
        asyncio.run(coro)

    def test_predicts_route_and_match_serial(self):
        ids, usage = _fleet(n=10)
        serial = _build_serial(ids, usage)
        reference = {
            f.vehicle_id: f.to_dict() for f in serial.predict_many(ids)
        }
        pool = _build_pool(ids, usage, 3)

        async def scenario():
            gateway = FleetGateway(pool, GatewayConfig())
            await gateway.start()
            try:
                response = await gateway.handle_request(
                    "GET", f"/v1/predict/{ids[0]}"
                )
                assert response.status == 200
                assert response.payload == reference[ids[0]]
                body = json.dumps({"vehicle_ids": ids}).encode()
                response = await gateway.handle_request(
                    "POST", "/v1/predict:batch", body
                )
                assert response.status == 200
                assert response.payload["errors"] == 0
                for forecast in response.payload["forecasts"]:
                    assert forecast == reference[forecast["vehicle_id"]]
                response = await gateway.handle_request(
                    "GET", "/v1/predict/veh-999"
                )
                assert response.status == 404
            finally:
                await gateway.shutdown()

        try:
            self._run(scenario())
        finally:
            pool.close()

    def test_scatter_gather_admin_endpoints(self):
        ids, usage = _fleet(n=8)
        pool = _build_pool(ids, usage, 4, lifecycle=True)

        async def scenario():
            gateway = FleetGateway(pool, GatewayConfig())
            await gateway.start()
            try:
                for path in ("/v1/health", "/v1/fleet/health"):
                    response = await gateway.handle_request("GET", path)
                    assert response.status == 200
                    assert response.payload["shards"] == 4
                    assert sorted(response.payload["vehicles"]) == sorted(
                        ids
                    )
                    assert set(
                        response.payload["readiness"]["shards"]
                    ) == {"0", "1", "2", "3"}
                response = await gateway.handle_request(
                    "GET", "/v1/metrics"
                )
                assert response.status == 200
                snapshot = response.payload
                assert set(snapshot["shard_sections"]) == {
                    "0", "1", "2", "3"
                }
                assert snapshot["fleet"]["vehicles"] == len(ids)
                response = await gateway.handle_request(
                    "GET", "/v1/lifecycle"
                )
                assert response.status == 200
                assert set(response.payload["shards"]) == {
                    "0", "1", "2", "3"
                }
                response = await gateway.handle_request(
                    "POST", f"/v1/lifecycle/{ids[0]}/promote"
                )
                assert response.status == 200
                response = await gateway.handle_request(
                    "POST", "/v1/lifecycle/veh-999/promote"
                )
                assert response.status == 404
            finally:
                await gateway.shutdown()

        try:
            self._run(scenario())
        finally:
            pool.close()

    def test_ingest_scatters_and_unlocks_prediction(self):
        ids, usage = _fleet(n=6)
        pool = _build_pool(ids, usage, 2)

        async def scenario():
            gateway = FleetGateway(pool, GatewayConfig())
            await gateway.start()
            try:
                readings = [
                    {"vehicle_id": v, "seconds": 9_000.0} for v in ids
                ] + [{"vehicle_id": "veh-new", "seconds": 9_000.0}]
                response = await gateway.handle_request(
                    "POST",
                    "/v1/ingest",
                    json.dumps({"readings": readings}).encode(),
                )
                assert response.status == 200
                assert response.payload["ingested"] == len(readings)
                assert pool.n_days("veh-new") == 1
                # A vehicle below window+1 days is rejected at admission
                # using the parent's bookkeeping, no worker round trip.
                response = await gateway.handle_request(
                    "GET", "/v1/predict/veh-new"
                )
                assert response.status == 422
            finally:
                await gateway.shutdown()

        try:
            self._run(scenario())
        finally:
            pool.close()

    def test_shard_labels_on_batch_metrics(self):
        ids, usage = _fleet(n=8)
        pool = _build_pool(ids, usage, 2)

        async def scenario():
            gateway = FleetGateway(pool, GatewayConfig())
            await gateway.start()
            try:
                body = json.dumps({"vehicle_ids": ids}).encode()
                response = await gateway.handle_request(
                    "POST", "/v1/predict:batch", body
                )
                assert response.status == 200
                shard_stats = gateway.metrics.snapshot()["shards"]
                assert set(shard_stats) == {"0", "1"}
                assert (
                    sum(
                        entry["batch_sizes"]["count"]
                        for entry in shard_stats.values()
                    )
                    > 0
                )
            finally:
                await gateway.shutdown()

        try:
            self._run(scenario())
        finally:
            pool.close()
