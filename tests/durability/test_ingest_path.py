"""One ingest path: one journal record per request, every ack durable.

Every ingest entry point — a gateway post, a fleet day, a backfill, a
single reading — journals exactly one ``day`` record (plus the
registrations it makes) and fsyncs it before it returns, so
``durable_seq == last_seq`` whenever a caller could send an ack.
Replay maps that record, and the per-reading ``ingest`` / per-backfill
``series`` records of older journals, back onto the same code path.
"""

import asyncio
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durability import (
    DurabilityConfig,
    RecoveryManager,
    WriteAheadJournal,
)
from repro.serving import FleetEngine, IngestionGuard
from repro.serving.gateway import FleetGateway, GatewayConfig
from repro.serving.service import MaintenancePredictionService
from repro.serving.sharding import ShardedFleetEngine

T_V = 200_000.0
IDS = ["v00", "v01", "v02"]


def _service(guarded: bool) -> MaintenancePredictionService:
    return MaintenancePredictionService(
        t_v=T_V,
        window=0,
        algorithm="LR",
        guard=IngestionGuard() if guarded else None,
    )


def _snapshot(service) -> str:
    # JSON text: dead letters may hold NaN, which breaks == on dicts.
    return json.dumps(service.state_dict(), sort_keys=True)


def _post(gateway, readings):
    body = json.dumps({"readings": readings}).encode()
    return gateway.handle_request("POST", "/v1/ingest", body)


# Posts of an unguarded fleet: clean, auto-registering, a dirty reading
# mid-batch (422 after a prefix), and a dirty first reading (422, none).
POSTS = [
    [{"vehicle_id": "v00", "seconds": 20_000.0, "day": 0},
     {"vehicle_id": "v01", "seconds": 21_000.0, "day": 0}],
    [{"vehicle_id": "new-a", "seconds": 9_000.0},
     {"vehicle_id": "v02", "seconds": 19_000.0, "day": 0},
     {"vehicle_id": "new-b", "seconds": 8_000.0, "day": 1}],
    [{"vehicle_id": "v00", "seconds": 22_000.0, "day": 1},
     {"vehicle_id": "new-c", "seconds": -5.0},
     {"vehicle_id": "new-d", "seconds": 1_000.0}],
    [{"vehicle_id": "v01", "seconds": float("inf")}],
]
STATUSES = [200, 200, 422, 422]
INGESTED = [2, 3, 1, 0]
REGISTERED = [0, 2, 1, 0]  # new-d sits past the failure: not registered


class TestGatewayAcksAreDurable:
    def test_every_post_is_one_synced_record(self, tmp_path):
        engine = FleetEngine(_service(guarded=False))
        engine.register_fleet(IDS)
        manager = RecoveryManager(tmp_path / "state", engine.service)
        manager.recover()
        engine.attach_durability(manager)
        journal = manager.journal

        async def scenario():
            gateway = FleetGateway(engine, GatewayConfig())
            await gateway.start()
            try:
                for readings, status, ingested, registered in zip(
                    POSTS, STATUSES, INGESTED, REGISTERED
                ):
                    before = journal.last_seq
                    response = await _post(gateway, readings)
                    assert response.status == status, response.payload
                    assert response.payload["ingested"] == ingested
                    assert journal.durable_seq == journal.last_seq
                    kinds = [
                        r.kind for r in journal.replay(after_seq=before)
                    ]
                    assert kinds == ["register"] * registered + ["day"]
            finally:
                await gateway.shutdown()

        asyncio.run(scenario())
        assert not engine.service.has_vehicle("new-d")
        expected = _snapshot(engine.service)
        manager.close(checkpoint=False)

        recovered = RecoveryManager(tmp_path / "state", _service(False))
        recovered.recover()
        assert _snapshot(recovered.service) == expected
        recovered.close()

    def test_two_shard_pool_acks_are_durable(self, tmp_path):
        pool = ShardedFleetEngine(
            2,
            t_v=T_V,
            window=0,
            algorithm="LR",
            durable_dir=tmp_path / "state",
        )

        def journals():
            shards = pool.durability.status()["shards"]
            return [shards[str(i)]["journal"] for i in range(2)]

        def expected_records(readings, known) -> dict[int, int]:
            """Per shard: one record plus the registrations it makes,
            for the readings a single engine reaches (up to and
            including the first dirty one)."""
            dirty = [
                i for i, r in enumerate(readings)
                if not 0 <= r["seconds"] <= 86_400
            ]
            added: dict[int, int] = {}
            for r in readings[: dirty[0] + 1] if dirty else readings:
                shard = pool.shard_for(r["vehicle_id"])
                added[shard] = added.get(shard, 1)
                if r["vehicle_id"] not in known:
                    known.add(r["vehicle_id"])
                    added[shard] += 1
            return added

        async def scenario():
            gateway = FleetGateway(pool, GatewayConfig())
            await gateway.start()
            known = set(IDS)
            try:
                for readings, status, ingested, registered in zip(
                    POSTS, STATUSES, INGESTED, REGISTERED
                ):
                    before = journals()
                    response = await _post(gateway, readings)
                    assert response.status == status, response.payload
                    assert response.payload["ingested"] == ingested
                    expected = expected_records(readings, known)
                    assert sum(expected.values()) == len(expected) + registered
                    for shard, (old, new) in enumerate(
                        zip(before, journals())
                    ):
                        assert new["durable_seq"] == new["last_seq"]
                        added = new["last_seq"] - old["last_seq"]
                        assert added == expected.get(shard, 0)
            finally:
                await gateway.shutdown()

        try:
            pool.register_fleet(IDS)
            asyncio.run(scenario())
            # new-d sits past the failure: no shard registers it.
            assert not pool.has_vehicle("new-d")
            for health in pool.scatter("health"):
                assert "new-d" not in health.vehicles
        finally:
            pool.close()


class TestFailureContracts:
    """What a failing request leaves behind, journaled or not."""

    def _durable_engine(self, tmp_path, guarded=False):
        engine = FleetEngine(_service(guarded))
        engine.register_fleet(IDS)
        manager = RecoveryManager(tmp_path / "state", engine.service)
        manager.recover()
        engine.attach_durability(manager)
        return engine, manager.journal

    def test_ingest_day_unknown_id_raises_before_journaling(self, tmp_path):
        engine, journal = self._durable_engine(tmp_path)
        before = (journal.last_seq, _snapshot(engine.service))
        for batch in (
            {"v00": 1.0, "v01": 2.0, "ghost": 3.0},  # fleet-sized
            {"v00": 1.0, "ghost": 3.0},
        ):
            with pytest.raises(KeyError, match="ghost"):
                engine.ingest_day(batch, day=0)
        assert (journal.last_seq, _snapshot(engine.service)) == before

    def test_ingest_series_rejects_everything_without_guard(self, tmp_path):
        engine, journal = self._durable_engine(tmp_path)
        before = (journal.last_seq, _snapshot(engine.service))
        with pytest.raises(ValueError, match="element 2"):
            engine.service.ingest_series("v00", [1.0, 2.0, -3.0, 4.0])
        assert (journal.last_seq, _snapshot(engine.service)) == before

    def test_ingest_records_keeps_the_prefix(self, tmp_path):
        engine, journal = self._durable_engine(tmp_path)
        ingested, error = engine.ingest_records(
            [("v00", 1.0, None), ("v01", 2.0, None), ("v02", -1.0, None),
             ("v00", 4.0, None)]
        )
        assert ingested == 2 and "86400" in error
        assert [engine.service.n_days(v) for v in IDS] == [1, 1, 0]
        ingested, error = engine.ingest_records(
            [("v02", 5.0, None), ("ghost", 6.0, None)], auto_register=False
        )
        assert (ingested, error) == (1, "unknown vehicle 'ghost'")
        assert journal.durable_seq == journal.last_seq


# -- recovery equivalence over mixed requests ------------------------------

_VEHICLE = st.sampled_from(IDS + ["x0", "x1"])  # x*: not registered
_SECONDS = st.one_of(
    st.floats(0.0, 86_400.0),
    st.sampled_from([float("nan"), -1.0, 90_000.0]),
)
_DAY = st.one_of(st.none(), st.integers(0, 40))
_REQUEST = st.one_of(
    st.tuples(
        st.just("records"),
        st.lists(st.tuples(_VEHICLE, _SECONDS, _DAY), min_size=1, max_size=5),
        st.booleans(),
    ),
    st.tuples(
        st.just("day"),
        st.dictionaries(_VEHICLE, _SECONDS, min_size=1, max_size=5),
        _DAY,
    ),
    st.tuples(
        st.just("series"),
        _VEHICLE,
        st.lists(_SECONDS, max_size=6),
        _DAY,
    ),
    st.tuples(st.just("reading"), _VEHICLE, _SECONDS, _DAY),
)


def _apply(engine, request) -> None:
    kind = request[0]
    try:
        if kind == "records":
            engine.ingest_records(request[1], auto_register=request[2])
        elif kind == "day":
            engine.ingest_day(request[1], day=request[2])
        elif kind == "series":
            engine.service.ingest_series(
                request[1], request[2], start_day=request[3]
            )
        else:
            engine.service.ingest(request[1], request[2], day=request[3])
    except (KeyError, ValueError):
        pass


class TestRecoveryEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        guarded=st.booleans(),
        requests=st.lists(_REQUEST, min_size=1, max_size=12),
    )
    def test_recovered_state_equals_live_state(self, guarded, requests):
        with tempfile.TemporaryDirectory() as tmp:
            state = Path(tmp) / "state"
            engine = FleetEngine(_service(guarded))
            engine.register_fleet(IDS)
            manager = RecoveryManager(
                state,
                engine.service,
                config=DurabilityConfig(checkpoint_every=7),
            )
            manager.recover()
            engine.attach_durability(manager)
            for request in requests:
                _apply(engine, request)
                assert manager.journal.durable_seq == manager.journal.last_seq
            expected = _snapshot(engine.service)
            manager.close(checkpoint=False)

            recovered = RecoveryManager(state, _service(guarded))
            recovered.recover()
            assert _snapshot(recovered.service) == expected
            recovered.close(checkpoint=False)


class TestOlderRecordKinds:
    """Journals written before one record per request still recover."""

    def test_ingest_series_and_day_records_replay(self, tmp_path):
        values = np.array([20_000.0, float("nan"), 21_000.0])
        with WriteAheadJournal(tmp_path / "state" / "journal") as journal:
            for vehicle_id in IDS:
                journal.append("register", v=vehicle_id)
            journal.append("series", v="v00", u=values, d0=0)
            journal.append("series", v="v01", u=values[[0, 2]])
            journal.append("ingest", v="v02", s=19_000.0, d=0)
            journal.append("ingest", v="v02", s=float("nan"), d=1)
            journal.append("ingest", v="ghost", s=1.0)
            journal.append("day", u=np.array([1.0, 2.0, 3.0]), d=3)
            journal.append(
                "day", vs=["v00", "v02"], u=np.array([4.0, -1.0])
            )
        recovered = RecoveryManager(tmp_path / "state", _service(True))
        report = recovered.recover()
        assert report.replay_errors == 1  # the unregistered "ghost"

        live = FleetEngine(_service(True))
        live.register_fleet(IDS)
        live.service.ingest_series("v00", values, start_day=0)
        live.service.ingest_series("v01", values[[0, 2]])
        live.service.ingest("v02", 19_000.0, day=0)
        live.service.ingest("v02", float("nan"), day=1)
        live.ingest_day({"v00": 1.0, "v01": 2.0, "v02": 3.0}, day=3)
        live.ingest_day({"v00": 4.0, "v02": -1.0})
        assert _snapshot(recovered.service) == _snapshot(live.service)
        recovered.close()
