"""Deferred training: every forest a read batch must train grows in one
fused pass, and the batch serves exactly what serial reads serve.

Routing queues each row to train once per scope (``per-vehicle:<vid>``,
``sim:<donor>``, ``uni:<donor set>``); ``predict_batch`` then fits the
queue in one level-wise pass and installs the rows in queue order.  A
row whose fit fails is charged to the first vehicle that routed to it,
which re-routes one rung down; the others ask for the row again, so
each failed fit is one breaker failure.
"""

import pickle

import pytest

from repro.learn import forest as forest_module
from repro.serving.engine import FleetEngine
from repro.serving.faults import InjectedFault
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0


def fleet() -> dict[str, list[float]]:
    """Six OLD vehicles (two completed cycles each) and two SEMI-NEW
    ones matched to the same donor."""
    usage = {
        f"old{i}": [15_000.0 + 1_300.0 * i + 700.0 * (d % 3) for d in range(32)]
        for i in range(6)
    }
    usage["semi0"] = [19_000.0] * 7
    usage["semi1"] = [19_500.0] * 7
    return usage


def make_service(
    usage, algorithm="RF", **kwargs
) -> MaintenancePredictionService:
    service = MaintenancePredictionService(
        t_v=T_V, window=2, algorithm=algorithm, **kwargs
    )
    for vid in sorted(usage):
        service.register_vehicle(vid)
        service.ingest_series(vid, usage[vid])
    return service


@pytest.fixture
def grow_passes(monkeypatch) -> list[int]:
    """Trees per ``fit_trees`` call made from now on."""
    calls = []
    fit_trees = forest_module.fit_trees

    def counted(trees, X, y, bags):
        calls.append(len(trees))
        return fit_trees(trees, X, y, bags)

    monkeypatch.setattr(forest_module, "fit_trees", counted)
    return calls


def models(service) -> dict[str, bytes]:
    return {
        scope: pickle.dumps(entry.predictor)
        for scope, entry in sorted(service._models.items())
    }


class TestOneGrowPass:
    def test_cold_batch_grows_once_and_equals_serial_reads(self, grow_passes):
        usage = fleet()
        serial = make_service(usage)
        expected = [serial.predict(vid) for vid in serial.vehicle_ids]
        serial_passes = len(grow_passes)
        grow_passes.clear()

        batched = make_service(usage)
        got = batched.predict_batch(batched.vehicle_ids)
        # Six per-vehicle forests and the targets' shared Model_Sim.
        assert len(grow_passes) == 1
        assert serial_passes == len(batched._models) == 7
        assert got == expected
        assert models(batched) == models(serial)

    def test_cold_xgb_batch_equals_serial_reads(self, grow_passes):
        """Boosted rows cannot fuse: the batch fits them one at a time,
        in the order routing queued them, and serves what serial reads
        serve."""
        usage = fleet()
        serial = make_service(usage, algorithm="XGB")
        expected = [serial.predict(vid) for vid in serial.vehicle_ids]
        batched = make_service(usage, algorithm="XGB")
        assert batched.predict_batch(batched.vehicle_ids) == expected
        assert len(batched._models) == 7
        assert models(batched) == models(serial)
        assert grow_passes == []

    def test_warm_batch_trains_nothing(self, grow_passes):
        service = make_service(fleet())
        first = service.predict_batch(service.vehicle_ids)
        grow_passes.clear()
        assert service.predict_batch(service.vehicle_ids) == first
        assert grow_passes == []

    def test_duplicate_ids_share_one_fit(self, grow_passes):
        service = make_service(fleet())
        a, b = service.predict_batch(["old0", "old0"])
        assert a == b
        assert grow_passes == [60]  # one 60-tree forest


class TestDeferredFailures:
    def stale_engine(self, tmp_path):
        service = make_service(
            {f"v{i}": [18_000.0 + 1_000.0 * i] * 40 for i in range(4)},
            store=ModelStore(tmp_path),
            breaker=CircuitBreaker(),
        )
        engine = FleetEngine(service)
        assert all(f.model_version == 1 for f in engine.predict_all())
        for _ in range(15):  # one more completed cycle: every model stale
            engine.ingest_day({v: 20_000.0 for v in service.vehicle_ids})
        return engine, service

    def test_failure_is_charged_to_its_vehicle_only(
        self, tmp_path, monkeypatch
    ):
        engine, service = self.stale_engine(tmp_path)
        ids = service.vehicle_ids
        champions = {v: service.champion(v).predictor for v in ids}
        failing = {"v1", "v2"}
        build = service._vehicle_dataset

        def faulty_build(vehicle_id):
            if vehicle_id in failing:
                raise InjectedFault(f"train {vehicle_id}")
            return build(vehicle_id)

        monkeypatch.setattr(service, "_vehicle_dataset", faulty_build)
        forecasts = {f.vehicle_id: f for f in engine.predict_all()}
        for vehicle_id in ids:
            failed = vehicle_id in failing
            champion = service.champion(vehicle_id)
            assert (champion.predictor is champions[vehicle_id]) == failed
            assert champion.version == (1 if failed else 2)
            assert service.store.versions(f"{vehicle_id}.per-vehicle") == (
                [1] if failed else [1, 2]
            )
            assert service.breaker.failure_count(
                f"{vehicle_id}:per-vehicle"
            ) == int(failed)
            forecast = forecasts[vehicle_id]
            assert forecast.degraded == failed
            if failed:
                assert "per-vehicle: InjectedFault" in forecast.fallback_reason
                assert forecast.strategy == "similarity"

    def test_without_a_breaker_the_first_failure_raises(self, monkeypatch):
        service = make_service(fleet())
        build = service._vehicle_dataset

        def faulty_build(vehicle_id):
            if vehicle_id == "old2":
                raise InjectedFault("train old2")
            return build(vehicle_id)

        monkeypatch.setattr(service, "_vehicle_dataset", faulty_build)
        with pytest.raises(InjectedFault):
            service.predict_batch(["old0", "old1", "old2", "old3"])
        # Rows queued before the failure installed; nothing stays queued.
        assert service.champion("old1").predictor is not None
        assert service.champion("old3").predictor is None
        assert service._queued == {}
        monkeypatch.undo()
        assert service.predict("old3").strategy == "per-vehicle"

    def test_shared_row_failure_is_charged_to_every_target(self, monkeypatch):
        # Both targets route to one Model_Sim row, then to one Model_Uni.
        from repro.serving import service as service_module

        service = make_service(fleet(), breaker=CircuitBreaker())
        service.predict_batch([f"old{i}" for i in range(6)])

        def no_first_cycle(*_args):
            raise InjectedFault("first cycle")

        # Model_Sim and Model_Uni both train on donors' first cycles.
        monkeypatch.setattr(service_module, "first_cycle_dataset", no_first_cycle)
        forecasts = service.predict_batch(["semi0", "semi1"])
        for forecast in forecasts:
            assert forecast.strategy == "baseline"
            assert forecast.fallback_reason.count("InjectedFault") == 2
            for rung in ("similarity", "unified"):
                assert service.breaker.failure_count(
                    f"{forecast.vehicle_id}:{rung}"
                ) == 1
        assert not any(
            scope.startswith(("sim:", "uni:")) for scope in service._models
        )

    def test_shared_row_failure_is_retried_for_the_next_target(
        self, monkeypatch
    ):
        # One injected fault: the first target is charged and steps
        # down, the second asks again and is served by the retrained row.
        from repro.serving import service as service_module

        service = make_service(fleet(), breaker=CircuitBreaker())
        service.predict_batch([f"old{i}" for i in range(6)])
        first_cycle = service_module.first_cycle_dataset
        faults = []

        def fails_once(*args):
            if not faults:
                faults.append(1)
                raise InjectedFault("first cycle")
            return first_cycle(*args)

        monkeypatch.setattr(service_module, "first_cycle_dataset", fails_once)
        semi0, semi1 = service.predict_batch(["semi0", "semi1"])
        assert (semi0.strategy, semi0.degraded) == ("unified", True)
        assert (semi1.strategy, semi1.degraded) == ("similarity", False)
        assert service.breaker.failure_count() == len(faults) == 1
        monkeypatch.undo()
        assert service.predict("semi0").strategy == "similarity"
