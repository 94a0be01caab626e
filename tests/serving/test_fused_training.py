"""Fused training at ingest: every forest an ingest request makes stale
grows in one fused pass, and the result serves exactly what serial
per-vehicle ingests serve.

The end of each ingest request wants one row per scope
(``per-vehicle:<vid>``, ``sim:<donor>``, ``uni``), fits
them in one level-wise pass and installs them in order.  A failed fit
is deferred to the read: the ingest succeeds (its readings are durable)
and the failure is charged once, to the first vehicle that asked for
the row; reads routed to the row step down with its reason, and the
next ingest that asks for it retries.
"""

import pickle

import pytest

from repro.learn import forest as forest_module
from repro.serving import service as service_module
from repro.serving.engine import FleetEngine
from repro.serving.faults import InjectedFault
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0
OLD = [f"old{i}" for i in range(6)]


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
    """A service fed one ingest request per vehicle, in id order."""
    service = MaintenancePredictionService(
        t_v=T_V, window=2, algorithm=algorithm, **kwargs
    )
    for vid in sorted(usage):
        service.register_vehicle(vid)
        service.ingest_series(vid, usage[vid])
    return service


def ingest_at_once(service, usage) -> None:
    """Register ``usage``'s vehicles and ingest it as one request."""
    ids = sorted(usage)
    for vid in ids:
        service.register_vehicle(vid)
    service.ingest_batch(
        [vid for vid in ids for _ in usage[vid]],
        [value for vid in ids for value in usage[vid]],
    )


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

        batched = MaintenancePredictionService(t_v=T_V, window=2)
        ingest_at_once(batched, usage)
        # Six per-vehicle forests and the targets' shared Model_Sim.
        assert len(grow_passes) == 1
        assert serial_passes == len(batched._models) == 7
        assert batched.predict_batch(batched.vehicle_ids) == expected
        assert len(grow_passes) == 1
        assert models(batched) == models(serial)

    def test_cold_xgb_batch_equals_serial_reads(self, grow_passes):
        """Boosted rows cannot fuse: the request fits them one at a
        time, in the order it wanted them, and serves what serial
        ingests serve."""
        usage = fleet()
        serial = make_service(usage, algorithm="XGB")
        expected = [serial.predict(vid) for vid in serial.vehicle_ids]
        batched = MaintenancePredictionService(
            t_v=T_V, window=2, algorithm="XGB"
        )
        ingest_at_once(batched, usage)
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
        grow_passes.clear()
        # Two readings of one vehicle that close its third cycle.
        service.ingest_batch(["old0", "old0"], [86_400.0, 86_400.0])
        assert grow_passes == [60]  # one 60-tree forest
        a, b = service.predict_batch(["old0", "old0"])
        assert a == b
        assert grow_passes == [60]


class TestDeferredFailures:
    def stale_engine(self, tmp_path):
        service = make_service(
            {f"v{i}": [18_000.0 + 1_000.0 * i] * 40 for i in range(4)},
            store=ModelStore(tmp_path),
            breaker=CircuitBreaker(),
        )
        engine = FleetEngine(service)
        assert all(f.model_version == 1 for f in engine.predict_all())
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
        # One more completed cycle in one request: every model stale.
        applied, error = service.ingest_batch(ids * 15, [20_000.0] * 60)
        assert (applied, error) == (60, None)
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
                # An OLD vehicle's fallback rungs are not trained ahead.
                assert forecast.strategy == "baseline"

    def test_without_a_breaker_the_first_failure_raises(self, monkeypatch):
        service = MaintenancePredictionService(t_v=T_V, window=2)
        build = service._vehicle_dataset

        def faulty_build(vehicle_id):
            if vehicle_id == "old2":
                raise InjectedFault("train old2")
            return build(vehicle_id)

        monkeypatch.setattr(service, "_vehicle_dataset", faulty_build)
        usage = fleet()
        ingest_at_once(service, usage)  # the readings apply: no raise
        assert all(service.n_days(v) == len(usage[v]) for v in usage)
        with pytest.raises(InjectedFault):
            service.predict_batch(["old0", "old1", "old2", "old3"])
        # Every other row trained at the ingest.
        assert service.champion("old3").predictor is not None
        assert service.champion("old2").predictor is None
        monkeypatch.undo()
        service.ingest("old2", 20_000.0)  # the next ingest retries
        assert service.predict("old2").strategy == "per-vehicle"

    def test_shared_row_failure_is_charged_once(self, monkeypatch):
        # Both targets route to one Model_Sim row, then to the Model_Uni
        # that the NEW vehicle needs.
        usage = fleet()
        service = make_service(
            {vid: usage[vid] for vid in OLD}, breaker=CircuitBreaker()
        )

        def no_first_cycle(*_args):
            raise InjectedFault("first cycle")

        # Model_Sim and Model_Uni both train on donors' first cycles.
        monkeypatch.setattr(service_module, "first_cycle_dataset", no_first_cycle)
        ingest_at_once(
            service,
            {
                "new0": [5_000.0] * 4,
                "semi0": usage["semi0"],
                "semi1": usage["semi1"],
            },
        )
        breaker = service.breaker
        assert breaker.failure_count() == 2  # two failed fits
        assert breaker.failure_count("semi0:similarity") == 1
        assert breaker.failure_count("new0:unified") == 1
        for forecast in service.predict_batch(["semi0", "semi1"]):
            assert forecast.strategy == "baseline"
            assert forecast.fallback_reason.count("InjectedFault") == 2
        assert breaker.failure_count() == 2  # reads charge nothing
        assert not any(
            scope.partition(":")[0] in ("sim", "uni")
            for scope in service._models
        )

    def test_shared_row_failure_is_retried_for_the_next_target(
        self, monkeypatch
    ):
        # One injected fault: the request that needs the row is charged
        # once and its targets step down; the next target's ingest
        # retries the row, which then serves both.
        service = make_service(
            {vid: fleet()[vid] for vid in OLD}, breaker=CircuitBreaker()
        )
        first_cycle = service_module.first_cycle_dataset
        faults = []

        def fails_once(*args):
            if not faults:
                faults.append(1)
                raise InjectedFault("first cycle")
            return first_cycle(*args)

        monkeypatch.setattr(service_module, "first_cycle_dataset", fails_once)
        ingest_at_once(
            service, {vid: fleet()[vid] for vid in ("semi0", "semi1")}
        )
        semi0, semi1 = service.predict_batch(["semi0", "semi1"])
        assert (semi0.strategy, semi0.degraded) == ("baseline", True)
        assert (semi1.strategy, semi1.degraded) == ("baseline", True)
        service.ingest("semi1", 19_500.0)
        semi0, semi1 = service.predict_batch(["semi0", "semi1"])
        assert (semi0.strategy, semi0.degraded) == ("similarity", False)
        assert (semi1.strategy, semi1.degraded) == ("similarity", False)
        assert service.breaker.failure_count() == len(faults) == 1
