"""Serial-equivalence suite for the batch fleet engine.

The engine's correctness contract is that batching and caching are
pure scheduling changes: for any fleet, batch/cached predictions must
be *identical* (exact float equality, not approx) to the serial
:class:`MaintenancePredictionService` path.
"""

import threading

import numpy as np
import pytest

from repro.core.categorize import VehicleCategory
from repro.core.cycles import derive_series
from repro.serving.engine import FleetEngine
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0


def random_fleet(seed: int) -> dict[str, np.ndarray]:
    """A mixed fleet: several old, some semi-new, some new vehicles."""
    rng = np.random.default_rng(seed)
    fleet: dict[str, np.ndarray] = {}
    for i in range(int(rng.integers(2, 5))):
        days = int(rng.integers(22, 45))
        fleet[f"old{i}"] = rng.uniform(14_000, 26_000, size=days)
    for i in range(int(rng.integers(1, 4))):
        fleet[f"semi{i}"] = rng.uniform(17_000, 25_000, size=int(rng.integers(5, 9)))
    for i in range(int(rng.integers(1, 3))):
        fleet[f"new{i}"] = rng.uniform(5_000, 20_000, size=int(rng.integers(1, 4)))
    return fleet


def build_serial(usage_map, **kwargs) -> MaintenancePredictionService:
    service = MaintenancePredictionService(t_v=T_V, **kwargs)
    for vehicle_id in sorted(usage_map):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage_map[vehicle_id])
    return service


def count_fits(service) -> list[str]:
    """The ids of each per-vehicle fit of ``service`` from now on: every
    such fit builds its training set once, through ``_vehicle_dataset``."""
    fits = []
    build = service._vehicle_dataset

    def counted_build(vehicle_id):
        fits.append(vehicle_id)
        return build(vehicle_id)

    service._vehicle_dataset = counted_build
    return fits


def serial_forecasts(service):
    return [
        service.predict(vehicle_id)
        for vehicle_id in service.vehicle_ids
        if service.series(vehicle_id).n_days > service.window
    ]


def feed(engine, usage_map) -> FleetEngine:
    engine.register_fleet(usage_map)
    for vehicle_id in sorted(usage_map):
        engine.ingest_history(vehicle_id, usage_map[vehicle_id])
    return engine


def build_engine(usage_map, **kwargs) -> FleetEngine:
    return feed(FleetEngine(t_v=T_V, **kwargs), usage_map)


class TestSerialEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("calls", [1, 4])
    def test_predict_all_identical_to_serial(self, seed, calls):
        """A cold ``predict_all`` and every cached repeat of it equal
        the serial forecasts."""
        usage_map = random_fleet(seed)
        reference = serial_forecasts(
            build_serial(usage_map, window=0, algorithm="LR")
        )
        engine = build_engine(usage_map, window=0, algorithm="LR")
        for _ in range(calls):
            assert engine.predict_all() == reference

    @pytest.mark.parametrize("calls", [1, 4])
    def test_multivariate_rf_identical_to_serial(self, calls):
        usage_map = random_fleet(3)
        reference = serial_forecasts(
            build_serial(usage_map, window=3, algorithm="RF")
        )
        engine = build_engine(usage_map, window=3, algorithm="RF")
        for _ in range(calls):
            assert engine.predict_all() == reference

    def test_cold_predict_all_starts_no_threads(self):
        """Training runs on the calling thread: the ingest that fits
        every OLD vehicle's model, and the cold ``predict_all`` after
        it, leave the process's thread count where it was."""
        rng = np.random.default_rng(4)
        usage_map = {
            f"old{i}": rng.uniform(14_000, 26_000, size=40) for i in range(4)
        }
        engine = FleetEngine(t_v=T_V, window=0, algorithm="RF")
        fits = count_fits(engine.service)
        before = threading.active_count()
        feed(engine, usage_map)
        forecasts = engine.predict_all()
        assert threading.active_count() == before
        assert {f.category for f in forecasts} == {VehicleCategory.OLD}
        assert len(forecasts) == 4
        assert sorted(fits) == sorted(usage_map)  # every model was fitted

    def test_repeated_ingest_predict_cycles_stay_identical(self):
        """Interleaved daily ingest + batch prediction matches serial."""
        usage_map = random_fleet(5)
        rng = np.random.default_rng(99)
        extra = {v: rng.uniform(12_000, 24_000, size=6) for v in usage_map}
        serial = build_serial(usage_map, window=0, algorithm="LR")
        engine = build_engine(usage_map, window=0, algorithm="LR")
        for day in range(6):
            today = {v: extra[v][day] for v in usage_map}
            for vehicle_id in sorted(today):
                serial.ingest(vehicle_id, float(today[vehicle_id]))
            engine.ingest_day(today)
            assert engine.predict_all() == serial_forecasts(serial)


class TestResilientCleanPathEquivalence:
    """The reliability layer's core contract: on clean data with no
    injected faults, a fully armed resilient stack (guard + breaker +
    retry + zero-rate injector) produces bit-identical forecasts to the
    plain serial service."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_reliability_stack_is_invisible_on_clean_data(self, seed):
        from repro.serving.faults import (
            FaultInjector,
            faulty_predictor_factory,
        )
        from repro.serving.reliability import (
            CircuitBreaker,
            IngestionGuard,
            RetryPolicy,
        )

        usage_map = random_fleet(seed)
        reference = serial_forecasts(
            build_serial(usage_map, window=0, algorithm="LR")
        )
        injector = FaultInjector(seed=seed)  # no rates: never fires
        engine = build_engine(
            usage_map,
            window=0,
            algorithm="LR",
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
            retry=RetryPolicy(attempts=3, sleep=lambda _s: None),
            predictor_factory=faulty_predictor_factory(injector),
        )
        forecasts = engine.predict_all()
        assert forecasts == reference
        assert not any(f.degraded for f in forecasts)
        health = engine.health()
        assert health.total_anomalies() == {}
        assert health.breaker_failures() == 0
        assert health.persist_failures == 0
        assert sum(injector.injected.values()) == 0

    def test_resilient_interleaved_ingest_predict_stays_identical(self):
        from repro.serving.reliability import CircuitBreaker, IngestionGuard

        usage_map = random_fleet(5)
        rng = np.random.default_rng(99)
        extra = {v: rng.uniform(12_000, 24_000, size=6) for v in usage_map}
        serial = build_serial(usage_map, window=0, algorithm="LR")
        engine = build_engine(
            usage_map,
            window=0,
            algorithm="LR",
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
        )
        for day in range(6):
            today = {v: extra[v][day] for v in usage_map}
            for vehicle_id in sorted(today):
                serial.ingest(vehicle_id, float(today[vehicle_id]))
            engine.ingest_day(today)
            assert engine.predict_all() == serial_forecasts(serial)


class TestEngineBehavior:
    def test_forecasts_sorted_by_vehicle_id(self):
        usage_map = random_fleet(6)
        engine = build_engine(usage_map, window=0, algorithm="LR")
        forecasts = engine.predict_all()
        ids = [f.vehicle_id for f in forecasts]
        assert ids == sorted(ids)

    def test_skip_unready_vehicles(self):
        usage_map = {"v1": np.full(25, 20_000.0), "v2": np.zeros(0)}
        engine = build_engine(usage_map, window=0, algorithm="LR")
        assert [f.vehicle_id for f in engine.predict_all()] == ["v1"]
        with pytest.raises(ValueError):
            engine.predict_all(skip_unready=False)

    def test_warm_predict_all_fits_nothing(self):
        usage_map = random_fleet(7)
        engine = FleetEngine(t_v=T_V, window=0, algorithm="LR")
        fits = count_fits(engine.service)
        feed(engine, usage_map)  # each OLD vehicle trains at its ingest
        assert fits == sorted(v for v in usage_map if v.startswith("old"))
        fits.clear()
        engine.predict_all()
        engine.predict_all()
        assert fits == []  # reads never train

    def test_predict_many_subset(self):
        usage_map = random_fleet(8)
        serial = build_serial(usage_map, window=0, algorithm="LR")
        old_ids = sorted(v for v in usage_map if v.startswith("old"))
        reference = [serial.predict(v) for v in old_ids]
        engine = build_engine(usage_map, window=0, algorithm="LR")
        assert engine.predict_many(old_ids) == reference

    def test_rejects_service_kwargs_with_service(self):
        service = MaintenancePredictionService(t_v=T_V)
        with pytest.raises(ValueError, match="service_kwargs"):
            FleetEngine(service, window=3)


class TestCycleStateCache:
    def test_append_path_matches_full_derivation(self):
        service = MaintenancePredictionService(t_v=T_V)
        service.register_vehicle("v")
        rng = np.random.default_rng(0)
        usage = rng.uniform(0, 30_000, size=60)
        for n in range(1, usage.size + 1):
            service.ingest("v", float(usage[n - 1]))
            bundle = service.series("v").bundle
            full = derive_series(usage[:n], T_V)
            assert bundle.cycles == full.cycles
            assert np.array_equal(
                bundle.usage_left, full.usage_left, equal_nan=True
            )
            assert np.array_equal(
                bundle.days_to_maintenance,
                full.days_to_maintenance,
                equal_nan=True,
            )

    def test_restore_rebuilds_cycle_state(self):
        """A restored history replaces the live one wholesale, so no
        cycle state derived from the old history may survive."""
        rng = np.random.default_rng(1)
        live = build_serial({"v": rng.uniform(0, 30_000, size=40)})
        live.series("v")  # derive state for the history being replaced
        restored = rng.uniform(0, 30_000, size=25)
        donor = build_serial({"v": restored})
        live.load_state_dict(donor.state_dict())
        bundle = live.series("v").bundle
        full = derive_series(restored, T_V)
        assert bundle.cycles == full.cycles
        assert np.array_equal(
            bundle.usage_left, full.usage_left, equal_nan=True
        )


class TestStaleKernelRegression:
    def test_refresh_retrain_never_serves_a_stale_kernel(self):
        """Daily reads of ``a`` retrain and free ``a``'s models; every
        later forecast for ``b`` must come from ``b``'s current model.
        With kernels keyed on ``id(model)``, a retrained model reusing a
        freed model's address was served the old compiled kernel, which
        this stream hits under some hash seeds."""
        rng = np.random.default_rng(0)
        usage = {v: rng.uniform(14_000, 26_000, size=100) for v in "ab"}
        empty = {v: u[:0] for v, u in usage.items()}
        serial = build_serial(empty, window=0, algorithm="RF")
        engine = build_engine(
            empty,
            window=0,
            algorithm="RF",
        )
        compared = 0
        for day in range(100):
            today = {v: float(u[day]) for v, u in usage.items()}
            for vehicle_id in sorted(today):
                serial.ingest(vehicle_id, today[vehicle_id])
            engine.ingest_day(today)
            if serial.category("a") is VehicleCategory.OLD:
                engine.predict_many(["a"])
            if day % 20 == 19 and serial.category("b") is VehicleCategory.OLD:
                assert engine.predict_many(["b"]) == [serial.predict("b")]
                compared += 1
        assert compared >= 3
