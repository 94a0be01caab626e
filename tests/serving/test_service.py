"""Unit and scenario tests for the online prediction service."""

import numpy as np
import pytest

from repro.core.categorize import VehicleCategory
from repro.serving.engine import FleetEngine
from repro.serving.monitoring import DriftMonitor
from repro.serving.persistence import ModelStore
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0  # 10 steady days per cycle at 20 000 s/day


def steady_service(**kwargs) -> MaintenancePredictionService:
    defaults = dict(t_v=T_V, window=0, algorithm="LR")
    defaults.update(kwargs)
    return MaintenancePredictionService(**defaults)


class TestIngestion:
    def test_register_and_ingest(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest("v01", 20_000.0)
        assert service.series("v01").n_days == 1

    def test_duplicate_registration(self):
        service = steady_service()
        service.register_vehicle("v01")
        with pytest.raises(ValueError, match="already registered"):
            service.register_vehicle("v01")

    def test_unknown_vehicle(self):
        service = steady_service()
        with pytest.raises(KeyError, match="register"):
            service.ingest("ghost", 100.0)

    def test_invalid_daily_seconds(self):
        service = steady_service()
        service.register_vehicle("v01")
        for bad in (-1.0, 90_000.0, float("nan")):
            with pytest.raises(ValueError):
                service.ingest("v01", bad)

    def test_category_progression(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 3)
        assert service.category("v01") is VehicleCategory.NEW
        service.ingest_series("v01", [20_000.0] * 4)
        assert service.category("v01") is VehicleCategory.SEMI_NEW
        service.ingest_series("v01", [20_000.0] * 5)
        assert service.category("v01") is VehicleCategory.OLD


class TestPredictionRouting:
    def _fleet_with_old_vehicles(self, service, n_old=3, days=25):
        for i in range(n_old):
            vid = f"old{i}"
            service.register_vehicle(vid)
            # Distinct rates so Model_Sim has something to match on.
            service.ingest_series(vid, [18_000.0 + 2_000.0 * i] * days)

    def test_old_vehicle_uses_per_vehicle_model(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        forecast = service.predict("v01")
        assert forecast.strategy == "per-vehicle"
        assert forecast.category is VehicleCategory.OLD
        assert 0 <= forecast.days_to_maintenance <= 12

    def test_semi_new_uses_similarity_with_donors(self):
        service = steady_service()
        self._fleet_with_old_vehicles(service)
        service.register_vehicle("young")
        service.ingest_series("young", [20_000.0] * 6)  # past T_v/2
        forecast = service.predict("young")
        assert forecast.category is VehicleCategory.SEMI_NEW
        assert forecast.strategy == "similarity"
        assert forecast.donor_id in {"old0", "old1", "old2"}

    def test_semi_new_falls_back_to_baseline_without_donors(self):
        service = steady_service()
        service.register_vehicle("young")
        service.ingest_series("young", [20_000.0] * 6)
        forecast = service.predict("young")
        assert forecast.strategy == "baseline"

    def test_new_uses_unified_with_donors(self):
        service = steady_service()
        self._fleet_with_old_vehicles(service)
        service.register_vehicle("baby")
        service.ingest_series("baby", [20_000.0] * 2)
        forecast = service.predict("baby")
        assert forecast.category is VehicleCategory.NEW
        assert forecast.strategy == "unified"

    def test_new_falls_back_to_baseline_without_donors(self):
        service = steady_service()
        service.register_vehicle("baby")
        service.ingest_series("baby", [20_000.0] * 2)
        assert service.predict("baby").strategy == "baseline"

    def test_prediction_quality_on_steady_vehicle(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        forecast = service.predict("v01")
        # Day 24 is the 5th day of its cycle: true D = 5.
        assert forecast.days_to_maintenance == pytest.approx(5.0, abs=1.5)

    def test_window_longer_than_history(self):
        service = steady_service(window=6)
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 3)
        with pytest.raises(ValueError, match="window"):
            service.predict("v01")


class TestModelLifecycle:
    def test_model_retrained_after_new_cycle(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        service.predict("v01")
        first_model = service._vehicles["v01"].model
        service.ingest_series("v01", [20_000.0] * 10)  # completes a cycle
        service.predict("v01")
        assert service._vehicles["v01"].model is not first_model

    def test_model_reused_within_cycle(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        service.predict("v01")
        model = service._vehicles["v01"].model
        service.ingest("v01", 20_000.0)
        service.predict("v01")
        assert service._vehicles["v01"].model is model

    def test_models_persisted_to_store(self, tmp_path):
        store = ModelStore(tmp_path)
        service = steady_service(store=store)
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        service.predict("v01")
        assert "v01.per-vehicle" in store.keys()
        artifact = store.load("v01.per-vehicle")
        assert artifact.metadata["strategy"] == "per-vehicle"


class TestFeedbackLoop:
    def test_resolved_forecasts_feed_monitor(self):
        monitor = DriftMonitor(min_samples=1)
        service = steady_service(monitor=monitor)
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        service.predict("v01")  # pending: day 24, truth unknown yet
        assert monitor.summary() == {}
        service.ingest_series("v01", [20_000.0] * 10)  # cycle completes
        summary = monitor.summary()
        assert summary["v01"]["n"] >= 1
        assert summary["v01"]["mae"] < 3.0

    def test_accurate_service_raises_no_alerts(self):
        monitor = DriftMonitor(threshold_days=4.0, min_samples=1)
        service = steady_service(monitor=monitor)
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 22)
        for _ in range(6):
            service.predict("v01")
            service.ingest("v01", 20_000.0)
        service.ingest_series("v01", [20_000.0] * 12)
        assert monitor.alerts() == []

    def test_unmonitored_service_keeps_no_pending_forecasts(self):
        """Only the monitor scores pending forecasts: without one, every
        forecast served must not stay in memory and in every checkpoint."""
        engine = FleetEngine(steady_service())
        ids = ["v01", "v02", "v03"]
        engine.register_fleet(ids)
        for day in range(25):
            engine.ingest_day({vid: 20_000.0 for vid in ids}, day=day)
        for _ in range(50):
            engine.predict_all()
        vehicles = engine.service.state_dict()["vehicles"]
        assert [vehicles[vid]["pending"] for vid in ids] == [[], [], []]

    def test_restore_into_unmonitored_service_drops_pending(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        snapshot = service.state_dict()
        snapshot["vehicles"]["v01"]["pending"] = [[24, 5.0, "per-vehicle"]]
        restored = steady_service()
        restored.load_state_dict(snapshot)
        assert restored.state_dict()["vehicles"]["v01"]["pending"] == []


class TestIngestSeriesAtomicity:
    def test_bad_element_mid_array_ingests_nothing(self):
        """Regression: a bad reading at index 2 used to leave elements
        0–1 behind; now the whole batch is validated before any commit."""
        service = steady_service()
        service.register_vehicle("v01")
        with pytest.raises(ValueError, match="element 2"):
            service.ingest_series(
                "v01", [20_000.0, 21_000.0, float("nan"), 22_000.0]
            )
        assert service.series("v01").n_days == 0
        # The rejected batch can be fixed and re-sent cleanly.
        service.ingest_series("v01", [20_000.0, 21_000.0, 22_000.0])
        assert service.series("v01").n_days == 3

    def test_unknown_vehicle_checked_before_validation(self):
        service = steady_service()
        with pytest.raises(KeyError, match="register"):
            service.ingest_series("ghost", [float("nan")])

    def test_empty_series_is_a_no_op(self):
        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [])
        assert service.series("v01").n_days == 0


class CountingFactory:
    """make_predictor stand-in that counts fit() calls per predictor."""

    def __init__(self):
        self.fits = 0

    def __call__(self, algorithm):
        from repro.core.registry import make_predictor

        factory = self

        class _Counting:
            def __init__(self):
                self._inner = make_predictor(algorithm)

            def fit(self, dataset, **kwargs):
                factory.fits += 1
                self._inner.fit(dataset, **kwargs)
                return self

            def predict(self, X):
                return self._inner.predict(X)

        return _Counting()


class TestSimilarityModelCache:
    def build(self):
        factory = CountingFactory()
        service = steady_service(predictor_factory=factory)
        for i in range(3):
            service.register_vehicle(f"old{i}")
            service.ingest_series(f"old{i}", [18_000.0 + 2_000.0 * i] * 25)
        service.register_vehicle("young")
        service.ingest_series("young", [20_000.0] * 6)
        return service, factory

    def test_repeated_predictions_do_not_refit(self):
        service, factory = self.build()
        first = service.predict("young")
        assert first.strategy == "similarity"
        fits_after_first = factory.fits
        for _ in range(5):
            again = service.predict("young")
            assert again.strategy == "similarity"
            assert again.donor_id == first.donor_id
        assert factory.fits == fits_after_first

    def test_donor_change_invalidates_cache(self):
        service, factory = self.build()
        service.predict("young")
        fits = factory.fits
        # Pull the target's average usage toward old2's rate (staying
        # under T_v, so still semi-new): the most similar donor changes,
        # so Model_Sim must be refit.
        service.ingest_series("young", [26_000.0] * 2)
        changed = service.predict("young")
        assert changed.strategy == "similarity"
        assert changed.donor_id == "old2"
        assert factory.fits == fits + 1

    def test_cached_model_produces_identical_forecasts(self):
        service, _ = self.build()
        first = service.predict("young")
        second = service.predict("young")
        assert second.days_to_maintenance == first.days_to_maintenance


class TestServiceOnSimulatedFleet:
    def test_realistic_replay(self, small_fleet):
        """Replay a simulated vehicle day by day through the service."""
        vehicle = small_fleet.vehicles[0]
        monitor = DriftMonitor(min_samples=1)
        service = MaintenancePredictionService(
            t_v=vehicle.spec.t_v, window=3, algorithm="XGB", monitor=monitor
        )
        service.register_vehicle(vehicle.vehicle_id)
        # Warm up with most of the history, then predict weekly.
        warmup = int(vehicle.n_days * 0.8)
        service.ingest_series(vehicle.vehicle_id, vehicle.usage[:warmup])
        for day in range(warmup, vehicle.n_days):
            if (day - warmup) % 7 == 0 and service.category(
                vehicle.vehicle_id
            ) is VehicleCategory.OLD:
                forecast = service.predict(vehicle.vehicle_id)
                assert forecast.days_to_maintenance >= 0.0
            service.ingest(vehicle.vehicle_id, float(vehicle.usage[day]))
        # Some forecasts resolved as cycles completed.
        assert monitor.summary().get(vehicle.vehicle_id, {}).get("n", 0) >= 1


class TestForecastSerialization:
    def _forecast(self, **overrides):
        from repro.serving.service import Forecast

        fields = dict(
            vehicle_id="v07",
            category=VehicleCategory.SEMI_NEW,
            strategy="similarity",
            days_to_maintenance=12.3456789012345678,
            usage_left=123_456.789,
            as_of_day=41,
            donor_id="v02",
            degraded=True,
            fallback_reason="per-vehicle: RuntimeError: boom",
        )
        fields.update(overrides)
        return Forecast(**fields)

    def test_round_trip_is_exact(self):
        from repro.serving.service import Forecast

        forecast = self._forecast()
        assert Forecast.from_dict(forecast.to_dict()) == forecast

    def test_round_trip_survives_json(self):
        import json

        from repro.serving.service import Forecast

        forecast = self._forecast()
        rebuilt = Forecast.from_dict(json.loads(json.dumps(forecast.to_dict())))
        assert rebuilt == forecast
        # Bit-identical floats, not approximately equal.
        assert rebuilt.days_to_maintenance == forecast.days_to_maintenance
        assert rebuilt.usage_left == forecast.usage_left

    def test_category_serialized_as_member_name(self):
        payload = self._forecast().to_dict()
        assert payload["category"] == "SEMI_NEW"

    def test_defaults_round_trip(self):
        from repro.serving.service import Forecast

        forecast = self._forecast(
            category=VehicleCategory.OLD,
            strategy="per-vehicle",
            donor_id=None,
            degraded=False,
            fallback_reason=None,
        )
        rebuilt = Forecast.from_dict(forecast.to_dict())
        assert rebuilt == forecast
        assert rebuilt.donor_id is None and rebuilt.fallback_reason is None

    def test_served_forecast_round_trips(self):
        from repro.serving.service import Forecast

        service = steady_service()
        service.register_vehicle("v01")
        service.ingest_series("v01", [20_000.0] * 25)
        forecast = service.predict("v01")
        assert Forecast.from_dict(forecast.to_dict()) == forecast
