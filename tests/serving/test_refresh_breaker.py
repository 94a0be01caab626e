"""``refresh_models()`` under a tripped training circuit breaker.

A sick training path must not be hammered every refresh: after the
breaker opens for a vehicle's ``per-vehicle`` key, the fleet refresh
leaves that model stale (without even attempting the train), prediction
steps down the fallback ladder, and the half-open trial that prediction
drives eventually lets a later refresh retrain and recover.
"""

import numpy as np
import pytest

from repro.serving.engine import EngineConfig, FleetEngine
from repro.serving.faults import (
    FaultInjector,
    InjectedFault,
    faulty_predictor_factory,
)
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0
KEY = "v1:per-vehicle"


def build_stack(tmp_path, *, breaker=True, failure_threshold=2, cooldown=3):
    """One old vehicle with a trained v1 champion and injectable trains."""
    injector = FaultInjector(seed=0, rates={"train": 0.0})
    service = MaintenancePredictionService(
        t_v=T_V,
        window=0,
        algorithm="LR",
        store=ModelStore(tmp_path / "models"),
        breaker=(
            CircuitBreaker(failure_threshold, cooldown) if breaker else None
        ),
        predictor_factory=faulty_predictor_factory(injector),
    )
    engine = FleetEngine(
        service,
        config=EngineConfig(auto_refresh=False),
    )
    service.register_vehicle("v1")
    service.ingest_series("v1", np.full(40, 20_000.0))  # ~4 cycles: OLD
    forecast = service.predict("v1")  # trains and persists champion v1
    assert forecast.strategy == "per-vehicle" and not forecast.degraded
    return engine, service, injector


def make_stale(service, start_day=40, days=12):
    """Complete one more maintenance cycle so the champion goes stale."""
    for day in range(start_day, start_day + days):
        service.ingest("v1", 20_000.0, day=day)


def trip_breaker(engine, service, injector, failures=2):
    """Open the breaker through genuinely failed refresh trains."""
    injector.rates["train"] = 1.0
    for _ in range(failures):
        assert engine.refresh_models() == 0
    injector.rates["train"] = 0.0
    assert service.breaker.is_open(KEY)


class TestFailedTraining:
    def test_failed_train_leaves_prior_version_serving(self, tmp_path):
        engine, service, injector = build_stack(tmp_path)
        state = service._vehicles["v1"]
        champion = state.model
        make_stale(service)
        injector.rates["train"] = 1.0
        assert engine.refresh_models() == 0
        assert service.breaker.failure_count(KEY) == 1
        # The stale champion is untouched: same object, same version,
        # nothing new persisted.
        assert state.model is champion
        assert state.model_version == 1
        assert service.store.versions("v1.per-vehicle") == [1]

    def test_without_breaker_first_failure_raises(self, tmp_path):
        engine, service, injector = build_stack(tmp_path, breaker=False)
        make_stale(service)
        injector.rates["train"] = 1.0
        with pytest.raises(InjectedFault):
            engine.refresh_models()


class TestTrippedBreaker:
    def test_refresh_skips_stale_model_without_attempting(self, tmp_path):
        engine, service, injector = build_stack(tmp_path)
        make_stale(service)
        trip_breaker(engine, service, injector)
        calls_before = injector.calls["train"]
        # Training would succeed now — but the open breaker means the
        # refresh must not even try (and must not consume skips either:
        # only prediction's allow() walks the circuit to half-open).
        assert engine.refresh_models() == 0
        assert injector.calls["train"] == calls_before
        assert service.breaker.is_open(KEY)
        assert service._vehicles["v1"].model_version == 1

    def test_prediction_degrades_while_open(self, tmp_path):
        engine, service, injector = build_stack(tmp_path)
        make_stale(service)
        trip_breaker(engine, service, injector)
        forecast = service.predict("v1")
        assert forecast.degraded
        assert forecast.strategy != "per-vehicle"
        assert "circuit open" in forecast.fallback_reason

    def test_half_open_recovery_retrains_on_next_refresh(self, tmp_path):
        engine, service, injector = build_stack(tmp_path, cooldown=3)
        make_stale(service)
        trip_breaker(engine, service, injector)
        # Each serve consumes one skip; after `cooldown` degraded serves
        # the circuit half-opens and the refresh may try again.
        for _ in range(3):
            assert service.predict("v1").degraded
        assert not service.breaker.is_open(KEY)
        assert engine.refresh_models() == 1
        state = service._vehicles["v1"]
        assert state.model_version == 2
        assert service.store.versions("v1.per-vehicle") == [1, 2]
        forecast = service.predict("v1")
        assert not forecast.degraded
        assert forecast.strategy == "per-vehicle"
        assert forecast.model_version == 2

    def test_recovered_model_matches_unfaulted_training(self, tmp_path):
        engine, service, injector = build_stack(tmp_path)
        make_stale(service)
        trip_breaker(engine, service, injector)
        for _ in range(3):
            service.predict("v1")
        engine.refresh_models()

        clean_engine, clean_service, _ = build_stack(tmp_path / "clean")
        make_stale(clean_service)
        assert clean_engine.refresh_models() == 1

        probe = np.array([[100_000.0]])
        np.testing.assert_array_equal(
            np.asarray(service._vehicles["v1"].model.predict(probe)),
            np.asarray(clean_service._vehicles["v1"].model.predict(probe)),
        )
