"""Chaos suite: deterministic fault injection against the serving stack.

The acceptance contract: under seeded injected faults (store I/O
errors, corrupt artifacts, failing trainers, dirty readings) the
service never raises from ``ingest``/``predict``, every affected
``Forecast`` is flagged degraded with a reason, and the ``FleetHealth``
counters match the injected fault counts exactly.
"""

import numpy as np
import pytest

from repro.learn.linear import LinearRegression
from repro.serving.engine import FleetEngine
from repro.serving.faults import (
    FaultInjector,
    FaultyStore,
    InjectedFault,
    corrupt_readings,
    faulty_predictor_factory,
)
from repro.serving.monitoring import DriftMonitor
from repro.serving.persistence import ArtifactCorruptError, ModelStore
from repro.serving.reliability import (
    CircuitBreaker,
    IngestionGuard,
    RetryPolicy,
)
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0

CHAOS_SEEDS = [7, 23]


def resilient_service(**kwargs) -> MaintenancePredictionService:
    defaults = dict(
        t_v=T_V,
        window=0,
        algorithm="LR",
        guard=IngestionGuard(),
        breaker=CircuitBreaker(),
    )
    defaults.update(kwargs)
    return MaintenancePredictionService(**defaults)


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed, rates={"x": 0.3})
            return [injector.fires("x") for _ in range(50)]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_sites_are_independent_streams(self):
        """Interleaving calls at other sites must not shift a site's
        schedule — that is what makes chaos runs replayable."""
        solo = FaultInjector(seed=1, rates={"a": 0.4})
        solo_schedule = [solo.fires("a") for _ in range(30)]
        mixed = FaultInjector(seed=1, rates={"a": 0.4, "b": 0.5})
        mixed_schedule = []
        for _ in range(30):
            mixed.fires("b")
            mixed_schedule.append(mixed.fires("a"))
            mixed.fires("b")
        assert mixed_schedule == solo_schedule

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(seed=0, rates={})
        assert not any(injector.fires("anything") for _ in range(100))
        assert injector.injected["anything"] == 0
        assert injector.calls["anything"] == 100

    def test_rate_one_always_fires(self):
        injector = FaultInjector(seed=0, rates={"x": 1.0})
        with pytest.raises(InjectedFault):
            injector.maybe_raise("x")
        assert injector.injected["x"] == 1

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="Rate"):
            FaultInjector(rates={"x": 1.5})

    def test_summary(self):
        injector = FaultInjector(seed=0, rates={"x": 1.0})
        injector.fires("x")
        injector.fires("y")
        assert injector.summary() == {
            "x": {"calls": 1, "injected": 1},
            "y": {"calls": 1, "injected": 0},
        }


class TestFaultyStore:
    @pytest.fixture
    def model(self, rng):
        X = rng.normal(size=(20, 2))
        return LinearRegression().fit(X, X[:, 0])

    def test_injected_save_error(self, tmp_path, model):
        injector = FaultInjector(seed=0, rates={"store.save": 1.0})
        store = FaultyStore(ModelStore(tmp_path), injector)
        with pytest.raises(OSError):
            store.save("m", model)
        assert injector.injected["store.save"] == 1

    def test_corrupted_payload_detected_on_load(self, tmp_path, model):
        injector = FaultInjector(seed=0, rates={"store.corrupt": 1.0})
        store = FaultyStore(ModelStore(tmp_path), injector)
        store.save("m", model)
        with pytest.raises(ArtifactCorruptError):
            store.load("m", fallback=False)

    def test_corruption_falls_back_to_older_version(self, tmp_path, model):
        inner = ModelStore(tmp_path)
        inner.save("m", model)  # v1: clean
        injector = FaultInjector(seed=0, rates={"store.corrupt": 1.0})
        FaultyStore(inner, injector).save("m", model)  # v2: corrupted
        artifact = inner.load("m")
        assert artifact.version == 1
        assert inner.quarantined("m") == [2]

    def test_delegates_everything_else(self, tmp_path, model):
        injector = FaultInjector(seed=0)
        store = FaultyStore(ModelStore(tmp_path), injector)
        store.save("m", model)
        assert store.keys() == ["m"]
        assert store.versions("m") == [1]


class TestFaultyPredictors:
    def test_fit_and_predict_raise_on_schedule(self):
        injector = FaultInjector(seed=0, rates={"train": 1.0})
        factory = faulty_predictor_factory(injector)
        predictor = factory("LR")
        with pytest.raises(InjectedFault):
            predictor.fit(None)
        assert injector.injected["train"] == 1

    def test_clean_injector_is_transparent(self, rng):
        """With no fault rates the wrapper changes nothing: forecasts
        are bit-identical to the plain service."""
        usage = rng.uniform(12_000, 26_000, size=40)
        injector = FaultInjector(seed=0)

        def forecast(**kwargs):
            service = MaintenancePredictionService(
                t_v=T_V, window=0, algorithm="LR", **kwargs
            )
            service.register_vehicle("v")
            service.ingest_series("v", usage)
            return service.predict("v")

        plain = forecast()
        wrapped = forecast(
            predictor_factory=faulty_predictor_factory(injector),
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
        )
        assert wrapped == plain
        assert injector.injected["train"] == 0


    def test_wrapped_model_compiles_once(self, rng, monkeypatch):
        """A model type with no kernel is remembered: a wrapped LR is
        tried once, not again on every read."""
        from weakref import WeakSet

        from repro.learn import compiled

        attempts = []
        compile_model = compiled.compile_model

        def counted(model):
            attempts.append(type(model).__name__)
            return compile_model(model)

        monkeypatch.setattr(compiled, "compile_model", counted)
        # Earlier tests may have served a wrapper in this process.
        monkeypatch.setattr(compiled, "_NO_KERNEL", WeakSet())
        service = MaintenancePredictionService(
            t_v=T_V,
            window=0,
            algorithm="LR",
            predictor_factory=faulty_predictor_factory(FaultInjector(seed=0)),
        )
        service.register_vehicle("v")
        service.ingest_series("v", rng.uniform(12_000, 26_000, size=40))
        first = service.predict("v")
        assert service.predict("v") == first
        assert attempts.count("_FaultyPredictor") == 1


class TestDirtyIngestChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_ingest_never_raises_and_counters_match_exactly(self, seed):
        rng = np.random.default_rng(seed)
        clean = {
            f"v{i}": rng.uniform(10_000, 28_000, size=80) for i in range(4)
        }
        injector = FaultInjector(
            seed=seed,
            rates={
                "reading.non_finite": 0.05,
                "reading.negative": 0.04,
                "reading.too_large": 0.04,
                "reading.duplicate": 0.03,
                "reading.out_of_order": 0.03,
            },
        )
        service = resilient_service()
        for vehicle_id in sorted(clean):
            service.register_vehicle(vehicle_id)
            for day, value in corrupt_readings(injector, clean[vehicle_id]):
                service.ingest(vehicle_id, value, day=day)

        anomalies = service.health().total_anomalies()
        expected = {
            "non-finite": injector.injected["reading.non_finite"],
            "negative": injector.injected["reading.negative"],
            "too-large": injector.injected["reading.too_large"],
            "duplicate-day": injector.injected["reading.duplicate"],
            "out-of-order": injector.injected["reading.out_of_order"],
        }
        expected = {k: v for k, v in expected.items() if v}
        assert anomalies == expected
        assert sum(expected.values()) > 0  # the run actually injected dirt

    def test_one_bad_vehicle_does_not_kill_the_batch(self):
        engine = FleetEngine(
            t_v=T_V, window=0, algorithm="LR", guard=IngestionGuard(),
            breaker=CircuitBreaker(),
        )
        engine.register_fleet(["a", "b", "c"])
        engine.ingest_day({"a": 20_000.0, "b": float("nan"), "c": 21_000.0})
        service = engine.service
        assert service.series("a").n_days == 1
        assert service.series("b").n_days == 0  # quarantined
        assert service.series("c").n_days == 1


class TestTrainingFailureChaos:
    def build_engine(self, injector, **service_kwargs):
        service = resilient_service(
            predictor_factory=faulty_predictor_factory(injector),
            **service_kwargs,
        )
        return FleetEngine(service)

    def test_all_trainers_failing_degrades_to_baseline(self):
        injector = FaultInjector(seed=0, rates={"train": 1.0})
        engine = self.build_engine(injector)
        engine.register_fleet(["old0", "old1"])
        for vehicle_id in ("old0", "old1"):
            engine.ingest_history(vehicle_id, [20_000.0] * 25)
        forecasts = engine.predict_all()
        assert len(forecasts) == 2
        for forecast in forecasts:
            assert forecast.strategy == "baseline"
            assert forecast.degraded
            assert "per-vehicle" in forecast.fallback_reason
            assert forecast.days_to_maintenance >= 0.0

    def test_breaker_failures_match_injected_faults(self):
        injector = FaultInjector(
            seed=1, rates={"train": 0.5, "predict": 0.2}
        )
        engine = self.build_engine(injector)
        engine.register_fleet([f"v{i}" for i in range(3)])
        for i in range(3):
            engine.ingest_history(f"v{i}", [18_000.0 + 1_000.0 * i] * 25)
        for _ in range(6):
            engine.predict_all()
            engine.ingest_day(
                {f"v{i}": 20_000.0 for i in range(3)}
            )
        health = engine.health()
        assert health.breaker_failures() == (
            injector.injected["train"] + injector.injected["predict"]
        )
        assert injector.injected["train"] > 0

    def test_failed_retrains_keep_stale_champions_of_failing_vehicles(
        self, tmp_path, monkeypatch
    ):
        """Retrain faults hitting some vehicles of one ingest request:
        those keep their stale champion, persist nothing and record one
        ``per-vehicle`` breaker failure each; the rest retrain and
        install in sorted vehicle order."""
        service = resilient_service(store=ModelStore(tmp_path))
        engine = FleetEngine(service)
        ids = [f"v{i}" for i in range(4)]
        engine.register_fleet(ids)
        for i, vehicle_id in enumerate(ids):
            engine.ingest_history(vehicle_id, [18_000.0 + 1_000.0 * i] * 40)
        assert all(f.model_version == 1 for f in engine.predict_all())
        champions = {v: service.champion(v).predictor for v in ids}

        failing = {"v1", "v2"}
        build = service._vehicle_dataset

        def faulty_build(vehicle_id):
            if vehicle_id in failing:
                raise InjectedFault(f"train {vehicle_id}")
            return build(vehicle_id)

        installed = []
        install = service.install_model

        def recording_install(vehicle_id, *args, **kwargs):
            installed.append(vehicle_id)
            return install(vehicle_id, *args, **kwargs)

        monkeypatch.setattr(service, "_vehicle_dataset", faulty_build)
        monkeypatch.setattr(service, "install_model", recording_install)
        # 15 more days in one request: one more completed cycle, so
        # every model goes stale and retrains at the end of it.
        service.ingest_batch(ids * 15, [20_000.0] * (4 * 15))
        forecasts = {f.vehicle_id: f for f in engine.predict_all()}
        assert installed == sorted(set(ids) - failing)
        for vehicle_id in ids:
            champion = service.champion(vehicle_id)
            failed = vehicle_id in failing
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
                assert "per-vehicle" in forecast.fallback_reason
            else:
                assert forecast.model_version == 2

    def test_breaker_opens_and_skips_broken_rung(self):
        injector = FaultInjector(seed=0, rates={"train": 1.0})
        service = resilient_service(
            breaker=CircuitBreaker(failure_threshold=2, cooldown=10),
            predictor_factory=faulty_predictor_factory(injector),
        )
        service.register_vehicle("v")
        service.ingest_series("v", [20_000.0] * 25)  # failure 1
        forecast = service.predict("v")
        assert forecast.degraded
        assert "per-vehicle: InjectedFault" in forecast.fallback_reason
        service.ingest("v", 20_000.0)  # retried: failure 2 -> opens
        attempts_before = injector.calls["train"]
        service.ingest("v", 20_000.0)  # skipped: circuit open
        forecast = service.predict("v")
        assert injector.calls["train"] == attempts_before
        assert forecast.degraded and "circuit open" in forecast.fallback_reason

    def test_recovery_after_faults_stop(self):
        injector = FaultInjector(seed=0, rates={"train": 1.0})
        service = resilient_service(
            breaker=CircuitBreaker(failure_threshold=1, cooldown=1),
            predictor_factory=faulty_predictor_factory(injector),
        )
        service.register_vehicle("v")
        service.ingest_series("v", [20_000.0] * 25)  # fails, opens
        assert service.predict("v").degraded  # consumes the cooldown skip
        injector.rates["train"] = 0.0  # outage ends
        service.ingest("v", 20_000.0)  # half-open retry succeeds
        recovered = service.predict("v")
        assert not recovered.degraded
        assert recovered.strategy == "per-vehicle"


class TestReadPathRetrainBreaker:
    """A stale champion is retrained by the ingest that completes its
    cycle, never by the reads that route to it.

    A sick training path must not be hammered on every ingest: after
    the breaker opens for a vehicle's ``per-vehicle`` key, its ingests
    skip the retrain and its reads step down the ladder, and the
    half-open trial that the cooldown leads to retrains and recovers.
    """

    KEY = "v1:per-vehicle"

    def build_stack(self, tmp_path, *, breaker=True):
        """One old vehicle with a trained v1 champion and injectable
        trains; the only vehicle, so its fallbacks train nothing."""
        injector = FaultInjector(seed=0, rates={"train": 0.0})
        service = MaintenancePredictionService(
            t_v=T_V,
            window=0,
            algorithm="LR",
            store=ModelStore(tmp_path / "models"),
            breaker=(
                CircuitBreaker(failure_threshold=2, cooldown=3)
                if breaker
                else None
            ),
            predictor_factory=faulty_predictor_factory(injector),
        )
        engine = FleetEngine(service)
        service.register_vehicle("v1")
        # ~4 cycles: OLD; the ingest trains and persists v1.
        service.ingest_series("v1", np.full(40, 20_000.0))
        (forecast,) = engine.predict_all()
        assert forecast.strategy == "per-vehicle" and not forecast.degraded
        return engine, service, injector

    @staticmethod
    def complete_cycle(service):
        """One more completed cycle in one request: the champion goes
        stale and that request retrains it."""
        service.ingest_series("v1", np.full(12, 20_000.0), start_day=40)

    def trip_breaker(self, engine, service, injector):
        """Open the breaker through two genuinely failed retrains: the
        cycle's own and the retry at the vehicle's next ingest."""
        injector.rates["train"] = 1.0
        self.complete_cycle(service)
        service.ingest("v1", 20_000.0, day=52)
        injector.rates["train"] = 0.0
        assert service.breaker.is_open(self.KEY)

    def test_failed_retrain_persists_nothing(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path)
        champion = service.champion("v1").predictor
        injector.rates["train"] = 1.0
        self.complete_cycle(service)
        (forecast,) = engine.predict_all()
        assert forecast.degraded and forecast.strategy == "baseline"
        assert service.breaker.failure_count(self.KEY) == 1
        # The stale champion is untouched: same object, same version,
        # nothing new persisted.
        assert service.champion("v1").predictor is champion
        assert service.champion("v1").version == 1
        assert service.store.versions("v1.per-vehicle") == [1]

    def test_without_breaker_first_failure_raises(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path, breaker=False)
        injector.rates["train"] = 1.0
        self.complete_cycle(service)  # the readings are durable: no raise
        with pytest.raises(InjectedFault):
            engine.predict_all()
        assert service.store.versions("v1.per-vehicle") == [1]

    def test_open_breaker_makes_no_train_attempt(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path)
        self.trip_breaker(engine, service, injector)
        calls_before = injector.calls["train"]
        # Training would succeed now, but the open circuit means the
        # ingest must not even try, and the read never trains.
        service.ingest("v1", 20_000.0, day=53)
        (forecast,) = engine.predict_all()
        assert injector.calls["train"] == calls_before
        assert forecast.degraded
        assert service.breaker.is_open(self.KEY)
        assert service.champion("v1").version == 1
        assert service.store.versions("v1.per-vehicle") == [1]

    def test_prediction_degrades_while_open(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path)
        self.trip_breaker(engine, service, injector)
        # The read steps down the ladder and says why.
        forecast = service.predict("v1")
        assert forecast.degraded
        assert forecast.strategy != "per-vehicle"
        assert "circuit open" in forecast.fallback_reason

    def test_half_open_ingest_retrains_to_v2(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path)
        self.trip_breaker(engine, service, injector)
        # Each read consumes one skip; after `cooldown` degraded reads
        # the circuit half-opens and the next ingest retrains.
        for _ in range(3):
            assert service.predict("v1").degraded
        assert not service.breaker.is_open(self.KEY)
        service.ingest("v1", 20_000.0, day=53)
        (forecast,) = engine.predict_all()
        assert not forecast.degraded
        assert forecast.strategy == "per-vehicle"
        assert forecast.model_version == 2
        assert service.champion("v1").version == 2
        assert service.store.versions("v1.per-vehicle") == [1, 2]

    def test_recovered_model_matches_unfaulted_training(self, tmp_path):
        engine, service, injector = self.build_stack(tmp_path)
        self.trip_breaker(engine, service, injector)
        for _ in range(3):
            service.predict("v1")
        service.ingest("v1", 20_000.0, day=53)
        recovered = engine.predict_all()

        clean_engine, clean_service, _ = self.build_stack(tmp_path / "clean")
        self.complete_cycle(clean_service)
        for day in (52, 53):
            clean_service.ingest("v1", 20_000.0, day=day)
        assert clean_engine.predict_all() == recovered

        probe = np.array([[100_000.0]])
        np.testing.assert_array_equal(
            np.asarray(service.champion("v1").predictor.predict(probe)),
            np.asarray(clean_service.champion("v1").predictor.predict(probe)),
        )


class TestStorageChaos:
    def test_transient_save_errors_recovered_by_retry(self, tmp_path):
        injector = FaultInjector(seed=3, rates={"store.save": 0.5})
        retry = RetryPolicy(attempts=4, sleep=lambda _s: None)
        service = resilient_service(
            store=FaultyStore(ModelStore(tmp_path), injector), retry=retry
        )
        service.register_vehicle("v")
        service.ingest_series("v", [20_000.0] * 25)
        for _ in range(5):
            service.predict("v")
            service.ingest_series("v", [20_000.0] * 10)  # new cycle: refit
        health = service.health()
        assert injector.injected["store.save"] == (
            retry.retries + health.persist_failures
        )
        assert injector.injected["store.save"] > 0
        assert retry.retries > 0

    def test_persistent_save_outage_never_breaks_predict(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"store.save": 1.0})
        service = resilient_service(
            store=FaultyStore(ModelStore(tmp_path), injector),
            retry=RetryPolicy(attempts=2, sleep=lambda _s: None),
        )
        service.register_vehicle("v")
        service.ingest_series("v", [20_000.0] * 25)
        forecast = service.predict("v")
        # The model trained fine; only persistence failed.
        assert forecast.strategy == "per-vehicle"
        assert service.health().persist_failures == 1

    def test_non_resilient_service_still_propagates(self, tmp_path):
        injector = FaultInjector(seed=0, rates={"store.save": 1.0})
        service = MaintenancePredictionService(
            t_v=T_V, window=0, algorithm="LR",
            store=FaultyStore(ModelStore(tmp_path), injector),
        )
        service.register_vehicle("v")
        service.ingest_series("v", [20_000.0] * 25)
        with pytest.raises(OSError):
            service.predict("v")


class TestEndToEndChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_everything_injected_at_once(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        clean = {
            f"v{i:02d}": rng.uniform(10_000, 28_000, size=50) for i in range(5)
        }
        injector = FaultInjector(
            seed=seed,
            rates={
                "reading.non_finite": 0.03,
                "reading.negative": 0.02,
                "reading.too_large": 0.02,
                "reading.duplicate": 0.02,
                "reading.out_of_order": 0.02,
                "train": 0.2,
                "predict": 0.05,
                "store.save": 0.2,
                "store.corrupt": 0.1,
            },
        )
        retry = RetryPolicy(attempts=3, sleep=lambda _s: None, seed=seed)
        service = resilient_service(
            store=FaultyStore(ModelStore(tmp_path), injector),
            monitor=DriftMonitor(min_samples=1),
            retry=retry,
            predictor_factory=faulty_predictor_factory(injector),
        )
        engine = FleetEngine(service)
        engine.register_fleet(clean)
        feeds = {
            vehicle_id: list(corrupt_readings(injector, usage))
            for vehicle_id, usage in sorted(clean.items())
        }

        degraded = 0
        steps = max(len(feed) for feed in feeds.values())
        for step in range(steps):  # never raises, by contract
            for vehicle_id in sorted(feeds):
                if step < len(feeds[vehicle_id]):
                    day, value = feeds[vehicle_id][step]
                    service.ingest(vehicle_id, value, day=day)
            if (step + 1) % 5 == 0:
                forecasts = engine.predict_all()
                for forecast in forecasts:
                    # Degraded forecasts always carry a reason.
                    assert forecast.degraded == (
                        forecast.fallback_reason is not None
                    )
                degraded += sum(1 for f in forecasts if f.degraded)

        health = engine.health()
        # Exact accounting: every injected fault shows up in the health
        # counters, nowhere else, exactly once.
        anomalies = health.total_anomalies()
        assert anomalies.get("non-finite", 0) == injector.injected["reading.non_finite"]
        assert anomalies.get("negative", 0) == injector.injected["reading.negative"]
        assert anomalies.get("too-large", 0) == injector.injected["reading.too_large"]
        assert anomalies.get("duplicate-day", 0) == injector.injected["reading.duplicate"]
        assert anomalies.get("out-of-order", 0) == injector.injected["reading.out_of_order"]
        assert health.breaker_failures() == (
            injector.injected["train"] + injector.injected["predict"]
        )
        assert injector.injected["store.save"] == (
            retry.retries + health.persist_failures
        )
        assert degraded > 0  # the chaos actually degraded some serves
        assert health.total_fallbacks() == degraded

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_replays_identically(self, seed, tmp_path):
        """Same seed, same faults, same forecasts — the harness is
        deterministic end to end."""

        def run(root):
            rng = np.random.default_rng(seed)
            usage = rng.uniform(10_000, 28_000, size=40)
            injector = FaultInjector(
                seed=seed,
                rates={"reading.non_finite": 0.05, "train": 0.3},
            )
            service = resilient_service(
                store=FaultyStore(ModelStore(root), injector),
                predictor_factory=faulty_predictor_factory(injector),
            )
            service.register_vehicle("v")
            forecasts = []
            for day, value in corrupt_readings(injector, usage):
                service.ingest("v", value, day=day)
                if service.series("v").n_days > 10:
                    forecasts.append(service.predict("v"))
            return forecasts, dict(injector.injected)

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
