"""Serving contract of the fused batched predict path.

``predict_batch`` makes one compiled-kernel call per shared model
identity.  That is only legal if it is *invisible*: a stacked batch
must equal one-vehicle predictions exactly (``Forecast`` is a frozen
dataclass, so ``==`` is exact field-for-field equality including the
float prediction), and every compiled kernel must belong to the model
being served — after retrain, promotion, rollback and checkpoint
restore alike — so a stale flattened model never serves.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.registry import make_predictor
from repro.learn.compiled import compile_model
from repro.serving.engine import FleetEngine
from repro.serving.kernel_cache import CompiledModelCache
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker, IngestionGuard
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0


def random_fleet(seed: int) -> dict[str, np.ndarray]:
    """Old + semi-new + new vehicles: all Section-4 routing strategies."""
    rng = np.random.default_rng(seed)
    fleet: dict[str, np.ndarray] = {}
    for i in range(3):
        fleet[f"old{i}"] = rng.uniform(14_000, 26_000, size=int(rng.integers(24, 40)))
    for i in range(2):
        fleet[f"semi{i}"] = rng.uniform(17_000, 25_000, size=int(rng.integers(5, 9)))
    fleet["new0"] = rng.uniform(5_000, 20_000, size=2)
    return fleet


def build_serial(usage_map, **kwargs) -> MaintenancePredictionService:
    service = MaintenancePredictionService(t_v=T_V, **kwargs)
    for vehicle_id in sorted(usage_map):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage_map[vehicle_id])
    return service


def serial_forecasts(service):
    return [
        service.predict(vehicle_id)
        for vehicle_id in service.vehicle_ids
        if service.series(vehicle_id).n_days > service.window
    ]


def build_engine(usage_map, **kwargs) -> FleetEngine:
    engine = FleetEngine(t_v=T_V, **kwargs)
    engine.register_fleet(usage_map)
    for vehicle_id in sorted(usage_map):
        engine.ingest_history(vehicle_id, usage_map[vehicle_id])
    return engine


class TestBatchedSerialEquivalence:
    """Kernel-batched forecasts == the pre-batching serial path, exactly."""

    @pytest.mark.parametrize("algorithm", ["LR", "RF", "XGB", "LSVR"])
    @pytest.mark.parametrize("window", [0, 3])
    def test_predict_batch_identical_to_serial(self, algorithm, window):
        usage_map = random_fleet(17)
        reference = serial_forecasts(
            build_serial(usage_map, window=window, algorithm=algorithm)
        )
        batched_service = build_serial(
            usage_map, window=window, algorithm=algorithm
        )
        ids = [
            v
            for v in batched_service.vehicle_ids
            if batched_service.series(v).n_days > window
        ]
        assert batched_service.predict_batch(ids) == reference

    def test_engine_predict_all_uses_batched_path(self):
        usage_map = random_fleet(23)
        reference = serial_forecasts(
            build_serial(usage_map, window=2, algorithm="RF")
        )
        engine = build_engine(usage_map, window=2, algorithm="RF")
        assert engine.predict_all() == reference
        stats = engine.service.kernel_cache.stats()
        assert stats["batches"] > 0  # the kernel actually ran
        assert stats["batched_rows"] >= stats["batches"]

    def test_repeat_batches_hit_the_kernel_cache(self):
        usage_map = random_fleet(31)
        engine = build_engine(usage_map, window=0, algorithm="RF")
        cache = engine.service.kernel_cache
        served = []
        lookup = cache.get

        def recording_get(scope, model, version):
            kernel = lookup(scope, model, version)
            served.append((scope, model, kernel))
            return kernel

        cache.get = recording_get
        first = engine.predict_all()
        warm = len(served)
        assert warm > 0
        assert engine.predict_all() == first
        # No models changed between batches: each one serves the very
        # kernel object it served before, its own predict's kernel.
        assert [(s, m) for s, m, _ in served[warm:]] == [
            (s, m) for s, m, _ in served[:warm]
        ]
        for (_, model, cold), (_, _, hot) in zip(served, served[warm:]):
            assert hot is cold is compile_model(model)

    def test_kernel_section_in_engine_metrics(self):
        engine = build_engine(random_fleet(37), window=0, algorithm="LR")
        engine.predict_all()
        section = engine.metrics_section()["kernel"]
        assert set(section) == {
            "batches",
            "batched_rows",
            "mean_rows_per_batch",
            "max_rows_per_batch",
            "batch_rows",
        }
        # LR kernels are not batch-safe: one row per call.
        assert section["batch_rows"] == {"<=1": section["batches"]}


class TestResilientBatching:
    """A breaker no longer bypasses grouping: the ladder is a routing
    step, and a failed group call re-routes only its own vehicles."""

    def test_resilient_predict_all_one_kernel_call_per_shared_model(self):
        """The first read after an ingest makes one kernel call per
        shared model; a repeat read is answered by each vehicle's
        remembered forecast and makes none."""
        usage_map = random_fleet(23)
        engine = build_engine(
            usage_map,
            window=2,
            algorithm="RF",
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
        )
        stats = engine.service.kernel_cache.stats
        for _ in range(2):
            reference = serial_forecasts(
                build_serial(usage_map, window=2, algorithm="RF")
            )
            before = stats()
            forecasts = engine.predict_all()
            after = stats()
            assert forecasts == reference
            models = {
                (f.strategy, f.donor_id or f.vehicle_id)
                if f.strategy != "unified"
                else ("unified", None)
                for f in forecasts
            }
            assert "baseline" not in {strategy for strategy, _ in models}
            assert after["batches"] - before["batches"] == len(models)
            assert after["batched_rows"] - before["batched_rows"] == len(
                forecasts
            )
            assert any(
                sum(f.strategy == strategy for f in forecasts) > 1
                for strategy in ("similarity", "unified")
            )
            assert engine.predict_all() == reference
            assert stats() == after
            # One more fleet day: every vehicle misses on the next read.
            engine.ingest_day({vid: 21_000.0 for vid in usage_map})
            usage_map = {
                vid: np.append(usage, 21_000.0)
                for vid, usage in usage_map.items()
            }

    def test_group_failure_reroutes_each_vehicle_one_rung_down(self):
        rng = np.random.default_rng(3)
        usage_map = {
            "old0": rng.uniform(14_000, 26_000, size=30),
            "semi0": rng.uniform(17_000, 25_000, size=7),
            "semi1": rng.uniform(17_000, 25_000, size=6),
            "semi2": rng.uniform(17_000, 25_000, size=8),
            # A NEW vehicle: the full pool's Model_Uni is installed, so
            # the SEMI-NEW fallback rung has a row.
            "new0": np.full(4, 5_000.0),
        }
        service = build_serial(
            usage_map, window=0, algorithm="RF", breaker=CircuitBreaker()
        )
        semis = ["semi0", "semi1", "semi2"]
        clean = service.predict_batch(semis)
        assert {f.strategy for f in clean} == {"similarity"}
        assert {f.donor_id for f in clean} == {"old0"}

        class DownKernel:
            batch_safe = True

            def predict(self, X):
                raise RuntimeError("kernel down")

        lookup = service.kernel_cache.get
        service.kernel_cache.get = lambda scope, model, version: (
            DownKernel()
            if scope == "sim:old0"
            else lookup(scope, model, version)
        )
        forecasts = service.predict_batch(semis)
        for forecast in forecasts:
            assert forecast.strategy == "unified"
            assert forecast.degraded
            assert forecast.fallback_reason == (
                "similarity: RuntimeError: kernel down"
            )
        breaker = service.breaker
        for vehicle_id in semis:
            assert breaker.failure_count(f"{vehicle_id}:similarity") == 1
            assert breaker.failure_count(f"{vehicle_id}:unified") == 0
        assert breaker.failure_count() == len(semis)
        assert service.health().total_fallbacks() == len(semis)


class TestKernelCacheLifetime:
    def test_refit_model_at_a_reused_address_never_hits(self):
        """Fit, look up, drop, refit: CPython often hands a new model a
        freed model's address, which an ``id()``-keyed cache mistook
        for the old model and answered with its kernel.  One to four
        refits between lookups cover the allocator's reuse distances."""
        cache = CompiledModelCache()
        probe = np.array([[150_000.0]])
        rng = np.random.default_rng(0)
        model = None
        for lookup in range(60):
            for _ in range(1 + lookup % 4):
                X = rng.uniform(100_000, 200_000, size=(20, 1))
                data = _Dataset(X, X[:, 0] / rng.uniform(10_000, 30_000))
                model = None  # drop the previous model before fitting
                model = make_predictor("LR").fit(data)
            kernel = cache.get("v0:per-vehicle", model, None)
            assert kernel.predict(probe).tobytes() == (
                model.predict(probe).tobytes()
            )


class _Dataset:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.n_records = len(self.X)


def _challenger(seed: int):
    """A fitted RF predictor distinct from any service-trained champion."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(100_000, 200_000, size=(40, 1))
    y = X[:, 0] / 19_000.0 + rng.normal(0.0, 0.3, size=40)
    predictor = make_predictor("RF")
    predictor.fit(_Dataset(X, y))
    return predictor


class TestLifecycleInvalidation:
    """Promotion -> rollback -> checkpoint restore each recompile."""

    @pytest.fixture
    def stack(self, tmp_path):
        usage_map = {"v0": np.random.default_rng(5).uniform(14_000, 26_000, 30)}
        service = build_serial(
            usage_map,
            window=0,
            algorithm="RF",
            store=ModelStore(tmp_path / "models"),
        )
        service.predict_batch(["v0"])  # trains + stores champion v1
        return service

    def test_promotion_serves_the_new_compiled_model(self, stack):
        service = stack
        assert service.predict_batch(["v0"])[0].model_version == 1
        champion = service.champion("v0").predictor
        challenger = _challenger(99)
        cycles = service.champion("v0").key
        version = service.store.save("v0.per-vehicle", challenger)
        service.apply_lifecycle_event(
            "promote",
            "v0",
            version=version,
            predictor=challenger,
            trained_cycles=cycles,
        )
        batched = service.predict_batch(["v0"])[0]
        serial = service.predict("v0")
        assert batched == serial
        assert batched.model_version == version
        # The served number really is the challenger's, not a stale
        # compiled image of the old champion.
        row = np.array([[batched.usage_left]])
        assert batched.days_to_maintenance == float(
            max(challenger.predict(row)[0], 0.0)
        )
        served = service.kernel_cache.get("per-vehicle:v0", challenger, cycles)
        assert served is compile_model(challenger)
        assert served is not compile_model(champion)

    def test_rollback_recompiles_the_prior_version(self, stack):
        service = stack
        challenger = _challenger(101)
        cycles = service.champion("v0").key
        v2 = service.store.save("v0.per-vehicle", challenger)
        service.apply_lifecycle_event(
            "promote",
            "v0",
            version=v2,
            predictor=challenger,
            trained_cycles=cycles,
        )
        promoted = service.predict_batch(["v0"])[0]
        service.apply_lifecycle_event("rollback", "v0", version=1)
        rolled = service.predict_batch(["v0"])[0]
        assert rolled.model_version == 1
        assert rolled == service.predict("v0")
        # v1 and v2 are different models; serving must actually change.
        assert rolled.days_to_maintenance != promoted.days_to_maintenance
        artifact = service.store.load("v0.per-vehicle", 1)
        row = np.array([[rolled.usage_left]])
        assert rolled.days_to_maintenance == float(
            max(artifact.predictor.predict(row)[0], 0.0)
        )

    def test_checkpoint_restore_invalidates_compiled_kernels(
        self, stack, tmp_path
    ):
        service = stack
        expected = service.predict_batch(["v0"])[0]
        snapshot = service.state_dict()
        restored = build_serial(
            {},
            window=0,
            algorithm="RF",
            store=ModelStore(tmp_path / "models"),
        )
        restored.predict_batch  # the batched entry point must survive restore
        restored.load_state_dict(snapshot)
        # The restore reloads the stored version itself: a new model
        # object, whose kernel the first read compiles afresh.
        reloaded = restored.champion("v0").predictor
        assert reloaded is not None
        assert reloaded is not service.champion("v0").predictor
        assert restored.champion("v0").version == expected.model_version
        first = restored.predict_batch(["v0"])[0]
        assert first == expected
        assert restored.kernel_cache.get(
            "per-vehicle:v0", reloaded, expected.model_version
        ) is compile_model(reloaded)

    def test_live_restore_drops_stale_compiled_entries(self, stack):
        service = stack
        before = service.predict_batch(["v0"])[0]
        snapshot = service.state_dict()
        champion = service.champion("v0").predictor
        kernels = [compile_model(champion)]
        kernels.append(kernels[0].inner)
        stale = [weakref.ref(k) for k in kernels]
        del champion, kernels
        service.load_state_dict(snapshot)
        # The old champion left the table; its kernels died with it.
        gc.collect()
        assert [ref() for ref in stale] == [None, None]
        assert service.predict_batch(["v0"])[0] == before
