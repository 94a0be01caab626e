"""LifecycleController sweeps against a drifted miniature fleet."""

import pytest

from repro.lifecycle import LifecycleController, PromotionPolicy
from repro.lifecycle.drill import _build_stack

from .conftest import run_scenario


class TestValidation:
    def test_rejects_bad_staleness(self, tmp_path):
        engine, _ = _build_stack(store_dir=str(tmp_path / "m"))
        with pytest.raises(ValueError, match="staleness_cycles"):
            LifecycleController(engine, staleness_cycles=0)

    def test_rejects_bad_retention(self, tmp_path):
        engine, _ = _build_stack(store_dir=str(tmp_path / "m"))
        with pytest.raises(ValueError, match="retention"):
            LifecycleController(engine, retention=0)

    def test_constructor_attaches_to_engine(self, tmp_path):
        engine, controller = _build_stack(store_dir=str(tmp_path / "m"))
        assert engine.lifecycle is controller


class TestCandidates:
    def test_only_drifted_vehicles_are_candidates(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        due = controller.candidates()
        assert [vid for vid, _ in due] == drifted
        for _, reason in due:
            assert reason.startswith("drift:")

    def test_pinned_vehicles_are_never_candidates(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        for vid in drifted:
            controller.pin(vid, 1)  # v1 = the initial champion
        assert controller.candidates() == []

    def test_staleness_schedule_sweeps_undrifted_champions(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        stale = LifecycleController(
            engine, controller.policy, staleness_cycles=2
        )
        reasons = dict(stale.candidates())
        # Frozen champions fall behind on every vehicle; the drifted one
        # still surfaces through its (higher-priority) drift alert.
        assert set(reasons) == set(engine.service.vehicle_ids)
        for vid, reason in reasons.items():
            expected = "drift:" if vid in drifted else "stale:"
            assert reason.startswith(expected)


class TestSweep:
    def test_drifted_challenger_promotes_and_is_attributed(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        service = engine.service
        before = {vid: service.champion(vid).version
                  for vid in service.vehicle_ids}
        entries = controller.run_once()
        assert [e["vehicle_id"] for e in entries] == drifted
        for entry in entries:
            assert entry["outcome"] == "promoted"
            assert entry["version"] == before[entry["vehicle_id"]] + 1
            assert entry["shadow"]["improvement"] > 0
        # Promotion swapped only the drifted champions, atomically.
        for vid in service.vehicle_ids:
            champion = service.champion(vid)
            assert champion.predictor is not None
            expected = before[vid] + (1 if vid in drifted else 0)
            assert champion.version == expected
        # The new champion is attributed in the next forecast.
        vid = drifted[0]
        forecast = service.predict(vid)
        assert forecast.model_version == before[vid] + 1

    def test_promotion_resets_monitor_and_prunes_store(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        service, vid = engine.service, drifted[0]
        assert service.monitor.mean_abs_error(vid) > 0
        controller.run_once()
        # Fresh champion is judged on its own residuals only.
        assert service.monitor.mean_abs_error(vid) != service.monitor.mean_abs_error(vid)  # NaN
        # Retention keeps at most `retention` versions plus the active one.
        versions = service.store.versions(f"{vid}.per-vehicle")
        assert len(versions) <= controller.retention + 1
        assert service.champion(vid).version in versions

    def test_sweep_consumes_alerts_until_cooldown(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        entries = controller.run_once()
        assert entries  # first sweep acts...
        assert controller.run_once() == []  # ...second has nothing due
        counters = controller.counters()
        assert counters["sweeps"] == 2
        assert counters["promotions"] == len(drifted)


class TestFailureHandling:
    def test_open_breaker_skips_evaluation(self, drifted_stack):
        from repro.serving.reliability import CircuitBreaker

        engine, controller, drifted = drifted_stack
        service, vid = engine.service, drifted[0]
        service.breaker = CircuitBreaker()
        key = f"{vid}:lifecycle"
        for _ in range(service.breaker.failure_threshold):
            service.breaker.record_failure(key)
        entry = controller.evaluate_vehicle(vid)
        assert entry["outcome"] == "skipped"
        assert entry["detail"] == "training breaker open"
        assert controller.counters()["breaker_skips"] == 1

    def test_failed_training_leaves_champion_serving(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        service, vid = engine.service, drifted[0]
        champion = service.champion(vid).predictor
        version = service.champion(vid).version

        def boom(*args, **kwargs):
            raise RuntimeError("factory down")

        service._make_predictor = boom
        entry = controller.evaluate_vehicle(vid)
        assert entry["outcome"] == "failed"
        assert "challenger training failed" in entry["detail"]
        assert service.champion(vid).predictor is champion
        assert service.champion(vid).version == version
        assert service.predict(vid).model_version == version
        counters = controller.counters()
        assert counters["train_failures"] == 1
        assert counters["promotions"] == 0


class TestStatus:
    def test_status_is_json_safe_and_complete(self, drifted_stack):
        import json

        engine, controller, drifted = drifted_stack
        controller.run_once()
        status = controller.status()
        json.dumps(status)  # strict JSON: no NaN/inf anywhere
        assert set(status) == {
            "policy", "counters", "vehicles", "history", "log"
        }
        vid = drifted[0]
        assert status["vehicles"][vid]["category"] == "OLD"
        assert status["counters"]["promotions"] == len(drifted)
        assert any(e["action"] == "promote" for e in status["log"])


class TestFreshStacksStayQuiet:
    def test_undrifted_fleet_produces_no_candidates(self, tmp_path):
        engine, controller, _ = run_scenario(
            tmp_path / "models", n_drifted=0, drift_days=20
        )
        assert controller.candidates() == []
        assert controller.run_once() == []
