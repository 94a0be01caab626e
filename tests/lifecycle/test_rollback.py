"""RollbackManager: versioned revert, pin/unpin, quarantine."""

import numpy as np
import pytest

from repro.lifecycle.drill import _build_stack

PROBE = np.array([[100_000.0]])


@pytest.fixture
def promoted_stack(drifted_stack):
    """drifted_stack after one sweep: drifted[0] serves v2 over a v1 prior."""
    engine, controller, drifted = drifted_stack
    entries = controller.run_once()
    assert all(e["outcome"] == "promoted" for e in entries)
    return engine, controller, drifted[0]


def stored_prediction(service, vid, version):
    artifact = service.store.load(f"{vid}.per-vehicle", version)
    return artifact.predictor.predict(PROBE)


class TestRollback:
    def test_rollback_restores_prior_version_bit_identically(
        self, promoted_stack
    ):
        engine, controller, vid = promoted_stack
        service = engine.service
        assert service.champion(vid).version == 2
        event = controller.rollback(vid)
        assert event["action"] == "rollback"
        assert event["vehicle_id"] == vid
        champion = service.champion(vid)
        assert champion.version == 1
        np.testing.assert_array_equal(
            champion.predictor.predict(PROBE),
            stored_prediction(service, vid, 1),
        )
        assert service.predict(vid).model_version == 1

    def test_rollback_leaves_vehicle_pinned(self, promoted_stack):
        engine, controller, vid = promoted_stack
        controller.rollback(vid)
        state = engine.service._vehicles[vid]
        assert state.pinned_version == 1
        # Pinned vehicles never re-enter the candidate pool.
        assert vid not in [v for v, _ in controller.candidates()]

    def test_explicit_version_rollback(self, promoted_stack):
        engine, controller, vid = promoted_stack
        controller.rollback(vid, 1)
        assert engine.service.champion(vid).version == 1

    def test_rollback_without_prior_version_raises(self, drifted_stack):
        engine, controller, drifted = drifted_stack
        with pytest.raises(ValueError, match="No prior stored version"):
            controller.rollback(drifted[0])  # only v1 exists

    def test_rollback_without_store_raises(self, tmp_path):
        engine, controller = _build_stack(store_dir=None)
        engine.register_fleet(["v1"])
        with pytest.raises(ValueError, match="ModelStore"):
            controller.rollback("v1")

    def test_quarantine_current_parks_replaced_version(self, promoted_stack):
        engine, controller, vid = promoted_stack
        store, key = engine.service.store, f"{vid}.per-vehicle"
        controller.rollback(vid, quarantine_current=True)
        assert 2 in store.quarantined(key)
        assert 2 not in store.versions(key)
        assert controller.counters()["quarantines"] == 1


class TestPin:
    def test_pin_serves_exact_version_and_unpin_releases(self, promoted_stack):
        engine, controller, vid = promoted_stack
        service = engine.service
        controller.pin(vid, 1)
        assert service._vehicles[vid].pinned_version == 1
        champion = service.champion(vid)
        assert champion.version == 1
        np.testing.assert_array_equal(
            champion.predictor.predict(PROBE),
            stored_prediction(service, vid, 1),
        )
        controller.unpin(vid)
        assert service._vehicles[vid].pinned_version is None
        counters = controller.counters()
        assert counters["pins"] == 1 and counters["unpins"] == 1

    def test_pin_missing_version_raises(self, promoted_stack):
        engine, controller, vid = promoted_stack
        with pytest.raises(KeyError):
            controller.pin(vid, 99)

    def test_pinned_version_survives_store_prune(self, promoted_stack):
        engine, controller, vid = promoted_stack
        store, key = engine.service.store, f"{vid}.per-vehicle"
        controller.pin(vid, 1)
        store.prune(key, keep_last=1, keep={1})
        assert 1 in store.versions(key)
