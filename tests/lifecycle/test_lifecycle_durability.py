"""Lifecycle decisions must survive crashes and replay idempotently."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.lifecycle.drill import (
    _recover_stack,
    apply_lifecycle_op,
    generate_lifecycle_ops,
    lifecycle_kill_drill,
)
from repro.serving import FleetEngine

PROBE = np.array([[100_000.0]])


def run_durable_scenario(state_dir, *, sweep_days=12):
    """Replay the drift op stream through a journaled stack.

    Returns ``(engine, controller, manager, promoted)`` with the manager
    still open; ``promoted`` maps vehicle id -> promoted version.
    """
    engine, controller, manager = _recover_stack(state_dir, with_store=True)
    ops = generate_lifecycle_ops(
        4, 0, sweep_days=sweep_days, n_drifted=1
    )
    for op in ops:
        apply_lifecycle_op(engine, controller, op)
        manager.maybe_checkpoint()
    promoted = {
        e["vehicle_id"]: e["version"]
        for e in engine.service.lifecycle_log
        if e["action"] == "promote"
    }
    return engine, controller, manager, promoted


class TestGenerateOps:
    def test_deterministic(self):
        import json

        a = json.dumps(generate_lifecycle_ops(3, 5))
        assert a == json.dumps(generate_lifecycle_ops(3, 5))
        assert a != json.dumps(generate_lifecycle_ops(3, 6))

    def test_sweeps_only_after_drift_phase(self):
        ops = generate_lifecycle_ops(2, 0, warm_days=20, drift_days=10)
        kinds = [op["op"] for op in ops]
        first_sweep = kinds.index("sweep")
        day_count = kinds[:first_sweep].count("day")
        assert day_count >= 30  # warm + drift days precede every sweep


class TestJournaledPromotion:
    def test_promotion_survives_restart_bit_identically(self, tmp_path):
        state = tmp_path / "state"
        engine, _, manager, promoted = run_durable_scenario(state)
        assert promoted, "scenario must journal at least one promotion"
        service = engine.service
        before = {
            vid: np.asarray(service.champion(vid).predictor.predict(PROBE))
            for vid in promoted
        }
        log_before = [dict(e) for e in service.lifecycle_log]
        manager.close()

        engine2, _, manager2 = _recover_stack(state, with_store=True)
        service2 = engine2.service
        assert [dict(e) for e in service2.lifecycle_log] == log_before
        for vid, version in promoted.items():
            service2.predict(vid)  # a read installs a restored version
            champion = service2.champion(vid)
            assert champion.version == version
            np.testing.assert_array_equal(
                np.asarray(champion.predictor.predict(PROBE)), before[vid]
            )
        manager2.close()

    def test_replay_is_idempotent_across_recoveries(self, tmp_path):
        state = tmp_path / "state"
        _, _, manager, promoted = run_durable_scenario(state)
        manager.close()
        snapshots = []
        for _ in range(2):
            engine, _, mgr = _recover_stack(state, with_store=True)
            service = engine.service
            for vid in promoted:
                service.predict(vid)  # a read installs a restored version
            snapshots.append(
                {
                    "log": [dict(e) for e in service.lifecycle_log],
                    "versions": {
                        vid: service.champion(vid).version
                        for vid in service.vehicle_ids
                    },
                }
            )
            mgr.close(checkpoint=False)
        assert snapshots[0] == snapshots[1]

    def test_checkpoint_restore_reloads_exact_artifact(self, tmp_path):
        """A restored model_version must reload its artifact, not retrain.

        Checkpoints persist the promoted version number but not the
        in-memory model; the first touch after recovery must reinstall
        that exact stored artifact instead of retraining over the
        promotion (which would silently mint a new version).  Both read
        paths are checked: a default-built engine's batch read first,
        then the plain service read.
        """
        state = tmp_path / "state"
        engine, _, manager, promoted = run_durable_scenario(state)
        manager.checkpoint()
        manager.close(checkpoint=False)

        engine2, _, manager2 = _recover_stack(state, with_store=True)
        service2 = engine2.service
        reader = FleetEngine(service2)
        for vid, version in promoted.items():
            key = f"{vid}.per-vehicle"
            versions_before = service2.store.versions(key)
            assert service2.champion(vid).version == version  # from the checkpoint
            (batched,) = reader.predict_many([vid])
            forecast = service2.predict(vid)
            for read in (batched, forecast):
                assert read.model_version == version
                assert not read.degraded
            # No new version was trained or persisted along the way.
            assert service2.store.versions(key) == versions_before
            stored = service2.store.load(key, version)
            np.testing.assert_array_equal(
                np.asarray(service2.champion(vid).predictor.predict(PROBE)),
                np.asarray(stored.predictor.predict(PROBE)),
            )
        manager2.close(checkpoint=False)

    def test_recovery_without_store_degrades_to_lazy_retrain(self, tmp_path):
        state = tmp_path / "state"
        _, _, manager, promoted = run_durable_scenario(state)
        manager.close()
        engine2, _, manager2 = _recover_stack(state, with_store=False)
        service2 = engine2.service
        for vid in promoted:
            forecast = service2.predict(vid)
            assert not forecast.degraded
            assert forecast.model_version is None  # retrained, not restored
        manager2.close(checkpoint=False)


class TestKillDrill:
    def test_sigkill_mid_sweep_recovers_consistently(self, tmp_path):
        report = lifecycle_kill_drill(tmp_path / "drill", seed=0)
        assert report["ok"], report
        assert report["promotions_journaled"] >= 1
        assert report["artifacts_checked"] >= 1
        assert report["applied_acked"] == report["durable_acked"]
        assert report["last_seq"] >= report["acked_seq"]
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        assert failed == []

    def test_drill_leaves_the_killed_state(self, tmp_path, capsys):
        # Killed mid-sweep between two checkpoints (the drill
        # checkpoints every 240 journaled readings; seed 0's default
        # kill point lands on one), ``state/`` keeps journal records past its last
        # checkpoint and the dead worker's lock, because every
        # recovery ran on a copy.
        report = lifecycle_kill_drill(
            tmp_path / "drill", seed=0, kill_after=250
        )
        assert report["ok"], report
        argv = ["recover", "--state", str(tmp_path / "drill" / "state"),
                "--dry-run", "--json"]
        assert main(argv) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["replay_needed"] > 0
        assert dry["checkpoint"]["seq"] < report["last_seq"]
        assert dry["lock"] is not None and not dry["lock"]["alive"]
