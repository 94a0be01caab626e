"""Recovery tests: journal-before-apply, replay equivalence, locking."""

import numpy as np
import pytest

from repro.durability import (
    DurabilityConfig,
    LockFile,
    LockHeldError,
    RecoveryError,
    RecoveryManager,
    WriteAheadJournal,
)
from repro.serving import (
    FleetEngine,
    IngestionGuard,
    MaintenancePredictionService,
)

T_V = 200_000.0


def fresh_service() -> MaintenancePredictionService:
    return MaintenancePredictionService(
        t_v=T_V, window=0, algorithm="LR", guard=IngestionGuard()
    )


def drive(service, n_vehicles=3, days=24, seed=0) -> None:
    rng = np.random.default_rng(seed)
    ids = [f"v{i:02d}" for i in range(n_vehicles)]
    for vehicle_id in ids:
        service.register_vehicle(vehicle_id)
    for day in range(days):
        for vehicle_id in ids:
            service.ingest(
                vehicle_id, float(rng.uniform(15_000, 25_000)), day=day
            )


def forecasts(service, n_vehicles=3) -> dict:
    return {
        f"v{i:02d}": service.predict(f"v{i:02d}").to_dict()
        for i in range(n_vehicles)
    }


class TestRecoverReplay:
    def test_cold_start_then_replay_equivalence(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        report = manager.recover()
        assert report.checkpoint_seq == 0 and report.replayed == 0
        drive(manager.service)
        expected = forecasts(manager.service)
        manager.close(checkpoint=False)  # journal only, no snapshot

        recovered = RecoveryManager(tmp_path / "state", fresh_service())
        report = recovered.recover()
        assert report.checkpoint_seq == 0
        assert report.replayed == report.last_seq > 0
        assert forecasts(recovered.service) == expected
        recovered.close()

    def test_checkpoint_plus_tail_replay(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        manager.recover()
        drive(manager.service, days=12)
        checkpoint_seq = manager.checkpoint()
        drive_rng = np.random.default_rng(99)
        for day in range(12, 18):
            for i in range(3):
                manager.service.ingest(
                    f"v{i:02d}",
                    float(drive_rng.uniform(15_000, 25_000)),
                    day=day,
                )
        expected = forecasts(manager.service)
        manager.close(checkpoint=False)

        recovered = RecoveryManager(tmp_path / "state", fresh_service())
        report = recovered.recover()
        assert report.checkpoint_seq == checkpoint_seq
        assert 0 < report.replayed == report.last_seq - checkpoint_seq
        assert forecasts(recovered.service) == expected
        recovered.close()

    def test_recover_is_idempotent(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        first = manager.recover()
        assert manager.recover() is first
        manager.close()

    def test_fleet_day_record_without_ids(self, tmp_path):
        """Full-fleet ``day`` records omit the id list; replay must
        reconstruct the column order from the registered fleet."""
        engine = FleetEngine(
            t_v=T_V,
            window=0,
            algorithm="LR",
            guard=IngestionGuard(),
        )
        ids = [f"v{i:02d}" for i in range(4)]
        engine.register_fleet(ids)
        manager = RecoveryManager(tmp_path / "state", engine.service)
        manager.recover()
        rng = np.random.default_rng(3)
        for day in range(20):
            engine.ingest_day(
                dict(zip(ids, rng.uniform(15_000, 25_000, size=len(ids)))),
                day=day,
            )
        expected = {v: engine.service.predict(v).to_dict() for v in ids}
        # The bulk records must actually be the compact fleet-wide form.
        day_records = [
            r for r in manager.journal.replay() if r.kind == "day"
        ]
        assert day_records and all(
            "vs" not in r.payload for r in day_records
        )
        manager.close(checkpoint=False)

        recovered = RecoveryManager(tmp_path / "state", fresh_service())
        recovered.recover()
        got = {v: recovered.service.predict(v).to_dict() for v in ids}
        assert got == expected
        recovered.close()

    def test_fleet_day_record_length_mismatch_is_error(self, tmp_path):
        root = tmp_path / "state" / "journal"
        with WriteAheadJournal(root) as journal:
            journal.append("register", v="v01")
            # Fleet-wide record claiming two columns for one vehicle.
            journal.append("day", u=np.array([1_000.0, 2_000.0]), d=0)
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        with pytest.raises(RecoveryError, match="fleet-wide"):
            manager.recover()

    def test_pruned_journal_without_checkpoint_is_error(self, tmp_path):
        root = tmp_path / "state" / "journal"
        with WriteAheadJournal(root, segment_max_bytes=1024) as journal:
            for i in range(100):
                journal.append("ingest", v="v01", s=i)
            journal.prune(up_to_seq=80)
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        with pytest.raises(RecoveryError, match="checkpoint"):
            manager.recover()


class TestJournalBeforeApply:
    def test_mutations_are_journaled(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        manager.recover()
        service = manager.service
        service.register_vehicle("v01")
        service.ingest("v01", 20_000.0, day=0)
        service.ingest_series("v01", [19_000.0, 21_000.0], start_day=1)
        records = list(manager.journal.replay())
        # One record per request: a reading and a backfill are both
        # ``day`` records, each fsynced before the call returned.
        assert [r.kind for r in records] == ["register", "day", "day"]
        assert records[1].payload["vs"] == ["v01"]
        assert records[1].payload["d"] == 0
        assert records[2].payload["ds"] == [1, 2]
        assert manager.journal.durable_seq == manager.journal.last_seq
        manager.close()

    def test_replay_does_not_rejournal(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        manager.recover()
        manager.service.register_vehicle("v01")
        manager.service.ingest("v01", 20_000.0, day=0)
        last_seq = manager.journal.last_seq
        manager.close(checkpoint=False)

        recovered = RecoveryManager(tmp_path / "state", fresh_service())
        report = recovered.recover()
        # Idempotent replay: re-execution must not append new records.
        assert recovered.journal.last_seq == last_seq == report.last_seq
        recovered.close(checkpoint=False)


class TestLocking:
    def test_foreign_live_pid_is_fenced(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir(parents=True)
        # Pid 1 is always alive; a lock held by another live process
        # must refuse recovery outright.
        (state_dir / "service.lock").write_text("1")
        manager = RecoveryManager(state_dir, fresh_service())
        with pytest.raises(LockHeldError):
            manager.recover()

    def test_own_pid_lock_is_stolen(self, tmp_path):
        # A lock recorded under our own pid means *we* crashed a prior
        # manager without release; refusing would deadlock forever, so
        # acquire() steals it.
        first = RecoveryManager(tmp_path / "state", fresh_service())
        first.recover()
        second = RecoveryManager(tmp_path / "state", fresh_service())
        first.journal.close()  # avoid two buffered writers on one file
        report = second.recover()
        assert report.lock_stolen
        second.close()

    def test_stale_lock_is_stolen(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir(parents=True)
        # A pid that cannot be alive: max_pid + fallback-safe huge value.
        (state_dir / "service.lock").write_text("99999999")
        manager = RecoveryManager(state_dir, fresh_service())
        report = manager.recover()
        assert report.lock_stolen
        manager.close()

    def test_lock_released_on_close(self, tmp_path):
        manager = RecoveryManager(tmp_path / "state", fresh_service())
        manager.recover()
        manager.close()
        again = RecoveryManager(tmp_path / "state", fresh_service())
        again.recover()
        again.close()


class TestCheckpointing:
    def test_checkpoint_prunes_journal(self, tmp_path):
        config = DurabilityConfig(segment_max_bytes=1024)
        manager = RecoveryManager(
            tmp_path / "state", fresh_service(), config=config
        )
        manager.recover()
        drive(manager.service, days=40)
        assert manager.journal.segment_count() > 1
        manager.checkpoint()
        # Segments wholly below the checkpoint are gone; the tail stays.
        assert manager.journal.segment_count() == 1
        manager.close()

    def test_maybe_checkpoint_threshold(self, tmp_path):
        config = DurabilityConfig(checkpoint_every=10)
        manager = RecoveryManager(
            tmp_path / "state", fresh_service(), config=config
        )
        manager.recover()
        manager.service.register_vehicle("v01")
        for day in range(5):
            manager.service.ingest("v01", 20_000.0, day=day)
        assert not manager.maybe_checkpoint()  # 6 records < 10
        for day in range(5, 12):
            manager.service.ingest("v01", 20_000.0, day=day)
        assert manager.maybe_checkpoint()
        assert manager.last_checkpoint_seq == manager.journal.last_seq
        manager.close()
