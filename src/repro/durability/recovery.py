"""Startup recovery: checkpoint load + journal replay behind a lock fence.

:class:`RecoveryManager` owns the on-disk state directory::

    <state_dir>/
        service.lock        pid lock file (double-start fence)
        journal/            write-ahead journal segments
        checkpoints/        ckpt-*.json generations

``recover()`` acquires the lock, opens (and repairs) the journal, loads
the newest valid checkpoint, replays journal records past the
checkpoint's high-water mark by re-executing the same service methods
with journaling suspended, and only then wires the journal into the
service and reports ready.  Replay is deterministic: the journal holds
the *requested* mutations (pre-guard), so re-execution routes every
record through the same guard/clamp/quarantine logic and reproduces the
applied state exactly — including records that originally raised.
Load and replay run in one ``journal_suspended`` block of the service,
so the models they make stale train once, at its end.

Recovery metrics and spans flow through :mod:`repro.obs` when an
:class:`~repro.obs.Observability` bundle is attached.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..obs import tracing
from .checkpoint import CheckpointManager
from .config import DurabilityConfig
from .journal import JournalRecord, WriteAheadJournal, decode_f64

__all__ = [
    "LOCK_FILENAME",
    "LockFile",
    "LockHeldError",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "build_service_from_state",
]

LOCK_FILENAME = "service.lock"


class RecoveryError(RuntimeError):
    """Recovery could not produce a consistent service state."""


class LockHeldError(RuntimeError):
    """Another live process holds the state-directory lock."""

    def __init__(self, path: Path, pid: int):
        self.path = path
        self.pid = pid
        super().__init__(
            f"State directory lock {path} is held by live pid {pid}."
        )


class LockFile:
    """Pid-based lock file fencing a state directory against double-start.

    A lock left behind by a SIGKILLed process is *stale*: the recorded
    pid no longer exists, so :meth:`acquire` deletes it and takes the
    lock (``stolen`` is set for the recovery report).  A lock whose pid
    is alive raises :exc:`LockHeldError` — two journaling writers on
    one directory would interleave segments and corrupt the log.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.held = False
        self.stolen = False

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # exists, owned by someone else
        return True

    def read_pid(self) -> int | None:
        """Pid recorded in the lock file; ``None`` if absent/garbled."""
        try:
            return int(self.path.read_text("ascii").strip())
        except (OSError, ValueError):
            return None

    def acquire(self) -> None:
        if self.held:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(16):  # bounded: steal/retry races are rare
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                pid = self.read_pid()
                if pid is not None and pid != os.getpid() and self._pid_alive(pid):
                    raise LockHeldError(self.path, pid)
                # Stale (dead pid) or unreadable: steal it.
                try:
                    self.path.unlink()
                except FileNotFoundError:
                    pass
                self.stolen = True
                continue
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.fsync(fd)
            finally:
                os.close(fd)
            self.held = True
            return
        raise RecoveryError(f"Could not acquire lock {self.path}.")

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "LockFile":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover` call did."""

    checkpoint_seq: int          # 0 = cold start, no checkpoint
    replayed: int                # journal records re-executed
    replay_errors: int           # records whose re-execution raised
    torn_records_dropped: int    # torn tails truncated on journal open
    checkpoints_discarded: int   # corrupt generations quarantined
    lock_stolen: bool
    last_seq: int                # journal high-water mark after open
    duration_s: float

    def as_dict(self) -> dict:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "replayed": self.replayed,
            "replay_errors": self.replay_errors,
            "torn_records_dropped": self.torn_records_dropped,
            "checkpoints_discarded": self.checkpoints_discarded,
            "lock_stolen": self.lock_stolen,
            "last_seq": self.last_seq,
            "duration_s": self.duration_s,
        }


class RecoveryManager:
    """Owns a service's durable state directory across restarts.

    Parameters
    ----------
    state_dir:
        Directory holding lock file, ``journal/`` and ``checkpoints/``.
    service:
        A :class:`~repro.serving.service.MaintenancePredictionService`
        to recover into and journal from.
    config:
        :class:`~repro.durability.config.DurabilityConfig`.
    obs:
        Optional :class:`~repro.obs.Observability`; recovery emits
        ``durability.*`` counters, a ``durability.recover`` span and a
        recovery event through it.
    """

    def __init__(self, state_dir, service, *, config=None, obs=None):
        self.state_dir = Path(state_dir)
        self.service = service
        self.config = config or DurabilityConfig()
        self.obs = obs
        self.lock = LockFile(self.state_dir / LOCK_FILENAME)
        self.journal: WriteAheadJournal | None = None
        self.checkpoints = CheckpointManager(
            self.state_dir / "checkpoints", keep=self.config.keep_checkpoints
        )
        self.ready = False
        self.report: RecoveryReport | None = None
        self.last_checkpoint_seq = 0
        self.checkpoints_taken = 0
        # ``journal.entries_appended`` at the last checkpoint.
        self._checkpoint_entries = 0

    # -- recovery ----------------------------------------------------------

    def _apply(self, record: JournalRecord) -> int:
        """Re-execute one journal record against the service.

        Returns the record's checkpoint weight: its readings, or one
        for a record without any (see :attr:`WriteAheadJournal.
        entries_appended`).
        """
        payload = record.payload
        service = self.service
        if record.kind == "day":
            values = decode_f64(payload["u"])
            # A record without "vs" covered the whole registered fleet
            # when it was written; replay is deterministic re-execution,
            # so the sorted registry rebuilt by the preceding "register"
            # records is the column order.
            ids = payload.get("vs")
            if ids is None and len(service.vehicle_ids) != len(values):
                raise RecoveryError(
                    f"fleet-wide day record at seq {record.seq} has "
                    f"{len(values)} values for "
                    f"{len(service.vehicle_ids)} registered vehicles"
                )
            _, error = service.ingest_batch(
                ids, values, day=payload.get("d"), days=payload.get("ds")
            )
            if error is not None:
                raise error
            return max(1, len(values))
        if record.kind == "register":
            service.register_vehicle(payload["v"])
        elif record.kind == "ingest":
            # Per-reading record of journals written before ingest
            # became one record per request.
            service.ingest(payload["v"], payload["s"], day=payload.get("d"))
        elif record.kind == "series":
            # Per-backfill record of the same older journals.
            values = decode_f64(payload["u"])
            service.ingest_series(
                payload["v"], values, start_day=payload.get("d0")
            )
            return max(1, len(values))
        elif record.kind == "lifecycle":
            # Replay passes no predictor: the promoted/pinned artifact
            # is reloaded from the model store when still present (bit
            # identical); otherwise the end-of-recovery refresh retrains
            # that vehicle deterministically.
            service.apply_lifecycle_event(
                payload["a"],
                payload["v"],
                version=payload.get("ver"),
                trained_cycles=payload.get("c"),
                reason=payload.get("r"),
            )
        else:
            raise RecoveryError(
                f"Unknown journal record kind {record.kind!r} "
                f"at seq {record.seq}."
            )
        return 1

    def recover(self) -> RecoveryReport:
        """Lock, load checkpoint, replay journal, wire up journaling.

        Idempotent per process lifetime: a second call returns the
        stored report.  Raises :exc:`LockHeldError` when another live
        process owns the directory and :exc:`RecoveryError` when the
        on-disk state is unrecoverable (e.g. a pruned journal with no
        readable checkpoint).
        """
        if self.ready and self.report is not None:
            return self.report
        started = time.perf_counter()
        preloaded = bool(getattr(self.service, "vehicle_ids", None))
        self.lock.acquire()
        try:
            with (
                tracing.span("durability.recover", dir=str(self.state_dir)),
                self.service.journal_suspended(),
            ):
                self.journal = WriteAheadJournal(
                    self.state_dir / "journal",
                    segment_max_bytes=self.config.segment_max_bytes,
                )
                checkpoint = self.checkpoints.load_latest()
                replay_from = 0
                if checkpoint is not None:
                    try:
                        self.service.load_state_dict(checkpoint.state)
                    except ValueError as exc:
                        raise RecoveryError(
                            f"Checkpoint seq {checkpoint.seq} does not fit "
                            f"this service: {exc}"
                        ) from exc
                    replay_from = checkpoint.seq
                    self.last_checkpoint_seq = checkpoint.seq
                else:
                    first = self.journal.first_seq
                    if first is not None and first != 1:
                        raise RecoveryError(
                            f"Journal starts at seq {first} but no readable "
                            "checkpoint covers the pruned prefix."
                        )
                replayed = 0
                replay_errors = 0
                replayed_entries = 0
                for record in self.journal.replay(after_seq=replay_from):
                    replayed += 1
                    try:
                        replayed_entries += self._apply(record)
                    except RecoveryError:
                        raise
                    except Exception:
                        # The original execution raised the same way
                        # (deterministic re-execution); the record still
                        # advances the high-water mark.
                        replay_errors += 1
                        replayed_entries += 1
                # The replayed tail counts toward the next checkpoint.
                self._checkpoint_entries = -replayed_entries
        except BaseException:
            if self.journal is not None:
                self.journal.close()
                self.journal = None
            self.lock.release()
            raise

        # Journal-before-apply from here on.
        self.service.journal = self.journal
        self.ready = True
        if preloaded:
            # Vehicles registered before recover() exist only in this
            # process's memory — neither the journal nor any checkpoint
            # covers them.  Snapshot immediately so a crash cannot
            # silently rewind the preload, and so fleet-wide ``day``
            # records (which omit the id list) always replay against
            # the full registry.
            self.checkpoint()
        self.report = RecoveryReport(
            checkpoint_seq=replay_from,
            replayed=replayed,
            replay_errors=replay_errors,
            torn_records_dropped=self.journal.torn_records_dropped,
            checkpoints_discarded=self.checkpoints.discarded,
            lock_stolen=self.lock.stolen,
            last_seq=self.journal.last_seq,
            duration_s=time.perf_counter() - started,
        )
        if self.obs is not None:
            counters = {
                "durability.recover.replayed": replayed,
                "durability.recover.replay_errors": replay_errors,
                "durability.recover.torn_dropped":
                    self.report.torn_records_dropped,
                "durability.recover.checkpoints_discarded":
                    self.report.checkpoints_discarded,
            }
            for name, value in counters.items():
                if value:
                    self.obs.registry.counter(name).inc(value)
            self.obs.events.emit(
                "durability.recovered", **self.report.as_dict()
            )
        return self.report

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot current state at the journal high-water mark.

        Syncs the journal first so the checkpoint never covers records
        that could still be lost, then prunes journal segments wholly
        below the oldest retained generation.
        """
        if self.journal is None:
            raise RecoveryError("checkpoint() before recover().")
        with tracing.span("durability.checkpoint"):
            self.journal.sync()
            seq = self.journal.last_seq
            state = self.service.state_dict()
            self.checkpoints.save(state, seq=seq)
            self.last_checkpoint_seq = seq
            self._checkpoint_entries = self.journal.entries_appended
            self.checkpoints_taken += 1
            oldest = self.checkpoints.oldest_retained_seq()
            if oldest:
                self.journal.prune(oldest)
        if self.obs is not None:
            self.obs.registry.counter("durability.checkpoints").inc()
        return seq

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if ``checkpoint_every`` journal entries (readings,
        or one per record without any) accrued since the last one."""
        if not self.ready or self.journal is None:
            return False
        pending = self.journal.entries_appended - self._checkpoint_entries
        if pending < self.config.checkpoint_every:
            return False
        self.checkpoint()
        return True

    # -- lifecycle ---------------------------------------------------------

    def status(self) -> dict:
        """Counter view for readiness payloads and the metrics registry."""
        return {
            "ready": self.ready,
            "checkpoint_seq": self.last_checkpoint_seq,
            "checkpoints_taken": self.checkpoints_taken,
            "journal": self.journal.stats() if self.journal else None,
            "checkpoints": self.checkpoints.stats(),
            "recovery": self.report.as_dict() if self.report else None,
        }

    def close(self, *, checkpoint: bool = True) -> None:
        """Final checkpoint (by default), close the journal, drop the lock."""
        if self.ready and checkpoint and self.journal is not None:
            self.checkpoint()
        if self.service is not None and getattr(self.service, "journal", None):
            self.service.journal = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        self.lock.release()
        self.ready = False

    def __enter__(self) -> "RecoveryManager":
        self.recover()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_service_from_state(state: dict, **kwargs):
    """Construct a service compatible with a checkpoint's fingerprint.

    The checkpoint stores the service *configuration fingerprint*
    (``t_v``, ``window``, ``algorithm``) plus the guard/breaker/monitor
    state dicts.  This helper rebuilds matching components so
    ``load_state_dict`` accepts the snapshot — the ``repro recover``
    CLI path, where no pre-built service exists.  Extra ``kwargs``
    (e.g. ``store``, ``obs``) pass through to the service
    constructor.
    """
    from ..serving.monitoring import DriftMonitor
    from ..serving.reliability import CircuitBreaker, IngestionGuard
    from ..serving.service import MaintenancePredictionService

    config = state.get("config")
    if not isinstance(config, dict):
        raise RecoveryError("Checkpoint state has no config fingerprint.")
    guard = None
    if state.get("guard") is not None:
        guard = IngestionGuard.from_state(state["guard"])
    breaker = None
    if state.get("breaker") is not None:
        breaker = CircuitBreaker.from_state(state["breaker"])
    monitor = None
    if state.get("monitor") is not None:
        monitor = DriftMonitor.from_state(state["monitor"])
    service = MaintenancePredictionService(
        t_v=float(config["t_v"]),
        window=int(config["window"]),
        algorithm=str(config["algorithm"]),
        guard=guard,
        breaker=breaker,
        monitor=monitor,
        **kwargs,
    )
    service.load_state_dict(state)
    return service
