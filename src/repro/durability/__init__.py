"""Crash-safe durability for the fleet service (``repro.durability``).

Every stateful layer the reproduction grew across PRs 1-4 — cycle
cache, dead letters, fleet health, drift residuals — lived only in
process memory: a crash silently rewound the fleet to zero.  This
package makes the serving state restart-survivable with the classic
write-ahead recipe:

* :class:`~repro.durability.journal.WriteAheadJournal` — append-only
  JSON-lines segments with a per-record CRC, size-based segment
  rotation and torn-tail truncation on open.  Every ingest request — a
  reading, a posted batch, a fleet day, a backfill — is one record,
  journaled and fsynced *before* it is applied, so every ack is
  durable; records appended since the previous sync share its fsync
  (group commit).
* :class:`~repro.durability.checkpoint.CheckpointManager` — periodic
  atomic snapshots of the full service state (usage histories, guard
  counters, dead letters, breaker states, drift residuals, model
  version pins) with checksum validation, N retained generations and
  fallback to the previous generation on corruption.  A successful
  checkpoint prunes journal segments below the oldest retained
  generation.
* :class:`~repro.durability.recovery.RecoveryManager` — on startup
  loads the newest valid checkpoint, replays journal records past its
  high-water mark (idempotent: replay is keyed by record sequence
  number), emits recovery metrics and spans through :mod:`repro.obs`,
  and only then reports ready — the gateway answers 503 until replay
  completes.  A pid lock file fences against double-start; a stale
  lock left by a killed process is detected and stolen.
* :mod:`~repro.durability.drill` — the SIGKILL kill-recovery harness
  every kill drill runs through: spawn a journaling worker subprocess
  and kill it mid-run.  Its ingest drill then recovers and asserts
  that every acknowledged op was durable and survived, and that the
  recovered state is bit-identical to an uninterrupted run over the
  journaled records (``repro chaos --kill-after``).

Everything is stdlib + numpy; determinism mirrors the chaos harness
(seeded inputs replay exactly, recovery is a pure function of the
bytes on disk).
"""

from __future__ import annotations

from .checkpoint import Checkpoint, CheckpointCorruptError, CheckpointManager
from .config import DurabilityConfig
from .journal import (
    JournalCorruptError,
    JournalRecord,
    WriteAheadJournal,
    decode_f64,
    decode_record,
    encode_f64,
    encode_record,
)
from .recovery import (
    LockFile,
    LockHeldError,
    RecoveryError,
    RecoveryManager,
    RecoveryReport,
    build_service_from_state,
)

__all__ = [
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointManager",
    "DurabilityConfig",
    "JournalCorruptError",
    "JournalRecord",
    "LockFile",
    "LockHeldError",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "WriteAheadJournal",
    "build_service_from_state",
    "decode_f64",
    "decode_record",
    "encode_f64",
    "encode_record",
]
