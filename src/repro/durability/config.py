"""Shared knobs for the durability subsystem (:class:`DurabilityConfig`).

A separate module (not the package ``__init__``) so the journal,
checkpoint and recovery modules can import it without touching the
package facade — the facade imports *them*.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DurabilityConfig"]


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs shared by the journal, checkpointer and recovery manager.

    Every ingest request is fsynced before its ack (see
    :meth:`~repro.serving.service.MaintenancePredictionService.
    ingest_batch`), so no knob trades durability for latency.

    Attributes
    ----------
    segment_max_bytes:
        Rotate to a fresh journal segment once the active one exceeds
        this size.
    checkpoint_every:
        Journaled readings between periodic checkpoints (a record
        without readings — a registration, a lifecycle decision —
        counts one), which bounds the readings a recovery replays
        (:meth:`~repro.durability.recovery.RecoveryManager.
        maybe_checkpoint`).
    keep_checkpoints:
        Checkpoint generations retained; older ones (and the journal
        segments wholly below the oldest retained generation) are
        pruned after each successful checkpoint.
    """

    segment_max_bytes: int = 4 * 1024 * 1024
    checkpoint_every: int = 2048
    keep_checkpoints: int = 3

    def __post_init__(self) -> None:
        if self.segment_max_bytes < 1024:
            raise ValueError(
                f"segment_max_bytes must be >= 1024, "
                f"got {self.segment_max_bytes}."
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}."
            )
        if self.keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}."
            )
