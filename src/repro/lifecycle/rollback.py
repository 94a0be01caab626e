"""Versioned rollback: pin or revert a vehicle to a prior stored model.

Rollback loads the target version with an *exact pin* — no
newest-readable fallback — so the restored model is bit-identical to
what that version served before, or the load raises
:exc:`~repro.serving.persistence.ArtifactCorruptError` and nothing
changes.  The replaced version can optionally be parked in the store's
``quarantine/`` directory for offline inspection.
"""

from __future__ import annotations

__all__ = ["RollbackManager"]


class RollbackManager:
    """Pin/revert vehicles to prior :class:`ModelStore` versions.

    Every action flows through the service's journaled
    ``apply_lifecycle_event`` path, so rollbacks and pins survive a
    crash and replay idempotently like promotions do.
    """

    def __init__(self, engine):
        self.engine = engine
        self.rollbacks = 0
        self.pins = 0
        self.unpins = 0
        self.quarantines = 0

    def _store_and_champion(self, vehicle_id: str):
        service = self.engine.service
        if service.store is None:
            raise ValueError(
                "Rollback needs a ModelStore; this service has none."
            )
        return service, service.store, service.champion(vehicle_id)

    def rollback(
        self,
        vehicle_id: str,
        version: int | None = None,
        *,
        quarantine_current: bool = False,
        reason: str | None = None,
    ) -> dict:
        """Revert a vehicle to a prior version (newest-prior by default).

        The vehicle is left *pinned* to the target version — a rollback
        that immediately retrains over itself would be pointless — and
        serves it until an operator unpins or a later promotion clears
        the pin.  ``quarantine_current`` parks the replaced version in
        the store's quarantine directory.
        """
        service, store, champion = self._store_and_champion(vehicle_id)
        key = f"{vehicle_id}.per-vehicle"
        current = champion.version
        if version is None:
            candidates = [
                v
                for v in store.versions(key)
                if current is None or v < current
            ]
            if not candidates:
                raise ValueError(
                    f"No prior stored version to roll {vehicle_id!r} back "
                    f"to (current: {current})."
                )
            version = candidates[-1]
        # Exact pin: corrupt target raises here and nothing changes.
        artifact = store.load(key, version)
        event = service.apply_lifecycle_event(
            "rollback",
            vehicle_id,
            version=version,
            trained_cycles=int(artifact.metadata.get("trained_cycles", -1)),
            reason=reason or f"rollback from v{current}",
            predictor=artifact.predictor,
        )
        self.rollbacks += 1
        if quarantine_current and current is not None and current != version:
            try:
                store.quarantine(key, current)
                self.quarantines += 1
            except KeyError:
                pass  # already pruned/quarantined
        return event

    def pin(
        self, vehicle_id: str, version: int, *, reason: str | None = None
    ) -> dict:
        """Pin a vehicle to one stored version; no retraining while pinned."""
        service, store, _ = self._store_and_champion(vehicle_id)
        artifact = store.load(f"{vehicle_id}.per-vehicle", version)
        event = service.apply_lifecycle_event(
            "pin",
            vehicle_id,
            version=version,
            trained_cycles=int(artifact.metadata.get("trained_cycles", -1)),
            reason=reason or "operator pin",
            predictor=artifact.predictor,
        )
        self.pins += 1
        return event

    def unpin(self, vehicle_id: str, *, reason: str | None = None) -> dict:
        """Release a pin; normal freshness rules apply again."""
        service = self.engine.service
        event = service.apply_lifecycle_event(
            "unpin", vehicle_id, reason=reason or "operator unpin"
        )
        self.unpins += 1
        return event

    def counters(self) -> dict:
        return {
            "rollbacks": self.rollbacks,
            "pins": self.pins,
            "unpins": self.unpins,
            "quarantines": self.quarantines,
        }
