"""Batch fleet engine: fleet-wide ingestion + batch prediction.

This module scales :class:`MaintenancePredictionService` to
fleet-sized traffic without changing a single predicted ``D̂_v(t)``:
:meth:`FleetEngine.predict_all` and :meth:`FleetEngine.predict_many`
make one
:meth:`~repro.serving.service.MaintenancePredictionService.predict_batch`
call, which stacks vehicles sharing a model into one kernel call, and
return forecasts sorted by vehicle id.  A read touches only the
vehicles it asks for: a stale per-vehicle model is retrained by the
service's ``_ensure_vehicle_model`` when that vehicle is routed, the
one place that decides a model is stale.

Serial-equivalence contract: every forecast is bit-identical to what
the plain serial service would produce on the same history, because
training data, model seeds and routing are unchanged — only the
schedule differs.  ``tests/serving/test_fleet_engine.py`` enforces
this with exact equality.
"""

from __future__ import annotations

import operator
import threading
import time
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

import numpy as np

from ..obs import Observability
from .reliability import FleetHealth
from .service import Forecast, MaintenancePredictionService

__all__ = ["FleetEngine"]


class FleetEngine:
    """Fleet-scale front end over :class:`MaintenancePredictionService`.

    Parameters
    ----------
    service:
        An existing service to drive; when ``None`` a fresh one is
        built from ``service_kwargs`` (``t_v`` is then required).

    Everything runs on the calling thread: a read can retrain only the
    vehicles in its batch, when the service's ``_ensure_vehicle_model``
    finds their model stale.  Faults are injected below the engine, at
    the service's ``predictor_factory`` (see
    :func:`~repro.serving.faults.faulty_predictor_factory`), so
    training and prediction both exercise it.
    """

    def __init__(
        self,
        service: MaintenancePredictionService | None = None,
        **service_kwargs,
    ):
        if service is None:
            service = MaintenancePredictionService(**service_kwargs)
        elif service_kwargs:
            raise ValueError(
                "Pass service_kwargs only when the engine builds the "
                "service itself."
            )
        self.service = service
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self.obs: Observability | None = None
        # Optional RecoveryManager (duck-typed); attach_durability()
        # wires it in after recovery so ingest batches can trigger
        # periodic checkpoints and readiness() can surface its status.
        self.durability = None
        # (sorted fleet ids, C-level getter) for full-fleet day
        # batches; keyed by fleet size, which is sound because
        # vehicles are never deregistered.
        self._fleet_ids_cache = None
        # Optional LifecycleController (duck-typed); attach_lifecycle()
        # wires it in so the gateway's admin endpoints and readiness()
        # can reach it.
        self.lifecycle = None

    def attach_observability(self, obs: Observability) -> None:
        """Share one :class:`~repro.obs.Observability` across the stack.

        The service underneath gets the same instance (stage profiling,
        ladder span events), and the engine's :meth:`metrics_section`
        sections (``fleet``, ``drift``, ``kernel``, plus ``durability``
        and ``lifecycle`` once attached) join the consolidated metrics
        snapshot as registry collectors.  Idempotent; the gateway calls
        this on construction, in-process users may call it directly.
        """
        self.obs = obs
        self.service.obs = obs
        self._register_sections()

    def attach_durability(self, manager) -> None:
        """Wire a recovered :class:`~repro.durability.recovery.
        RecoveryManager` into the engine.

        Bulk day-batches then journal one record per batch,
        :meth:`ingest_day` triggers periodic checkpoints, and
        :meth:`readiness` (hence the gateway's ``/v1/ready``) reports
        the durability status.  Call after ``manager.recover()``.
        """
        self.durability = manager
        self._register_sections()

    def attach_lifecycle(self, controller) -> None:
        """Wire a :class:`~repro.lifecycle.LifecycleController` in.

        The gateway's ``/v1/lifecycle`` admin endpoints and
        :meth:`readiness` reach the controller through this handle, and
        its sweep/promotion counters join the consolidated metrics
        snapshot as the ``lifecycle`` section.
        """
        self.lifecycle = controller
        self._register_sections()

    def _section_producers(self) -> dict:
        """Section name -> zero-argument producer of that section."""
        producers = {
            "fleet": lambda: self.service.health().summary_counters(),
            "drift": lambda: (
                {}
                if self.service.monitor is None
                else self.service.monitor.counters()
            ),
            "kernel": lambda: self.service.kernel_cache.stats(),
        }
        if self.durability is not None:
            producers["durability"] = self.durability.status
        if self.lifecycle is not None:
            producers["lifecycle"] = self.lifecycle.counters
        return producers

    def _register_sections(self) -> None:
        """(Re-)register every section producer as a registry collector."""
        if self.obs is not None:
            for name, producer in self._section_producers().items():
                self.obs.registry.register_collector(
                    name, producer, replace=True
                )

    @contextmanager
    def _track_inflight(self):
        """Count a batch operation for :meth:`drain`."""
        with self._inflight_cond:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    # -- ingestion ---------------------------------------------------------

    def register_fleet(self, vehicle_ids: Iterable[str]) -> None:
        """Register many vehicles at once (order-independent)."""
        for vehicle_id in sorted(vehicle_ids):
            self.service.register_vehicle(vehicle_id)

    def ingest_day(
        self, usage_by_vehicle: Mapping[str, float], *, day: int | None = None
    ) -> None:
        """Ingest one day of utilization for part or all of the fleet.

        Vehicles are processed in sorted id order so monitor resolution
        is deterministic.  When the service carries
        an ingestion guard, one vehicle's dirty reading can no longer
        kill the whole fleet batch — it is screened per policy and the
        rest of the batch proceeds.

        With a journal attached, the whole batch lands as one bulk
        ``day`` record (base64 float64 values in sorted-id order) and
        the per-vehicle ingests run with journaling suspended — one
        framed line instead of N, keeping journal overhead off the
        per-reading hot path.  A batch covering exactly the registered
        fleet omits the id list entirely: replay is deterministic
        re-execution, so by the time the record is applied the same
        ``register`` records have rebuilt the same fleet and the
        sorted registry *is* the column order.  JSON-encoding N ids
        per day was the dominant journal cost; dropping it keeps the
        amortized overhead under the <10% ingest budget.
        """
        service = self.service
        journal = service.journal
        if journal is not None and service._journal_depth == 0:
            extra = {} if day is None else {"d": day}
            # Full-fleet detection by length alone is sound: vehicles
            # are never deregistered, so an equal-length batch that is
            # not the fleet must contain an unregistered id — and the
            # itemgetter raises KeyError for it here, before anything
            # is journaled or applied (the unguarded per-vehicle path
            # would raise the same KeyError partway through instead).
            if len(usage_by_vehicle) == len(service._vehicles):
                cache = self._fleet_ids_cache
                if cache is None or len(cache[0]) != len(
                    service._vehicles
                ):
                    ids = sorted(service._vehicles)
                    getter = (
                        operator.itemgetter(*ids)
                        if len(ids) > 1
                        else (lambda batch, _k=ids[0]: (batch[_k],))
                        if ids
                        else (lambda batch: ())
                    )
                    cache = self._fleet_ids_cache = (ids, getter)
                ids, getter = cache
                values = np.fromiter(
                    getter(usage_by_vehicle),
                    dtype=np.float64,
                    count=len(ids),
                )
                service._journal_append("day", u=values, **extra)
            else:
                ids = sorted(usage_by_vehicle)
                values = np.fromiter(
                    (usage_by_vehicle[v] for v in ids),
                    dtype=np.float64,
                    count=len(ids),
                )
                service._journal_append("day", vs=ids, u=values, **extra)
            # Suspend journaling by stashing the journal itself (the
            # per-reading ingest check then short-circuits exactly as
            # in journal-off mode) and iterate tolist(), not the
            # array (which boxes a fresh np.float64 per element): at
            # fleet width either would cost more than the append.
            service.journal = None
            try:
                for vehicle_id, seconds in zip(ids, values.tolist()):
                    service.ingest(vehicle_id, seconds, day=day)
            finally:
                service.journal = journal
            if self.durability is not None:
                self.durability.maybe_checkpoint()
            return
        for vehicle_id in sorted(usage_by_vehicle):
            service.ingest(
                vehicle_id, float(usage_by_vehicle[vehicle_id]), day=day
            )

    def ingest_history(self, vehicle_id: str, usage) -> None:
        self.service.ingest_series(vehicle_id, usage)

    def ingest_records(
        self,
        records: list[tuple[str, float, int | None]],
        *,
        auto_register: bool = True,
    ) -> tuple[int, str | None]:
        """Apply gateway-shaped ``(vehicle_id, seconds, day)`` records.

        Records are applied in the given order; the first failure stops
        the batch and is returned as ``(ingested_so_far, error)`` —
        whatever was applied before it stays applied (and journaled).
        This is the single ingest entry point shared by the in-process
        gateway lane and the sharded worker processes.
        """
        service = self.service
        ingested = 0
        error = None
        for vehicle_id, seconds, day in records:
            if not service.has_vehicle(vehicle_id):
                if not auto_register:
                    error = f"unknown vehicle {vehicle_id!r}"
                    break
                service.register_vehicle(vehicle_id)
            try:
                service.ingest(vehicle_id, seconds, day=day)
            except ValueError as exc:
                error = str(exc)
                break
            ingested += 1
        # Durability hook even on partial batches: whatever was applied
        # is already journaled, and sync_on_ack makes the 200/422 reply
        # imply those records are on stable storage.
        if self.durability is not None:
            self.durability.on_ingest_batch()
        return ingested, error

    # -- health ------------------------------------------------------------

    def health(self) -> FleetHealth:
        """The service's aggregated resilience report."""
        return self.service.health()

    # -- prediction --------------------------------------------------------

    def _ready_ids(self) -> list[str]:
        service = self.service
        return [
            vehicle_id
            for vehicle_id in service.vehicle_ids
            if service.series(vehicle_id).n_days > service.window
        ]

    def predict_all(self, *, skip_unready: bool = True) -> list[Forecast]:
        """Forecast the whole fleet from the latest ingested day.

        One :meth:`~repro.serving.service.MaintenancePredictionService.
        predict_batch` call; forecasts come back sorted by vehicle id;
        vehicles with fewer than ``window + 1`` observed days are
        skipped when ``skip_unready`` (else the underlying
        ``ValueError`` surfaces).
        """
        with self._track_inflight():
            service = self.service
            ids = self._ready_ids() if skip_unready else service.vehicle_ids
            return service.predict_batch(ids)

    def predict_many(
        self,
        vehicle_ids: Iterable[str],
        *,
        spans: list | None = None,
    ) -> list[Forecast]:
        """Batch-forecast a subset, in sorted vehicle order.

        ``spans`` aligns one trace span (or ``None``) per id *in the
        given order*: a micro-batch serves several requests with
        different traces, so the gateway passes each request's root
        span explicitly.  The one ``predict_batch`` call runs each
        vehicle's routing under its own span (so ladder events land on
        the right trace), and each traced request then gets an
        ``engine.predict`` child spanning the shared batch.  Sorting is
        stable, so spans stay attached to their ids.  Tracing only
        records — forecasts are bit-identical with spans on or off.
        """
        with self._track_inflight():
            ids = list(vehicle_ids)
            if spans is None:
                spans = [None] * len(ids)
            elif len(spans) != len(ids):
                raise ValueError(
                    f"spans must align with vehicle_ids: "
                    f"{len(spans)} != {len(ids)}."
                )
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = [ids[i] for i in order]
            spans = [spans[i] for i in order]
            t0 = time.perf_counter()
            forecasts = self.service.predict_batch(ids, spans=spans)
            t1 = time.perf_counter()
            for vehicle_id, span in zip(ids, spans):
                if span is not None:
                    span.tracer.record_span(
                        "engine.predict",
                        span,
                        t0,
                        t1,
                        vehicle_id=vehicle_id,
                        batched=True,
                    )
            return forecasts

    # -- lifecycle ---------------------------------------------------------

    def readiness(self) -> dict:
        """Liveness/readiness snapshot for the serving layer.

        ``ready`` counts vehicles with enough observed days
        (``> window``) to serve a forecast right now.
        """
        service = self.service
        ready = sum(
            1
            for vehicle_id in service.vehicle_ids
            if service.n_days(vehicle_id) > service.window
        )
        return {
            "vehicles": len(service.vehicle_ids),
            "ready": ready,
            "inflight": self._inflight,
            "durability": (
                None if self.durability is None else self.durability.status()
            ),
            "lifecycle": (
                None if self.lifecycle is None else self.lifecycle.counters()
            ),
        }

    def metrics_section(self) -> dict:
        """The engine-owned sections of a metrics snapshot.

        Built by the same producers the registry collectors call, but
        callable directly, so a sharded deployment can gather each
        shard's sections on that shard's own thread/process instead of
        reading another shard's state cross-thread at snapshot time.
        """
        return {
            name: producer()
            for name, producer in self._section_producers().items()
        }

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no batch operation is in flight.

        The gateway calls this during graceful shutdown after it has
        stopped feeding the engine; direct users can call it before
        snapshotting or persisting state.  Returns ``False`` when the
        timeout expires with work still running.
        """
        with self._inflight_cond:
            return self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout
            )
