"""Batch fleet engine: fleet-wide ingestion + batch prediction.

This module scales :class:`MaintenancePredictionService` to
fleet-sized traffic without changing a single predicted ``D̂_v(t)``:
:meth:`FleetEngine.predict_all` and :meth:`FleetEngine.predict_many`
make one
:meth:`~repro.serving.service.MaintenancePredictionService.predict_batch`
call, which stacks vehicles sharing a model into one kernel call, and
return forecasts sorted by vehicle id.  A read touches only the
vehicles it asks for and trains nothing: routing looks models up in
the service's one model table.  Models train where they go stale, at
the end of the ingest request that completes a cycle or moves the
donor pool (``MaintenancePredictionService._refresh_models``, the one
place that decides a model is stale).

Serial-equivalence contract: every forecast is bit-identical to what
the plain serial service would produce on the same history, because
training data, model seeds and routing are unchanged — only the
schedule differs.  ``tests/serving/test_fleet_engine.py`` enforces
this with exact equality.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
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

    Everything runs on the calling thread: an ingest call trains the
    models it made stale before it returns, and a read only looks
    models up.  Faults are injected below the engine, at the service's
    ``predictor_factory`` (see
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

        :meth:`ingest_day` and :meth:`ingest_records` then trigger
        periodic checkpoints, and :meth:`readiness` (hence the
        gateway's ``/v1/ready``) reports the durability status.  Call
        after ``manager.recover()``.
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

        One :meth:`~repro.serving.service.MaintenancePredictionService.
        ingest_batch` request in sorted id order, so monitor resolution
        is deterministic.  An unregistered id raises ``KeyError`` before
        anything is journaled or applied.  A batch covering the whole
        registered fleet journals no id list: replay is deterministic
        re-execution, so the sorted registry rebuilt by the preceding
        ``register`` records is the column order.  When the service
        carries an ingestion guard, one vehicle's dirty reading is
        screened per policy and the rest of the batch proceeds;
        without one, the first dirty reading raises after the readings
        before it were applied.
        """
        service = self.service
        unknown = usage_by_vehicle.keys() - service._vehicles.keys()
        if unknown:
            raise KeyError(
                f"Unknown vehicle {min(unknown)!r}; register it first."
            )
        ids = sorted(usage_by_vehicle)
        values = np.fromiter(
            map(usage_by_vehicle.__getitem__, ids),
            dtype=np.float64,
            count=len(ids),
        )
        whole_fleet = len(ids) == len(service._vehicles)
        _, error = service.ingest_batch(
            None if whole_fleet else ids, values, day=day
        )
        if self.durability is not None:
            self.durability.maybe_checkpoint()
        if error is not None:
            raise error

    def ingest_history(self, vehicle_id: str, usage) -> None:
        self.service.ingest_series(vehicle_id, usage)

    def ingest_records(
        self,
        records: list[tuple[str, float, int | None]],
        *,
        auto_register: bool = True,
    ) -> tuple[int, str | None]:
        """Apply gateway-shaped ``(vehicle_id, seconds, day)`` records.

        This is the ingest entry point shared by the in-process gateway
        lane and the sharded worker processes: one
        :meth:`~repro.serving.service.MaintenancePredictionService.
        ingest_batch` request, so the reply is sent only after the
        batch is on stable storage.  Records apply in the given order;
        the first failure stops the batch and is returned as
        ``(ingested_so_far, error)`` — whatever was applied before it
        stays applied.  With ``auto_register``, each unknown vehicle
        the batch reaches is registered first (one ``register`` record
        each); without it, an unknown vehicle is the failure.
        """
        service = self.service
        ids = [r[0] for r in records]
        seconds = [r[1] for r in records]
        if auto_register:
            # Up to and including the first reading an unguarded
            # service rejects: where the batch will stop.
            for vehicle_id in ids[: service.first_rejected(seconds) + 1]:
                if not service.has_vehicle(vehicle_id):
                    service.register_vehicle(vehicle_id)
        ingested, error = service.ingest_batch(
            ids, seconds, days=[r[2] for r in records]
        )
        if self.durability is not None:
            self.durability.maybe_checkpoint()
        if error is None:
            return ingested, None
        if not service.has_vehicle(ids[ingested]):
            return ingested, f"unknown vehicle {ids[ingested]!r}"
        return ingested, str(error)

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
            if service.n_days(vehicle_id) > service.window
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
        the right trace), and each traced request then gets one
        ``engine.predict`` child spanning the shared batch, carrying
        how many of the batch's vehicles it asked for.  Sorting is
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
            vehicles = Counter(span for span in spans if span is not None)
            for span, count in vehicles.items():
                span.tracer.record_span(
                    "engine.predict",
                    span,
                    t0,
                    t1,
                    vehicles=count,
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
