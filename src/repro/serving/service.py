"""Online next-maintenance prediction service.

The deployment the paper describes ("the data owner ... has decided to
put the present application under deployment"): a long-running service
that ingests daily utilization per vehicle, keeps each vehicle's model
fresh, routes every prediction request through the methodology matrix of
Section 4 —

* **old** vehicle -> its per-vehicle model (retrained whenever a new
  maintenance cycle completes);
* **semi-new** -> ``Model_Sim`` trained on the most similar old vehicle
  (falling back to the baseline when the fleet has no old vehicles yet);
* **new** -> ``Model_Uni`` trained on the old vehicles' first cycles —

and resolves past forecasts into the drift monitor once cycles complete
and the ground truth becomes known.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.categorize import VehicleCategory, categorize_usage
from ..core.coldstart import first_cycle_dataset
from ..core.cycles import IncrementalSeriesState
from ..core.predictors import BaselinePredictor
from ..core.registry import make_predictor
from ..core.series import VehicleSeries
from ..obs import NULL_STAGE, Observability, tracing
from ..dataprep.transformation import (
    RelationalDataset,
    build_relational_dataset,
)
from ..similarity.measures import most_similar
from .kernel_cache import CompiledModelCache
from .monitoring import DriftMonitor
from .persistence import ModelStore
from .reliability import (
    CircuitBreaker,
    FleetHealth,
    IngestionGuard,
    RetryPolicy,
    VehicleHealth,
)

__all__ = ["Forecast", "MaintenancePredictionService"]

#: Section-4 strategy ladder per category.  Routing takes the first
#: rung with a model; a rung without donors steps down silently, and
#: the resilient service also steps down on an open circuit or a
#: failure, ending at the Eq. 5-6 baseline (which needs only the
#: vehicle's own usage history).
_STRATEGY_LADDER: dict[VehicleCategory, tuple[str, ...]] = {
    VehicleCategory.OLD: ("per-vehicle", "similarity", "unified"),
    VehicleCategory.SEMI_NEW: ("similarity", "unified"),
    VehicleCategory.NEW: ("unified",),
}


@dataclass(frozen=True)
class Forecast:
    """A served prediction.

    ``degraded`` is ``True`` when the served strategy is not the one the
    Section-4 routing would normally pick — a training/prediction rung
    failed or its circuit breaker was open — and ``fallback_reason``
    then records why, rung by rung.
    """

    vehicle_id: str
    category: VehicleCategory
    strategy: str  # "per-vehicle", "similarity", "unified", "baseline"
    days_to_maintenance: float
    usage_left: float
    as_of_day: int
    donor_id: str | None = None
    degraded: bool = False
    fallback_reason: str | None = None
    model_version: int | None = None  # per-vehicle store version served

    def to_dict(self) -> dict:
        """JSON-ready view; :meth:`from_dict` round-trips it exactly.

        ``category`` is serialized as the :class:`VehicleCategory`
        member *name* (``"SEMI_NEW"``), not its value, so the pair
        survives any future value renames.
        """
        return {
            "vehicle_id": self.vehicle_id,
            "category": self.category.name,
            "strategy": self.strategy,
            "days_to_maintenance": self.days_to_maintenance,
            "usage_left": self.usage_left,
            "as_of_day": self.as_of_day,
            "donor_id": self.donor_id,
            "degraded": self.degraded,
            "fallback_reason": self.fallback_reason,
            "model_version": self.model_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Forecast":
        """Rebuild a forecast serialized by :meth:`to_dict`."""
        version = data.get("model_version")
        return cls(
            vehicle_id=data["vehicle_id"],
            category=VehicleCategory[data["category"]],
            strategy=data["strategy"],
            days_to_maintenance=float(data["days_to_maintenance"]),
            usage_left=float(data["usage_left"]),
            as_of_day=int(data["as_of_day"]),
            donor_id=data.get("donor_id"),
            degraded=bool(data.get("degraded", False)),
            fallback_reason=data.get("fallback_reason"),
            model_version=None if version is None else int(version),
        )


class _UsageBuffer:
    """Preallocated append-only utilization buffer for one vehicle.

    Replaces the per-vehicle Python list on the serving hot path:
    readings land in a preallocated float64 ndarray (doubled when
    full), so every consumer that calls ``np.asarray`` on the history
    — series derivation, categorization, similarity targets, feature
    rows — gets a zero-copy view instead of a list conversion.

    Views handed out by ``__array__`` are stable snapshots: appends
    write past the view's end, and a growth reallocation leaves the old
    buffer (and any views onto it) untouched.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, values=()):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        self._n = values.size
        self._data = np.empty(max(16, self._n), dtype=np.float64)
        self._data[: self._n] = values

    def append(self, value: float) -> None:
        if self._n == self._data.size:
            grown = np.empty(self._data.size * 2, dtype=np.float64)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n] = value
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._data[: self._n])

    def __getitem__(self, index):
        return self._data[: self._n][index]

    def __array__(self, dtype=None, copy=None):
        view = self._data[: self._n]
        if dtype is not None and np.dtype(dtype) != view.dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view


@dataclass
class _VehicleState:
    usage: _UsageBuffer = field(default_factory=_UsageBuffer)
    model: object | None = None
    model_trained_cycles: int = -1
    model_version: int | None = None  # store version of the serving model
    pinned_version: int | None = None  # operator pin; blocks retrain/promote
    sim_model: object | None = None
    sim_key: tuple | None = None  # (donor id, donor cycle count)
    # Model_Sim donor search answer: ((own days, donor epoch), donor id).
    nearest: tuple[tuple[int, int], str | None] | None = field(
        default=None, repr=False
    )
    pending: list = field(default_factory=list)  # (day, predicted, strategy)
    resolved_through_cycle: int = 0
    # The usage buffer is append-only, so the incremental C/L/D state
    # only moves forward: it folds in the days ingested since the last
    # series() call.
    cycles: IncrementalSeriesState | None = field(default=None, repr=False)


class _FleetIndex:
    """Who is OLD, and the Section-4.4 donor pool, kept current by ingest.

    Categories and donors are functions of the usage histories alone,
    and a history changes only when ingest appends a day.  Each append
    records its vehicle in :attr:`touched`; the first read after it
    (:meth:`MaintenancePredictionService._fleet_index`) re-categorizes
    just those vehicles.  Routing then costs O(batch + vehicles appended
    since the last read) instead of a fleet walk per vehicle; only a
    change of membership re-sorts the OLD ids or the donors.  Model
    state is never cached here: routing reads it live.
    """

    __slots__ = (
        "touched", "rank", "category", "old", "donors", "donor_ids", "epoch"
    )

    def __init__(self, vehicle_ids=()):
        ids = list(vehicle_ids)
        #: Vehicles registered or appended to since the last drain.
        self.touched: dict[str, None] = dict.fromkeys(ids)
        #: Registration position of every vehicle.
        self.rank: dict[str, int] = {vid: i for i, vid in enumerate(ids)}
        self.category: dict[str, VehicleCategory] = {}
        #: OLD vehicles in sorted id order -> series as of the last drain.
        self.old: dict[str, VehicleSeries] = {}
        #: OLD vehicles whose first cycle completed, in registration
        #: order (Model_Uni concatenates their first cycles in it).
        self.donors: dict[str, VehicleSeries] = {}
        self.donor_ids: frozenset[str] = frozenset()
        #: Bumped whenever a vehicle joins or leaves OLD or an OLD
        #: vehicle gets a day: a donor search answer from an older
        #: epoch may be stale.
        self.epoch = 0

    def register(self, vehicle_id: str) -> None:
        self.rank[vehicle_id] = len(self.rank)
        self.touched[vehicle_id] = None

    def drain(self, service: "MaintenancePredictionService") -> None:
        """Re-categorize the touched vehicles (no monotonicity assumed)."""
        touched, self.touched = self.touched, {}
        old, donors = self.old, self.donors
        old_moved = donors_moved = False
        for vid in touched:
            category = self.category[vid] = categorize_usage(
                np.asarray(service._vehicles[vid].usage), service.t_v
            )
            if category is VehicleCategory.OLD:
                series = service.series(vid)
                old_moved |= vid not in old
                old[vid] = series
                if series.first_cycle().completed:
                    donors_moved |= vid not in donors
                    donors[vid] = series
                else:
                    donors_moved |= donors.pop(vid, None) is not None
            elif vid in old:
                del old[vid]
                old_moved = True
                donors_moved |= donors.pop(vid, None) is not None
            else:
                continue
            self.epoch += 1
        if old_moved:
            self.old = dict(sorted(old.items()))
        if donors_moved:
            rank = self.rank.__getitem__
            self.donors = {vid: donors[vid] for vid in sorted(donors, key=rank)}
            self.donor_ids = frozenset(donors)


class _Plan:
    """One vehicle's trip through :meth:`MaintenancePredictionService.
    predict_batch`: its feature row, the ladder rung it routed to, the
    fallback reasons collected on the way, and the prediction."""

    __slots__ = (
        "vehicle_id",
        "category",
        "row",
        "usage_left",
        "today",
        "span",
        "rung",
        "strategy",
        "model",
        "donor_id",
        "scope",
        "reasons",
        "prediction",
    )

    def __init__(self, vehicle_id, category, row, usage_left, today, span):
        self.vehicle_id = vehicle_id
        self.category = category
        self.row = row
        self.usage_left = usage_left
        self.today = today
        self.span = span
        self.reasons: list[str] = []


#: Audit-trail cap for :attr:`MaintenancePredictionService.lifecycle_log`.
_LIFECYCLE_LOG_LIMIT = 512

#: Valid actions for :meth:`MaintenancePredictionService.apply_lifecycle_event`.
_LIFECYCLE_ACTIONS = ("promote", "rollback", "pin", "unpin")


class MaintenancePredictionService:
    """Stateful fleet prediction service.

    Parameters
    ----------
    t_v:
        Usage budget per maintenance cycle (shared fleet-wide, as in
        the paper).
    window:
        Feature lag window for every model.
    algorithm:
        Registry key for the regression models (default the paper's
        best, RF).
    store:
        Optional :class:`ModelStore`; fitted models are persisted there
        with vehicle/strategy metadata.
    monitor:
        Optional :class:`DriftMonitor` fed with resolved residuals.
    similarity_measure:
        Donor-selection measure for semi-new vehicles.
    guard:
        Optional :class:`IngestionGuard`; when set, :meth:`ingest` never
        raises on a dirty reading — each anomaly is rejected, clamped,
        imputed or quarantined per the guard's policy table.  When
        ``None`` (default) invalid readings raise as before.
    breaker:
        Optional :class:`CircuitBreaker` (``True`` for defaults).  When
        set, prediction becomes degraded-mode tolerant: a failing
        training/prediction rung steps down the Section-4 ladder to the
        Eq. 5-6 baseline instead of raising, and persistence errors are
        swallowed and counted.  On clean data every forecast stays
        bit-identical to the non-resilient service.
    retry:
        Optional :class:`RetryPolicy` applied around model persistence
        (transient save I/O errors are retried with jittered backoff).
    predictor_factory:
        Override for :func:`~repro.core.registry.make_predictor`
        (the fault-injection harness hooks in here).
    obs:
        Optional :class:`~repro.obs.Observability`; when attached, the
        ingest / feature-build / train / predict stages are profiled
        and ladder fallbacks land as trace span events.  ``None``
        (default) keeps every hook a no-op.
    retrain_on_cycle:
        ``True`` (the historical contract) retrains a vehicle's model
        whenever a new maintenance cycle completes.  ``False`` freezes
        trained champions — the per-vehicle model keeps serving across
        cycle boundaries and is only replaced via
        :meth:`apply_lifecycle_event` (the lifecycle controller's
        evaluation-gated promotion path).
    """

    def __init__(
        self,
        t_v: float,
        window: int = 6,
        algorithm: str = "RF",
        store: ModelStore | None = None,
        monitor: DriftMonitor | None = None,
        similarity_measure="average_usage",
        guard: IngestionGuard | None = None,
        breaker: CircuitBreaker | bool | None = None,
        retry: RetryPolicy | None = None,
        predictor_factory=None,
        obs: Observability | None = None,
        retrain_on_cycle: bool = True,
    ):
        if t_v <= 0:
            raise ValueError(f"t_v must be positive, got {t_v}.")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}.")
        self.t_v = float(t_v)
        self.window = window
        self.algorithm = algorithm
        self.store = store
        self.monitor = monitor
        self.similarity_measure = similarity_measure
        self.guard = guard
        if breaker is True:
            breaker = CircuitBreaker()
        elif breaker is False:
            breaker = None
        self.breaker: CircuitBreaker | None = breaker
        self.retry = retry
        self.obs = obs
        # ``False`` hands model freshness over to the lifecycle
        # subsystem: a trained champion keeps serving across cycle
        # boundaries until an evaluation-gated promotion replaces it.
        self.retrain_on_cycle = retrain_on_cycle
        #: Audit trail of lifecycle decisions (bounded ring, newest last).
        self.lifecycle_log: list[dict] = []
        self._make_predictor = predictor_factory or make_predictor
        # Write-ahead journal (duck-typed: anything with ``append``).
        # ``None`` keeps journaling entirely off the ingest hot path;
        # the recovery manager wires one in after replay completes.
        self.journal = None
        self._journal_depth = 0  # > 0 suppresses journaling (replay)
        self._vehicles: dict[str, _VehicleState] = {}
        self._index = _FleetIndex()
        # Fitted Model_Uni per donor-id set: the full pool NEW vehicles
        # serve, and the pool less one OLD vehicle that a breaker
        # step-down routes to unified, each fit once.
        self._unified_models: dict[frozenset[str], object] = {}
        #: Compiled-kernel cache of the predict path, keyed by serving
        #: scope and weakly on the live model.
        self.kernel_cache = CompiledModelCache()
        # Shared fitted Model_Sim per donor: every semi-new vehicle with
        # the same (deterministically trained) donor serves the same
        # predictor object, so the batched path can stack their rows
        # into one kernel call.  Keyed donor_id -> (sim_key, predictor).
        self._sim_donor_models: dict[str, tuple[tuple, object]] = {}
        self._persist_lock = threading.Lock()
        self._fallback_counts: dict[str, Counter] = {}
        self._persist_failures = 0

    # -- journaling ----------------------------------------------------------

    @contextmanager
    def journal_suspended(self):
        """Suppress journaling inside the block (recovery replay, and
        bulk paths that journaled one record for the whole batch)."""
        self._journal_depth += 1
        try:
            yield
        finally:
            self._journal_depth -= 1

    def _journal_append(self, kind: str, **payload) -> int | None:
        """Journal one mutation record; no-op without an active journal.

        The per-reading :meth:`ingest` hot path inlines this check
        instead of calling here — a method call plus kwargs dict per
        reading would cost real throughput when journaling is off.
        """
        if self.journal is None or self._journal_depth:
            return None
        return self.journal.append(kind, **payload)

    # -- ingestion -----------------------------------------------------------

    def register_vehicle(self, vehicle_id: str) -> None:
        # Journal-before-apply: replay re-executes the same call, so a
        # duplicate registration re-raises identically during recovery.
        if self.journal is not None and self._journal_depth == 0:
            self.journal.append("register", v=vehicle_id)
        if vehicle_id in self._vehicles:
            raise ValueError(f"Vehicle {vehicle_id!r} already registered.")
        self._vehicles[vehicle_id] = _VehicleState()
        self._index.register(vehicle_id)

    @property
    def vehicle_ids(self) -> list[str]:
        return sorted(self._vehicles)

    def has_vehicle(self, vehicle_id: str) -> bool:
        """Whether the vehicle is registered (O(1), no state mutation)."""
        return vehicle_id in self._vehicles

    def n_days(self, vehicle_id: str) -> int:
        """Observed days for one vehicle without deriving its series.

        The gateway's admission check calls this per request; unlike
        :meth:`series` it never extends the cycle state, so it is safe
        from any thread.
        """
        return len(self._state(vehicle_id).usage)

    def _state(self, vehicle_id: str) -> _VehicleState:
        try:
            return self._vehicles[vehicle_id]
        except KeyError:
            raise KeyError(
                f"Unknown vehicle {vehicle_id!r}; register it first."
            ) from None

    def _stage(self, name: str, **fields):
        """Profiling hook for one pipeline stage; no-op without obs."""
        obs = self.obs
        return NULL_STAGE if obs is None else obs.stage(name, **fields)

    def ingest(
        self, vehicle_id: str, daily_seconds: float, *, day: int | None = None
    ) -> None:
        """Append one day of utilization for a vehicle.

        Without a :attr:`guard`, an out-of-range or non-finite reading
        raises ``ValueError`` (the historical contract).  With a guard,
        the reading is screened instead — rejected, clamped, imputed or
        quarantined per policy — and this method never raises on dirty
        data.  ``day`` is the report's day index; providing it enables
        duplicate-day and out-of-order detection.
        """
        with self._stage("ingest", vehicle_id=vehicle_id):
            # Journal-before-apply, inlined (see _journal_append): the
            # journal holds the *requested* reading, pre-guard, so
            # replay routes it through the same screening and lands on
            # the same applied state.
            if self.journal is not None and self._journal_depth == 0:
                if day is None:
                    self.journal.append("ingest", v=vehicle_id, s=daily_seconds)
                else:
                    self.journal.append(
                        "ingest", v=vehicle_id, s=daily_seconds, d=day
                    )
            if self.guard is None:
                if not np.isfinite(daily_seconds) or not 0 <= daily_seconds <= 86_400:
                    raise ValueError(
                        f"daily_seconds must be in [0, 86400], got {daily_seconds}."
                    )
                state = self._state(vehicle_id)
                self._append(vehicle_id, state, float(daily_seconds))
                return
            state = self._state(vehicle_id)
            value = self.guard.admit(
                vehicle_id, daily_seconds, day=day, recent=state.usage
            )
            if value is not None:
                self._append(vehicle_id, state, value)

    def _append(self, vehicle_id: str, state: _VehicleState, value) -> None:
        """The one place a usage history grows: the routing index hears
        of every appended day through here."""
        state.usage.append(value)
        self._index.touched[vehicle_id] = None
        self._resolve_forecasts(vehicle_id)

    def ingest_series(
        self, vehicle_id: str, usage, *, start_day: int | None = None
    ) -> None:
        """Append many days atomically: validate all, then commit.

        Without a guard, any invalid reading raises *before* a single
        day is appended — a bad element mid-array no longer leaves the
        earlier days behind.  With a guard, every reading is screened
        individually (the guard never raises).  ``start_day`` gives the
        day index of ``usage[0]`` for the guard's ordering checks.
        """
        values = np.asarray(usage, dtype=np.float64)
        self._state(vehicle_id)  # unknown-vehicle check before any mutation
        # One bulk journal record for the whole batch (base64 float64
        # payload, bit-exact); the per-element ingests below run with
        # journaling suspended.
        if start_day is None:
            self._journal_append("series", v=vehicle_id, u=values)
        else:
            self._journal_append("series", v=vehicle_id, u=values, d0=start_day)
        if self.guard is None and values.size:
            valid = np.isfinite(values) & (values >= 0) & (values <= 86_400)
            if not valid.all():
                index = int(np.argmax(~valid))
                raise ValueError(
                    f"ingest_series for {vehicle_id!r} rejected: element "
                    f"{index} ({values[index]}) outside [0, 86400]; "
                    "no days were ingested."
                )
        with self.journal_suspended():
            for offset, seconds in enumerate(values):
                day = None if start_day is None else start_day + offset
                self.ingest(vehicle_id, float(seconds), day=day)

    # -- vehicle views ---------------------------------------------------------

    def series(self, vehicle_id: str) -> VehicleSeries:
        """The vehicle's ``C``/``L``/``D`` series as of its latest day.

        Only the days ingested since the previous call are folded into
        the vehicle's incremental cycle state — O(new days) instead of
        re-deriving the whole history, and bit-identical to
        :func:`~repro.core.cycles.derive_series`.
        """
        state = self._state(vehicle_id)
        cycles = state.cycles
        if cycles is None:
            cycles = state.cycles = IncrementalSeriesState(self.t_v)
        if cycles.n_days < len(state.usage):
            cycles.extend(state.usage[cycles.n_days :])
        bundle = cycles.bundle()
        return VehicleSeries(
            vehicle_id=vehicle_id,
            usage=bundle.usage,
            t_v=self.t_v,
            _bundle=bundle,
        )

    def _fleet_index(self) -> _FleetIndex:
        """The routing index, after folding in the days appended since
        the last read."""
        index = self._index
        if index.touched:
            index.drain(self)
        return index

    def category(self, vehicle_id: str) -> VehicleCategory:
        self._state(vehicle_id)
        return self._fleet_index().category[vehicle_id]

    def old_vehicles(self) -> dict[str, VehicleSeries]:
        """OLD vehicles in sorted id order -> series as of their latest
        day.  The one answer to "who is OLD"; treat it as read-only."""
        return self._fleet_index().old

    # -- model management --------------------------------------------------------

    def _persist(self, key: str, predictor, **metadata) -> int | None:
        """Best-effort persistence: retried, and in resilient mode a
        persistent failure is swallowed and counted (a prediction should
        never fail because the model could not be *saved*).  Returns the
        stored version number, ``None`` without a store or on a
        swallowed failure."""
        if self.store is None:
            return None

        def _save() -> int:
            with self._persist_lock:
                return self.store.save(
                    key,
                    predictor,
                    {
                        "algorithm": self.algorithm,
                        "window": self.window,
                        **metadata,
                    },
                )

        try:
            if self.retry is not None:
                return self.retry.call(_save)
            return _save()
        except Exception:
            if self.breaker is None:
                raise
            self._persist_failures += 1
            return None

    def _fit_vehicle_model(self, vehicle_id: str):
        """A fresh per-vehicle model fitted on the vehicle's history.

        The one per-vehicle fit: lazy training and lifecycle
        challengers both call it.  It installs and persists nothing,
        and raises ``ValueError`` while the vehicle has no labeled
        records.
        """
        series = self.series(vehicle_id)
        dataset = build_relational_dataset(series.bundle, self.window)
        if dataset.n_records == 0:
            raise ValueError(
                f"Vehicle {vehicle_id!r} has no labeled records yet."
            )
        predictor = self._make_predictor(self.algorithm)
        predictor.fit(dataset, usage=series.usage)
        return predictor

    def _ensure_vehicle_model(self, vehicle_id: str):
        """Per-vehicle model, retrained when a new cycle has completed.

        The one place that decides a per-vehicle model is stale: every
        read that routes a vehicle to its own model asks here.  Besides
        this retrain, only lifecycle events replace the model.  A
        pinned vehicle (see :meth:`apply_lifecycle_event`) always
        serves its pinned store version — no retraining, however stale.
        With :attr:`retrain_on_cycle` off, an already-trained champion
        keeps serving across cycle boundaries (lifecycle promotion is
        then the only replacement path).
        """
        state = self._state(vehicle_id)
        if state.pinned_version is not None:
            if (
                state.model is not None
                and state.model_version == state.pinned_version
            ):
                return state.model
            if self.store is None:
                raise ValueError(
                    f"Vehicle {vehicle_id!r} is pinned to version "
                    f"{state.pinned_version} but the service has no store."
                )
            artifact = self.store.load(
                f"{vehicle_id}.per-vehicle", state.pinned_version
            )
            self.install_model(
                vehicle_id,
                artifact.predictor,
                trained_cycles=int(
                    artifact.metadata.get("trained_cycles", -1)
                ),
                version=artifact.version,
            )
            return state.model
        series = self.series(vehicle_id)
        n_cycles = len(series.completed_cycles)
        if (
            state.model is None
            and state.model_version is not None
            and self.store is not None
        ):
            # Checkpoint restore: the state carries a (possibly promoted)
            # version number without its in-memory model.  Reload that
            # exact artifact rather than retraining over the promotion.
            try:
                artifact = self.store.load(
                    f"{vehicle_id}.per-vehicle",
                    state.model_version,
                    quarantine=False,
                )
            except Exception:
                state.model_version = None  # pruned/corrupt: retrain below
            else:
                self.install_model(
                    vehicle_id,
                    artifact.predictor,
                    trained_cycles=int(
                        artifact.metadata.get("trained_cycles", -1)
                    ),
                    version=artifact.version,
                )
        if state.model is not None and (
            not self.retrain_on_cycle
            or state.model_trained_cycles == n_cycles
        ):
            return state.model
        with self._stage("train", strategy="per-vehicle", vehicle_id=vehicle_id):
            predictor = self._fit_vehicle_model(vehicle_id)
        self.install_model(
            vehicle_id,
            predictor,
            trained_cycles=n_cycles,
            version=self._persist(
                f"{vehicle_id}.per-vehicle",
                predictor,
                strategy="per-vehicle",
                trained_cycles=n_cycles,
            ),
        )
        return predictor

    def _ensure_unified_model(self, exclude: str | None = None):
        """``(Model_Uni, donor-id set)`` over the old vehicles' first
        cycles, leaving out ``exclude``; ``(None, empty set)`` without
        donors.  Each distinct donor set fits once."""
        index = self._fleet_index()
        donor_ids = index.donor_ids
        if exclude in donor_ids:
            donor_ids = donor_ids - {exclude}
        if not donor_ids:
            return None, donor_ids
        predictor = self._unified_models.get(donor_ids)
        if predictor is not None:
            return predictor, donor_ids
        donors = [s for vid, s in index.donors.items() if vid in donor_ids]
        with self._stage("train", strategy="unified", donors=len(donors)):
            merged = RelationalDataset.concatenate(
                [first_cycle_dataset(s, self.window) for s in donors]
            )
            predictor = self._make_predictor(self.algorithm)
            predictor.fit(merged)
        # Keep only the pools routing can still ask for: the full pool
        # and the full pool less one OLD vehicle.
        full = index.donor_ids
        self._unified_models = {
            ids: model
            for ids, model in self._unified_models.items()
            if ids <= full and len(full) - len(ids) <= 1
        }
        self._unified_models[donor_ids] = predictor
        self._persist(
            "fleet.unified",
            predictor,
            strategy="unified",
            donors=sorted(donor_ids),
        )
        return predictor, donor_ids

    def _similarity_model(self, vehicle_id: str):
        """``Model_Sim`` for one semi-new vehicle; None without donors.

        The donor search answer is remembered on the vehicle's state,
        keyed on (its own length, donor epoch): it can only change when
        the target or a donor gets a day.  The fitted donor model is
        cached keyed on (donor id, donor cycle count) — like the
        per-vehicle and unified paths — so repeated predictions between
        donor changes do not re-fit (the donor's *first* cycle, the
        training data, is frozen once completed).
        """
        index = self._fleet_index()
        state = self._state(vehicle_id)
        key = (len(state.usage), index.epoch)
        if state.nearest is not None and state.nearest[0] == key:
            donor_id = state.nearest[1]
        else:
            candidates = {
                vid: s.usage
                for vid, s in index.donors.items()
                if vid != vehicle_id
            }
            donor_id = None
            if candidates:
                donor_id, _ = most_similar(
                    np.asarray(state.usage),
                    candidates,
                    measure=self.similarity_measure,
                )
            state.nearest = (key, donor_id)
        if donor_id is None:
            return None, None
        donor = index.donors[donor_id]
        cache_key = (donor_id, len(donor.completed_cycles))
        if state.sim_model is not None and state.sim_key == cache_key:
            return state.sim_model, donor_id
        # One fitted model per donor, shared by every target vehicle
        # that routes to it: training is deterministic (fixed seed,
        # donor-only data), so sharing is bit-identical to per-target
        # fits — and a shared object is what lets predict_batch stack
        # same-donor vehicles into one kernel call.
        shared = self._sim_donor_models.get(donor_id)
        if shared is not None and shared[0] == cache_key:
            predictor = shared[1]
        else:
            with self._stage(
                "train",
                strategy="similarity",
                vehicle_id=vehicle_id,
                donor=donor_id,
            ):
                predictor = self._make_predictor(self.algorithm)
                predictor.fit(
                    first_cycle_dataset(donor, self.window),
                    usage=donor.usage[: donor.first_cycle().end + 1],
                )
            self._sim_donor_models[donor_id] = (cache_key, predictor)
        state.sim_model = predictor
        state.sim_key = cache_key
        self._persist(
            f"{vehicle_id}.similarity",
            predictor,
            strategy="similarity",
            donor=donor_id,
        )
        return predictor, donor_id

    def _baseline_model(self, vehicle_id: str):
        state = self._state(vehicle_id)
        predictor = BaselinePredictor()
        dummy = RelationalDataset(
            X=np.zeros((0, self.window + 1)),
            y=np.zeros(0),
            t_index=np.zeros(0, dtype=np.intp),
            window=self.window,
        )
        predictor.fit(dummy, usage=np.asarray(state.usage))
        return predictor

    # -- model lifecycle -------------------------------------------------------

    def _load_stored_model(self, vehicle_id: str, version: int | None):
        """Tolerant store load for lifecycle installs; ``None`` on any
        failure (journal replay must succeed even when an artifact was
        pruned or the store moved — the vehicle then retrains lazily)."""
        if self.store is None:
            return None
        try:
            artifact = self.store.load(
                f"{vehicle_id}.per-vehicle", version, quarantine=False
            )
        except Exception:
            return None
        return artifact.predictor

    def install_model(
        self,
        vehicle_id: str,
        predictor,
        *,
        trained_cycles: int,
        version: int | None = None,
    ) -> None:
        """Atomically swap a vehicle's serving model.

        Every per-vehicle model — trained or retrained on predict,
        promoted, rolled back or reloaded — is installed here.
        Metadata lands first and the ``model`` reference is assigned
        last — a concurrent :meth:`predict` sees either the old
        champion or the fully-described new one, never a
        half-installed model (zero serving interruption).
        """
        state = self._state(vehicle_id)
        state.model_trained_cycles = int(trained_cycles)
        state.model_version = None if version is None else int(version)
        state.model = predictor
        # The kernel cache already misses on the new model object; this
        # only stops it pinning the old champion's flattened tables.
        self.kernel_cache.invalidate(f"{vehicle_id}:per-vehicle")

    def apply_lifecycle_event(
        self,
        action: str,
        vehicle_id: str,
        *,
        version: int | None = None,
        trained_cycles: int | None = None,
        reason: str | None = None,
        predictor=None,
    ) -> dict:
        """Apply one journaled lifecycle decision to the serving state.

        Actions: ``promote`` (install an evaluation-gated challenger as
        the new champion), ``rollback`` / ``pin`` (pin the vehicle to a
        stored version and serve it), ``unpin`` (release the pin; the
        normal freshness rules apply again).  The decision is journaled
        *before* it is applied, so a crash mid-install replays to the
        same state; replay passes no ``predictor`` and reloads the
        artifact from the store (or leaves the model to lazy retrain
        when the artifact is gone).  Returns the audit-log entry.
        """
        if action not in _LIFECYCLE_ACTIONS:
            raise ValueError(
                f"Unknown lifecycle action {action!r}; "
                f"expected one of {_LIFECYCLE_ACTIONS}."
            )
        state = self._state(vehicle_id)
        if action in ("rollback", "pin") and version is None:
            raise ValueError(f"Lifecycle {action} requires a version.")
        if self.journal is not None and self._journal_depth == 0:
            payload = {"a": action, "v": vehicle_id}
            if version is not None:
                payload["ver"] = int(version)
            if trained_cycles is not None:
                payload["c"] = int(trained_cycles)
            if reason is not None:
                payload["r"] = reason
            self.journal.append("lifecycle", **payload)
        if action == "promote":
            state.pinned_version = None
            model = predictor
            if model is None:
                model = self._load_stored_model(vehicle_id, version)
            if model is not None:
                self.install_model(
                    vehicle_id,
                    model,
                    trained_cycles=(
                        -1 if trained_cycles is None else trained_cycles
                    ),
                    version=version,
                )
            else:
                # Replay with the artifact gone: drop to deterministic
                # lazy retraining instead of serving a stale champion.
                state.model = None
                state.model_trained_cycles = -1
                state.model_version = None
        elif action in ("rollback", "pin"):
            state.pinned_version = int(version)
            model = predictor
            if model is None:
                model = self._load_stored_model(vehicle_id, version)
            if model is not None:
                self.install_model(
                    vehicle_id,
                    model,
                    trained_cycles=(
                        -1 if trained_cycles is None else trained_cycles
                    ),
                    version=version,
                )
            else:
                # Pinned but not loadable right now: the next predict
                # resolves the pin through _ensure_vehicle_model (and
                # raises there if the artifact truly is gone).
                state.model = None
                state.model_version = None
        else:  # unpin
            state.pinned_version = None
        event = {
            "action": action,
            "vehicle_id": vehicle_id,
            "version": None if version is None else int(version),
            "reason": reason,
        }
        self.lifecycle_log.append(event)
        if len(self.lifecycle_log) > _LIFECYCLE_LOG_LIMIT:
            del self.lifecycle_log[: -_LIFECYCLE_LOG_LIMIT]
        tracing.add_event(
            "lifecycle",
            action=action,
            vehicle_id=vehicle_id,
            version=version,
            reason=reason,
        )
        return event

    # -- prediction -----------------------------------------------------------

    def _feature_row(self, series: VehicleSeries) -> tuple[np.ndarray, float, int]:
        today = series.n_days - 1
        if today < self.window:
            raise ValueError(
                f"Vehicle {series.vehicle_id!r} has {series.n_days} days; "
                f"window={self.window} needs at least {self.window + 1}."
            )
        usage_left = series.usage_left[today]
        row = np.empty((1, self.window + 1))
        row[0, 0] = usage_left
        if self.window:
            # Lags 1..W are usage[today-1] down to usage[today-W]: one
            # reversed slice instead of a per-lag Python loop.
            row[0, 1:] = series.usage[today - self.window : today][::-1]
        return row, float(usage_left), today

    def _rung_model(self, strategy: str, vehicle_id: str):
        """``(model, donor_id, kernel scope)`` for one ladder rung; a
        ``None`` model means the rung has no donors yet.  The scope is
        ``(cache scope, version token)`` for :attr:`kernel_cache`."""
        if strategy == "per-vehicle":
            model = self._ensure_vehicle_model(vehicle_id)
            version = self._state(vehicle_id).model_version
            return model, None, (f"{vehicle_id}:per-vehicle", version)
        if strategy == "similarity":
            model, donor_id = self._similarity_model(vehicle_id)
            sim_key = self._state(vehicle_id).sim_key
            return model, donor_id, (f"sim:{donor_id}", sim_key)
        model, donor_ids = self._ensure_unified_model(exclude=vehicle_id)
        return model, None, ("fleet:unified", donor_ids)

    def _count_fallback(self, vehicle_id: str, strategy: str) -> None:
        self._fallback_counts.setdefault(vehicle_id, Counter())[strategy] += 1

    def _rung_failed(self, plan: _Plan, exc: Exception) -> None:
        """Charge a failed train or predict to the plan's current rung."""
        self.breaker.record_failure(f"{plan.vehicle_id}:{plan.strategy}")
        error = f"{type(exc).__name__}: {exc}"
        plan.reasons.append(f"{plan.strategy}: {error}")
        tracing.add_event(
            "rung-failed",
            vehicle_id=plan.vehicle_id,
            strategy=plan.strategy,
            error=error,
        )

    def _route(self, plan: _Plan, rung: int) -> None:
        """Point ``plan`` at the first servable ladder rung from ``rung``.

        A rung without donors steps down silently — that is normal
        Section-4 routing, not degradation.  Without a breaker a failing
        rung raises; with one, an open circuit or a failed train steps
        down and is recorded in ``plan.reasons``.  Past the last rung
        the vehicle gets the Eq. 5-6 baseline.
        """
        vehicle_id = plan.vehicle_id
        ladder = _STRATEGY_LADDER[plan.category]
        breaker = self.breaker
        for index in range(rung, len(ladder)):
            plan.strategy = strategy = ladder[index]
            if breaker is None:
                model, donor_id, scope = self._rung_model(strategy, vehicle_id)
            elif not breaker.allow(f"{vehicle_id}:{strategy}"):
                plan.reasons.append(f"{strategy}: circuit open")
                tracing.add_event(
                    "breaker-open", vehicle_id=vehicle_id, strategy=strategy
                )
                continue
            else:
                try:
                    model, donor_id, scope = self._rung_model(
                        strategy, vehicle_id
                    )
                except Exception as exc:
                    self._rung_failed(plan, exc)
                    continue
            if model is not None:
                plan.rung = index
                plan.model, plan.donor_id, plan.scope = model, donor_id, scope
                return
        plan.rung = len(ladder)
        plan.strategy = "baseline"
        plan.model = self._baseline_model(vehicle_id)
        plan.donor_id = plan.scope = None

    def _plan(self, vehicle_id: str, span) -> _Plan:
        """Step 1 for one vehicle: feature row plus Section-4 routing."""
        series = self.series(vehicle_id)
        if series.n_days == 0:
            raise ValueError(f"Vehicle {vehicle_id!r} has no data yet.")
        category = self._fleet_index().category[vehicle_id]
        with self._stage("feature-build", vehicle_id=vehicle_id):
            row, usage_left, today = self._feature_row(series)
        plan = _Plan(vehicle_id, category, row, usage_left, today, span)
        with tracing.activate(span):
            self._route(plan, 0)
        return plan

    def _run_kernels(self, plans: list[_Plan]) -> list[_Plan]:
        """Step 2: one kernel call per shared model object.

        Kernels flagged not batch-safe (linear matvecs) run one row at a
        time, as do models without a compiled kernel, through their own
        trusted ``predict``.  With a breaker, a failed call charges one
        failure to each vehicle it covered and re-routes those vehicles
        one rung down; they are returned for another pass.
        """
        groups: dict[int, list[_Plan]] = {}
        for plan in plans:
            groups.setdefault(id(plan.model), []).append(plan)
        breaker = self.breaker
        rerouted = []
        for group in groups.values():
            model, scope = group[0].model, group[0].scope
            compiled = (
                None
                if scope is None
                else self.kernel_cache.get(scope[0], model, scope[1])
            )
            if compiled is not None:
                predict = compiled.predict
            elif getattr(model, "trusted_predict", False):
                predict = partial(model.predict, validate=False)
            else:
                predict = model.predict
            if compiled is not None and compiled.batch_safe and len(group) > 1:
                calls = [(group, np.concatenate([p.row for p in group]))]
            else:
                calls = [([plan], plan.row) for plan in group]
            for members, X in calls:
                try:
                    out = predict(X)
                except Exception as exc:
                    if breaker is None or members[0].strategy == "baseline":
                        raise
                    for plan in members:
                        with tracing.activate(plan.span):
                            self._rung_failed(plan, exc)
                            self._route(plan, plan.rung + 1)
                    rerouted.extend(members)
                    continue
                if compiled is not None:
                    self.kernel_cache.record_batch(len(members))
                for plan, value in zip(members, out):
                    plan.prediction = float(max(value, 0.0))
                    if breaker is not None and plan.strategy != "baseline":
                        breaker.record_success(
                            f"{plan.vehicle_id}:{plan.strategy}"
                        )
        return rerouted

    def _forecast(self, plan: _Plan) -> Forecast:
        """Step 3 for one vehicle: pending record, fallback accounting."""
        vehicle_id, strategy = plan.vehicle_id, plan.strategy
        state = self._state(vehicle_id)
        if self.monitor is not None:  # the only reader of resolved forecasts
            state.pending.append((plan.today, plan.prediction, strategy))
        reason = "; ".join(plan.reasons) or None
        if reason is not None:
            self._count_fallback(vehicle_id, strategy)
            with tracing.activate(plan.span):
                tracing.add_event(
                    "fallback",
                    vehicle_id=vehicle_id,
                    strategy=strategy,
                    fallback_reason=reason,
                )
        return Forecast(
            vehicle_id=vehicle_id,
            category=plan.category,
            strategy=strategy,
            days_to_maintenance=plan.prediction,
            usage_left=plan.usage_left,
            as_of_day=plan.today,
            donor_id=plan.donor_id,
            degraded=reason is not None,
            fallback_reason=reason,
            model_version=(
                state.model_version if strategy == "per-vehicle" else None
            ),
        )

    def predict(self, vehicle_id: str) -> Forecast:
        """Forecast days to next maintenance from the latest ingested day
        — :meth:`predict_batch` of one vehicle."""
        return self.predict_batch([vehicle_id])[0]

    def predict_batch(self, vehicle_ids, spans=None) -> list[Forecast]:
        """Forecast many vehicles through shared compiled kernels.

        The one prediction pipeline, in three steps:

        1. route every vehicle through the Section-4 matrix in input
           order (training and model caches exactly as consecutive
           single predictions would), the breaker ladder included;
        2. group the vehicles by the *model object* they routed to and
           make one kernel call per group; with a breaker, a failed
           call re-routes its vehicles one rung down and repeats;
        3. record pending forecasts and build the :class:`Forecast`
           objects in input order.

        Grouping is sound because tree-ensemble kernels are pure
        gathers plus row-separable elementwise aggregation — row ``i``
        of a stacked batch is bitwise the single-row prediction.

        With a :attr:`breaker`, a failing rung steps down the ladder
        (ending at the Eq. 5-6 baseline) and the forecast is flagged
        ``degraded`` with the reason; without one, a failure raises.
        ``spans`` aligns one trace span (or ``None``) per id: each
        vehicle's routing runs with its span active, so ladder events
        land on the trace of the request that asked for it.
        """
        ids = list(vehicle_ids)
        with self._stage("predict", vehicles=len(ids)):
            plans = [
                self._plan(vehicle_id, None if spans is None else spans[i])
                for i, vehicle_id in enumerate(ids)
            ]
            pending = plans
            while pending:
                pending = self._run_kernels(pending)
            return [self._forecast(plan) for plan in plans]

    # -- health ----------------------------------------------------------------

    def health(self) -> FleetHealth:
        """Aggregated resilience report: guard, fallback and breaker
        counters per vehicle, plus persistence failures."""
        ids = set(self._vehicles)
        if self.guard is not None:
            ids.update(self.guard.vehicle_ids)
        breaker_by_vehicle: dict[str, dict] = {}
        if self.breaker is not None:
            for key, state in self.breaker.snapshot().items():
                vid, _, strategy = key.rpartition(":")
                breaker_by_vehicle.setdefault(vid, {})[strategy] = state
        guard = self.guard
        vehicles = {
            vid: VehicleHealth(
                vehicle_id=vid,
                accepted=guard.accepted_count(vid) if guard else 0,
                anomalies=guard.anomaly_counts(vid) if guard else {},
                policies=guard.policy_counts(vid) if guard else {},
                quarantined=len(guard.dead_letters(vid)) if guard else 0,
                fallbacks=dict(self._fallback_counts.get(vid, {})),
                breaker=breaker_by_vehicle.get(vid, {}),
            )
            for vid in sorted(ids)
        }
        return FleetHealth(
            vehicles=vehicles,
            persist_failures=self._persist_failures,
            dead_letter_overflow=guard.overflow_count() if guard else 0,
        )

    # -- checkpoint state ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready snapshot of everything a restart cannot re-derive.

        Covered: usage histories, pending forecasts, guard counters and
        dead letters, breaker states, drift residuals, fallback and
        persistence counters, plus the configuration fingerprint that
        :meth:`load_state_dict` validates.  Models are deliberately
        *not* snapshotted — they retrain deterministically from the
        usage histories (the equivalence suite pins this); the latest
        persisted version per store key is recorded informationally.
        """
        vehicles = {}
        for vid in sorted(self._vehicles):
            state = self._vehicles[vid]
            vehicles[vid] = {
                "usage": [float(x) for x in state.usage],
                "pending": [
                    [int(day), float(predicted), strategy]
                    for day, predicted, strategy in state.pending
                ],
                "resolved_through_cycle": state.resolved_through_cycle,
                "model_version": state.model_version,
                "pinned_version": state.pinned_version,
            }
        snapshot = {
            "schema": 1,
            "config": {
                "t_v": self.t_v,
                "window": self.window,
                "algorithm": self.algorithm,
            },
            "vehicles": vehicles,
            "fallback_counts": {
                vid: dict(counts)
                for vid, counts in sorted(self._fallback_counts.items())
            },
            "persist_failures": self._persist_failures,
            "guard": self.guard.state_dict() if self.guard else None,
            "breaker": self.breaker.state_dict() if self.breaker else None,
            "monitor": self.monitor.state_dict() if self.monitor else None,
            "lifecycle_log": [dict(event) for event in self.lifecycle_log],
        }
        if self.store is not None:
            snapshot["model_versions"] = {
                key: versions[-1]
                for key in self.store.keys()
                if (versions := self.store.versions(key))
            }
        return snapshot

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this service.

        Raises ``ValueError`` when the snapshot's configuration
        fingerprint does not match this service, or when component
        presence (guard/breaker/monitor) diverges — recovering counters
        into a differently-shaped service would silently mis-route.
        Models are left to retrain lazily; caches are invalidated.
        """
        if not isinstance(state, dict) or state.get("schema") != 1:
            raise ValueError(
                f"Unsupported service state schema: "
                f"{state.get('schema') if isinstance(state, dict) else state!r}."
            )
        config = state.get("config")
        if not isinstance(config, dict):
            raise ValueError("Service state has no config fingerprint.")
        fingerprint = (
            float(config.get("t_v", float("nan"))),
            int(config.get("window", -1)),
            config.get("algorithm"),
        )
        if fingerprint != (self.t_v, self.window, self.algorithm):
            raise ValueError(
                f"Config fingerprint mismatch: snapshot {fingerprint}, "
                f"service {(self.t_v, self.window, self.algorithm)}."
            )
        for name, component in (
            ("guard", self.guard),
            ("breaker", self.breaker),
            ("monitor", self.monitor),
        ):
            if (state.get(name) is not None) != (component is not None):
                have = "with" if component is not None else "without"
                raise ValueError(
                    f"Snapshot {'has' if state.get(name) else 'lacks'} "
                    f"{name} state but this service runs {have} one."
                )
        self._vehicles = {
            vid: _VehicleState(
                usage=_UsageBuffer(snap["usage"]),
                pending=[
                    (int(day), float(predicted), str(strategy))
                    for day, predicted, strategy in snap.get("pending", [])
                    if self.monitor is not None
                ],
                resolved_through_cycle=int(
                    snap.get("resolved_through_cycle", 0)
                ),
                model_version=(
                    None
                    if snap.get("model_version") is None
                    else int(snap["model_version"])
                ),
                pinned_version=(
                    None
                    if snap.get("pinned_version") is None
                    else int(snap["pinned_version"])
                ),
            )
            for vid, snap in state.get("vehicles", {}).items()
        }
        self.lifecycle_log = [
            dict(event) for event in state.get("lifecycle_log", [])
        ]
        self._fallback_counts = {
            vid: Counter({k: int(n) for k, n in counts.items()})
            for vid, counts in state.get("fallback_counts", {}).items()
        }
        self._persist_failures = int(state.get("persist_failures", 0))
        if self.guard is not None:
            self.guard.load_state_dict(state["guard"])
        if self.breaker is not None:
            self.breaker.load_state_dict(state["breaker"])
        if self.monitor is not None:
            self.monitor.load_state_dict(state["monitor"])
        self._index = _FleetIndex(self._vehicles)
        self._unified_models = {}
        self._sim_donor_models.clear()
        # Restored states may pin different model versions than the
        # ones that were serving: every compiled kernel is stale.
        self.kernel_cache.invalidate()

    # -- feedback loop -----------------------------------------------------------

    def _resolve_forecasts(self, vehicle_id: str) -> None:
        """Score pending forecasts whose cycle has now completed."""
        if self.monitor is None:
            return
        state = self._state(vehicle_id)
        if not state.pending:
            return
        series = self.series(vehicle_id)
        completed = series.completed_cycles
        if len(completed) <= state.resolved_through_cycle:
            return
        d_true = series.days_to_maintenance
        still_pending = []
        for day, predicted, strategy in state.pending:
            truth = d_true[day] if day < d_true.size else np.nan
            if np.isfinite(truth):
                self.monitor.record(
                    vehicle_id, float(truth), predicted, strategy=strategy
                )
            else:
                still_pending.append((day, predicted, strategy))
        state.pending = still_pending
        state.resolved_through_cycle = len(completed)
