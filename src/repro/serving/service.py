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
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..core.categorize import VehicleCategory, categorize_usage
from ..core.coldstart import first_cycle_dataset
from ..core.cycles import IncrementalSeriesState
from ..core.predictors import BaselinePredictor, fit_predictors
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
#: rung with an installed row; a rung without one steps down silently,
#: and the resilient service also steps down on an open circuit or a
#: failure, ending at the Eq. 5-6 baseline (which needs only the
#: vehicle's own usage history).
_STRATEGY_LADDER: dict[VehicleCategory, tuple[str, ...]] = {
    VehicleCategory.OLD: ("per-vehicle", "similarity", "unified"),
    VehicleCategory.SEMI_NEW: ("similarity", "unified"),
    VehicleCategory.NEW: ("unified",),
}

#: Ladder strategy served by each model-table scope kind.
_SCOPE_STRATEGY = {
    "per-vehicle": "per-vehicle",
    "sim": "similarity",
    "uni": "unified",
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


class ModelEntry(NamedTuple):
    """One model-table row: a predictor, its one freshness ``key``
    (trained completed cycles for ``per-vehicle``, the donor id for
    ``sim``, the donor id set for ``uni``) and its store ``version``
    (per-vehicle only; cold-start models are never stored)."""

    predictor: object | None
    key: object
    version: int | None = None


_NO_CHAMPION = ModelEntry(None, -1)  # no per-vehicle row installed


@dataclass
class _VehicleState:
    usage: _UsageBuffer = field(default_factory=_UsageBuffer)
    # Operator pin: blocks retrain/promote.  It lives here, not in the
    # model table, because a pin outlives an unloadable artifact.
    pinned_version: int | None = None
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
    # The last forecast a kernel served: (day, kernel, Forecast).  A
    # day names one history and a kernel one fitted model (see
    # _run_kernels), so a read with the same pair reuses it.
    memo: tuple[int, object, "Forecast"] | None = field(
        default=None, repr=False
    )


class _FleetIndex:
    """Categories and the Section-4.4 donor pool, kept current by ingest.

    Categories and donors are functions of the usage histories alone,
    and a history changes only when ingest appends a day.  Each append
    records its vehicle in :attr:`touched`; the model refresh at the end
    of the request (:meth:`MaintenancePredictionService._refresh_models`)
    drains them, re-categorizing just those vehicles, so a read only
    looks categories up.  Only a change of membership re-sorts the
    donors.  Model state is never cached here.
    """

    __slots__ = (
        "touched", "rank", "days", "category", "cold", "donors",
        "donor_ids", "epoch",
    )

    def __init__(self, vehicle_ids=()):
        ids = list(vehicle_ids)
        #: Vehicles registered, appended to or given a lifecycle event
        #: since the last drain.
        self.touched: dict[str, None] = dict.fromkeys(ids)
        #: Registration position of every vehicle.
        self.rank: dict[str, int] = {vid: i for i, vid in enumerate(ids)}
        #: Days each vehicle had when it was last categorized.
        self.days: dict[str, int] = {}
        self.category: dict[str, VehicleCategory] = {}
        #: SEMI-NEW and NEW vehicles: the ones a donor change reroutes.
        self.cold: dict[str, None] = {}
        #: OLD vehicles whose first cycle completed, in registration
        #: order (Model_Uni concatenates their first cycles in it) ->
        #: their series when they joined (for that frozen first cycle).
        self.donors: dict[str, VehicleSeries] = {}
        #: The donor set; a new object whenever it changes, so it keys
        #: the Model_Uni row by identity.
        self.donor_ids: frozenset[str] = frozenset()
        #: Bumped whenever a vehicle joins or leaves OLD or an OLD
        #: vehicle gets a day: a donor search answer from an older
        #: epoch may be stale.
        self.epoch = 0

    def register(self, vehicle_id: str) -> None:
        self.rank[vehicle_id] = len(self.rank)
        self.touched[vehicle_id] = None

    def drain(self, service: "MaintenancePredictionService") -> dict:
        """Re-categorize the touched vehicles whose days changed (no
        monotonicity assumed) and return every touched one."""
        touched, self.touched = self.touched, {}
        cold, donors, donors_moved = self.cold, self.donors, False
        for vid in touched:
            usage = service._vehicles[vid].usage
            if self.days.get(vid) == len(usage):
                continue  # a lifecycle event: category and donors hold
            self.days[vid] = len(usage)
            was_old = self.category.get(vid) is VehicleCategory.OLD
            category = self.category[vid] = categorize_usage(
                np.asarray(usage), service.t_v
            )
            if category is VehicleCategory.OLD:
                cold.pop(vid, None)
                if vid not in donors:
                    series = service.series(vid)
                    if series.first_cycle().completed:
                        donors[vid] = series
                        donors_moved = True
            else:
                cold[vid] = None
                if not was_old:
                    continue
                donors_moved |= donors.pop(vid, None) is not None
            self.epoch += 1
        if donors_moved:
            rank = self.rank.__getitem__
            self.donors = {vid: donors[vid] for vid in sorted(donors, key=rank)}
            self.donor_ids = frozenset(donors)
        return touched


class _Plan:
    """One vehicle's trip through :meth:`MaintenancePredictionService.
    predict_batch`: the ladder rung it routed to and that rung's row,
    the fallback reasons collected on the way, then either the
    remembered forecast its kernel already served (``hit``) or its
    feature row, the kernel that ran it and the prediction."""

    __slots__ = (
        "vehicle_id",
        "state",
        "cycles",
        "category",
        "today",
        "span",
        "rung",
        "strategy",
        "entry",
        "donor_id",
        "scope",
        "reasons",
        "hit",
        "kernel",
        "row",
        "usage_left",
        "prediction",
    )

    def __init__(self, vehicle_id, state, cycles, category, span):
        self.vehicle_id = vehicle_id
        self.state = state
        self.cycles = cycles
        self.category = category
        self.today = cycles.n_days - 1
        self.span = span
        self.reasons: list[str] = []
        self.hit = self.kernel = self.row = None


#: Registry counter of read forecasts by ``outcome``: ``hit`` (a
#: vehicle's remembered forecast, no kernel call) or ``miss``.
_MEMO_COUNTER = "service.forecast_memo"

#: Audit-trail cap for :attr:`MaintenancePredictionService.lifecycle_log`.
_LIFECYCLE_LOG_LIMIT = 512

#: Valid actions for :meth:`MaintenancePredictionService.apply_lifecycle_event`.
_LIFECYCLE_ACTIONS = ("promote", "rollback", "pin", "unpin")


class MaintenancePredictionService:
    """Stateful fleet prediction service.

    Every served model is one :class:`ModelEntry` in one table,
    ``self._models``, keyed by serving scope: ``per-vehicle:<vid>`` (an
    OLD vehicle's champion, stale once the vehicle completes a cycle
    its key has not seen), ``sim:<donor id>`` (the Model_Sim shared by
    every SEMI-NEW vehicle matched to that donor; it trains on the
    donor's frozen first cycle, so it never goes stale) and ``uni``
    (the Model_Uni, stale once the donor set its key holds changes).
    Rows are trained where they go stale: at the end of every ingest
    request, lifecycle event and restore, :meth:`_refresh_models`
    trains (in one fused :meth:`_train` pass) or loads the rows the
    fleet's first ladder rungs now need.  Besides it, only
    :meth:`install_model` (lifecycle promotions and pins) installs
    rows.  A read only looks rows up: :meth:`_forecast` reads the row
    its vehicle was routed to, and lifecycle code reads a vehicle's row
    through :meth:`champion`.

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
        Optional :class:`ModelStore`; per-vehicle champions are
        persisted there with vehicle/strategy metadata (cold-start
        models are cheap to refit and are not).
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
        # Write-ahead journal (duck-typed: ``append`` and ``sync``).
        # ``None`` keeps journaling off; the recovery manager wires one
        # in after replay completes.
        self.journal = None
        # > 0 inside journal_suspended (replay): nothing is journaled
        # and model training waits for the outermost block's end.
        self._replay_depth = 0
        self._vehicles: dict[str, _VehicleState] = {}
        self._index = _FleetIndex()
        #: The model table: serving scope -> installed :class:`ModelEntry`.
        self._models: dict[str, ModelEntry] = {}
        #: Scopes whose last train or load failed -> that error; a read
        #: routed to one raises it (see :meth:`_row_failed`).
        self._failed: dict[str, Exception] = {}
        #: Kernel lookup and batch-shape counters of the predict path.
        self.kernel_cache = CompiledModelCache()
        self._persist_lock = threading.Lock()
        self._fallback_counts: dict[str, Counter] = {}
        self._persist_failures = 0

    # -- journaling ----------------------------------------------------------

    @contextmanager
    def journal_suspended(self):
        """Replay mode: nothing is journaled inside the block, and the
        models the replayed requests make stale train once, when the
        outermost block exits without an error."""
        self._replay_depth += 1
        try:
            yield
        finally:
            self._replay_depth -= 1
        self._refresh_models()

    # -- ingestion -----------------------------------------------------------

    def register_vehicle(self, vehicle_id: str) -> None:
        # Journal-before-apply: replay re-executes the same call, so a
        # duplicate registration re-raises identically during recovery.
        if self.journal is not None and not self._replay_depth:
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
        _, error = self.ingest_batch([vehicle_id], [daily_seconds], day=day)
        if error is not None:
            raise error

    def ingest_batch(
        self,
        vehicle_ids,
        seconds,
        *,
        day: int | None = None,
        days=None,
    ) -> tuple[int, Exception | None]:
        """The one ingest path: journal the request, sync, then apply.

        ``vehicle_ids[i]`` reports ``seconds[i]``; ``vehicle_ids=None``
        means every registered vehicle in sorted id order.  ``day``
        dates every reading, or ``days`` gives one day (or ``None``)
        per reading.  With a journal attached, the request lands as one
        ``day`` record — the *requested* readings, pre-guard, so replay
        screens them again and reaches the same state — which is
        fsynced before anything is applied: once this returns, every
        reading it applied is on stable storage, so the caller's ack is
        durable.  Readings apply in order; the first one that fails
        (``KeyError`` for an unregistered vehicle, ``ValueError`` for a
        dirty reading without a guard) stops the batch.  Returns
        ``(applied, error)``: the prefix stays applied and the error is
        returned, not raised.  The models the request made stale train
        before it returns (:meth:`_refresh_models`); a failed fit never
        fails it.
        """
        if isinstance(seconds, np.ndarray):
            seconds = seconds.tolist()  # not one boxed np.float64 each
        ids = self.vehicle_ids if vehicle_ids is None else vehicle_ids
        if len(ids) != len(seconds):
            raise ValueError(
                f"{len(seconds)} readings for {len(ids)} vehicle ids."
            )
        journal = self.journal
        if journal is not None and not self._replay_depth:
            payload = {"u": np.asarray(seconds, dtype=np.float64)}
            if vehicle_ids is not None:
                payload["vs"] = list(vehicle_ids)
            if day is not None:
                payload["d"] = day
            if days is not None:
                payload["ds"] = list(days)
            journal.append("day", **payload)
            journal.sync()
        guard = self.guard
        applied, error = 0, None
        with self._stage("ingest", readings=len(seconds)):
            try:
                for vehicle_id, value, reading_day in zip(
                    ids, seconds, repeat(day) if days is None else days
                ):
                    if guard is None:
                        if not np.isfinite(value) or not 0 <= value <= 86_400:
                            raise ValueError(
                                "daily_seconds must be in [0, 86400], "
                                f"got {value}."
                            )
                        state = self._state(vehicle_id)
                        self._append(vehicle_id, state, float(value))
                    else:
                        state = self._state(vehicle_id)
                        value = guard.admit(
                            vehicle_id, value, day=reading_day,
                            recent=state.usage,
                        )
                        if value is not None:
                            self._append(vehicle_id, state, value)
                    applied += 1
            except (KeyError, ValueError) as exc:
                error = exc
        self._refresh_models()
        return applied, error

    def first_rejected(self, seconds) -> int:
        """Index of the first reading an unguarded service would reject
        (``len(seconds)`` when none would; a guard rejects none)."""
        values = np.asarray(seconds, dtype=np.float64)
        if self.guard is None:
            invalid = ~((values >= 0) & (values <= 86_400))
            if invalid.any():
                return int(np.argmax(invalid))
        return values.size

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
        day is appended (or journaled).  With a guard, every reading is
        screened individually (the guard never raises).  ``start_day``
        gives the day index of ``usage[0]`` for the guard's ordering
        checks.
        """
        values = np.asarray(usage, dtype=np.float64)
        self._state(vehicle_id)  # unknown-vehicle check before any mutation
        index = self.first_rejected(values)
        if index < values.size:
            raise ValueError(
                f"ingest_series for {vehicle_id!r} rejected: element "
                f"{index} ({values[index]}) outside [0, 86400]; "
                "no days were ingested."
            )
        self.ingest_batch(
            [vehicle_id] * values.size,
            values,
            days=None if start_day is None else range(
                start_day, start_day + values.size
            ),
        )

    # -- vehicle views ---------------------------------------------------------

    def _cycle_state(self, vehicle_id: str) -> IncrementalSeriesState:
        """The vehicle's incremental cycle state as of its latest day.

        Only the days ingested since the previous call are folded in —
        O(new days) instead of re-deriving the whole history, and
        bit-identical to :func:`~repro.core.cycles.derive_series`.  A
        read takes its feature row and staleness key from here without
        snapshotting a series.
        """
        state = self._state(vehicle_id)
        cycles = state.cycles
        if cycles is None:
            cycles = state.cycles = IncrementalSeriesState(self.t_v)
        if cycles.n_days < len(state.usage):
            cycles.extend(state.usage[cycles.n_days :])
        return cycles

    def series(self, vehicle_id: str) -> VehicleSeries:
        """The vehicle's ``C``/``L``/``D`` series as of its latest day
        (a snapshot of :meth:`_cycle_state`)."""
        bundle = self._cycle_state(vehicle_id).bundle()
        return VehicleSeries(
            vehicle_id=vehicle_id,
            usage=bundle.usage,
            t_v=self.t_v,
            _bundle=bundle,
        )

    def category(self, vehicle_id: str) -> VehicleCategory:
        self._state(vehicle_id)
        # Undrained means registered with no day yet: NEW.
        return self._index.category.get(vehicle_id, VehicleCategory.NEW)

    def old_vehicles(self) -> dict[str, VehicleSeries]:
        """OLD vehicles in sorted id order -> series as of their latest
        day.  The one answer to "who is OLD"."""
        category = self._index.category
        return {
            vid: self.series(vid)
            for vid in sorted(category)
            if category[vid] is VehicleCategory.OLD
        }

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

    def _vehicle_dataset(self, vehicle_id: str):
        """``(dataset, fit kwargs)`` of a per-vehicle model.

        The one per-vehicle training set: every per-vehicle fit, made
        by the model refresh or asked for by a lifecycle challenger,
        builds it here.  Raises ``ValueError`` while the vehicle has no
        labeled records.
        """
        series = self.series(vehicle_id)
        dataset = build_relational_dataset(series.bundle, self.window)
        if dataset.n_records == 0:
            raise ValueError(
                f"Vehicle {vehicle_id!r} has no labeled records yet."
            )
        return dataset, {"usage": series.usage}

    def _fit_vehicle_model(self, vehicle_id: str):
        """A fresh per-vehicle model fitted on the vehicle's history,
        for lifecycle challengers; it installs and persists nothing."""
        dataset, kwargs = self._vehicle_dataset(vehicle_id)
        predictor = self._make_predictor(self.algorithm)
        predictor.fit(dataset, **kwargs)
        return predictor

    def _sim_dataset(self, donor: VehicleSeries):
        """``(dataset, fit kwargs)`` of ``donor``'s Model_Sim: its
        frozen first cycle."""
        return first_cycle_dataset(donor, self.window), {
            "usage": donor.usage[: donor.first_cycle().end + 1]
        }

    def _uni_dataset(self, donors: list[VehicleSeries]):
        """``(dataset, fit kwargs)`` of the Model_Uni of ``donors``:
        their first cycles, concatenated in registration order."""
        merged = RelationalDataset.concatenate(
            [first_cycle_dataset(s, self.window) for s in donors]
        )
        return merged, {}

    def _nearest_donor(self, vehicle_id: str, index: _FleetIndex):
        """The Model_Sim donor of one SEMI-NEW vehicle (``None`` without
        donors).  The answer is remembered on the vehicle's state,
        keyed on (its own length, donor epoch): it can only change when
        the target or a donor gets a day, so reads reuse it."""
        state = self._vehicles[vehicle_id]
        key = (len(state.usage), index.epoch)
        if state.nearest is None or state.nearest[0] != key:
            candidates = {
                vid: np.asarray(self._vehicles[vid].usage)
                for vid in index.donors
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
        return state.nearest[1]

    def _refresh_models(self) -> None:
        """Train the rows the fleet's first ladder rungs now need: the
        one place that decides a model is stale.

        Runs at the end of every ingest request, lifecycle event and
        restore (once per replay, see :meth:`journal_suspended`) over
        the vehicles drained since, plus every SEMI-NEW and NEW one
        when the donor epoch moved.  A readable OLD vehicle wants its
        champion retrained once its key lags its completed cycles (a
        pinned one loads its pinned version; :attr:`retrain_on_cycle`
        off keeps an installed champion), a SEMI-NEW one its nearest
        donor's ``sim`` row, a NEW one the ``uni`` row.  Fallback rungs
        are not trained.  A failed row is retried when its asker's
        breaker allows.  Once a donor search answer may have moved, the
        ``sim`` rows that no answer names are dropped.
        """
        if self._replay_depth:
            return
        index, epoch = self._index, self._index.epoch
        changed = index.drain(self)
        moved = index.epoch != epoch  # some donor search answer may move
        if moved:
            changed.update(index.cold)
        fits: dict[str, tuple] = {}
        for vehicle_id in sorted(changed):
            state = self._vehicles[vehicle_id]
            if len(state.usage) <= self.window:
                continue  # a read raises before routing
            category = index.category[vehicle_id]
            if category is VehicleCategory.OLD:
                scope = f"per-vehicle:{vehicle_id}"
                entry = self._models.get(scope, _NO_CHAMPION)
                if state.pinned_version is not None:
                    if entry.version != state.pinned_version and (
                        self._may_retry(scope, vehicle_id)
                    ):
                        self._load_pinned(vehicle_id, state.pinned_version)
                    continue
                key = len(self._cycle_state(vehicle_id).completed_cycles)
                if entry.predictor is not None and (
                    entry.key == key or not self.retrain_on_cycle
                ):
                    continue
                data = partial(self._vehicle_dataset, vehicle_id)
            elif category is VehicleCategory.SEMI_NEW:
                answer = state.nearest
                key = self._nearest_donor(vehicle_id, index)
                moved |= answer is not None and answer[1] != key
                scope = f"sim:{key}"
                if key is None or scope in self._models:
                    continue
                data = partial(self._sim_dataset, index.donors[key])
            else:
                scope, key = "uni", index.donor_ids
                if not key or self._models.get(scope, _NO_CHAMPION).key is key:
                    continue
                data = partial(self._uni_dataset, list(index.donors.values()))
            if scope not in fits and self._may_retry(scope, vehicle_id):
                fits[scope] = (key, data, vehicle_id)
        if moved:
            self._prune_sim_rows(index)
        if fits:
            self._train(fits)

    def _prune_sim_rows(self, index: _FleetIndex) -> None:
        """Drop every ``sim:`` row, and its recorded failure, that no
        SEMI-NEW vehicle's current donor search answer names.  A row
        that a later answer names again retrains from the donor's
        frozen first cycle."""
        named = set()
        for vehicle_id in index.cold:  # only SEMI-NEW ones have answers
            state = self._vehicles[vehicle_id]
            nearest = state.nearest
            if nearest is not None and nearest[0] == (
                len(state.usage), index.epoch
            ):
                named.add(f"sim:{nearest[1]}")
        for table in (self._models, self._failed):
            for scope in [
                s for s in table if s.startswith("sim:") and s not in named
            ]:
                del table[scope]

    def _may_retry(self, scope: str, vehicle_id: str) -> bool:
        """Whether ``vehicle_id`` may ask for ``scope`` now: always for a
        row that has not failed, else when its breaker allows it."""
        if scope not in self._failed or self.breaker is None:
            return True
        strategy = _SCOPE_STRATEGY[scope.partition(":")[0]]
        return self.breaker.allow(f"{vehicle_id}:{strategy}")

    def _train(self, fits: dict[str, tuple]) -> None:
        """Fit and install ``fits`` (``scope -> (key, data, asker)``;
        ``data()`` builds ``(dataset, fit kwargs)``) in order, the ones
        that can fuse in one pass (:func:`~repro.core.predictors.
        fit_predictors`).  A row that fails to build, fit or install
        is recorded against its asker (:meth:`_row_failed`).
        """
        built, errors = [], {}
        for scope, (_, data, _) in fits.items():
            try:
                predictor = self._make_predictor(self.algorithm)
                built.append((scope, predictor, *data()))
            except Exception as exc:
                errors[scope] = exc
        with self._stage("train", models=len(built)):
            fit_errors = fit_predictors(
                [predictor for _, predictor, _, _ in built],
                [dataset for _, _, dataset, _ in built],
                [kwargs for _, _, _, kwargs in built],
            )
        for (scope, predictor, _, _), error in zip(built, fit_errors):
            if error is None:
                try:
                    self._install_row(scope, fits[scope][0], predictor)
                    continue
                except Exception as exc:
                    error = exc
            errors[scope] = error
        for scope, error in errors.items():
            self._row_failed(scope, fits[scope][2], error)

    def _install_row(self, scope: str, key, predictor) -> None:
        """Install a trained row; a per-vehicle champion is persisted."""
        kind, _, name = scope.partition(":")
        if kind != "per-vehicle":
            self._models[scope] = ModelEntry(predictor, key)
            self._failed.pop(scope, None)
            return
        self.install_model(
            name,
            predictor,
            trained_cycles=key,
            version=self._persist(
                f"{name}.per-vehicle",
                predictor,
                strategy="per-vehicle",
                trained_cycles=key,
            ),
        )

    def _row_failed(self, scope: str, vehicle_id: str, exc: Exception) -> None:
        """Record a row that failed to train or load: reads routed to
        it raise ``exc`` (or step down with it, under a breaker) until a
        retry installs it.  Charged once, here, to its first asker."""
        self._failed[scope] = exc
        strategy = _SCOPE_STRATEGY[scope.partition(":")[0]]
        if self.breaker is not None:
            self.breaker.record_failure(f"{vehicle_id}:{strategy}")
        tracing.add_event(
            "rung-failed",
            vehicle_id=vehicle_id,
            strategy=strategy,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _load_pinned(self, vehicle_id: str, version: int) -> None:
        """Install a pinned vehicle's store version as its champion."""
        try:
            if self.store is None:
                raise ValueError(
                    f"Vehicle {vehicle_id!r} is pinned to version "
                    f"{version} but the service has no store."
                )
            self._install_artifact(
                vehicle_id,
                self.store.load(f"{vehicle_id}.per-vehicle", version),
            )
        except Exception as exc:
            self._row_failed(f"per-vehicle:{vehicle_id}", vehicle_id, exc)

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

    def champion(self, vehicle_id: str) -> ModelEntry:
        """The vehicle's installed ``per-vehicle`` row (``predictor``
        ``None`` and ``key`` -1 before one is installed).  Only a
        lookup: the row is installed by the ingest, lifecycle event or
        restore that made it stale."""
        self._state(vehicle_id)
        return self._models.get(f"per-vehicle:{vehicle_id}", _NO_CHAMPION)

    def _load_stored_model(self, vehicle_id: str, version: int | None):
        """Tolerant store load of a per-vehicle artifact for lifecycle
        installs and restored rows; ``None`` without a store or on any
        failure (journal replay must succeed even when an artifact was
        pruned or the store moved — the vehicle then retrains, or a
        pinned one records the failure, at the end of the restore)."""
        if self.store is None:
            return None
        try:
            return self.store.load(
                f"{vehicle_id}.per-vehicle", version, quarantine=False
            )
        except Exception:
            return None

    def _install_artifact(self, vehicle_id: str, artifact) -> ModelEntry:
        """Install a loaded store artifact as the vehicle's champion."""
        return self.install_model(
            vehicle_id,
            artifact.predictor,
            trained_cycles=int(artifact.metadata.get("trained_cycles", -1)),
            version=artifact.version,
        )

    def install_model(
        self,
        vehicle_id: str,
        predictor,
        *,
        trained_cycles: int,
        version: int | None = None,
    ) -> ModelEntry:
        """Atomically swap a vehicle's serving model; returns its row.

        Every per-vehicle model — trained or retrained at ingest,
        promoted, rolled back or reloaded — is installed here, as one
        immutable :class:`ModelEntry` assigned to its table row: a
        concurrent :meth:`predict` sees either the old champion or the
        fully-described new one, never a half-installed model (zero
        serving interruption).  It clears the row's recorded failure.
        """
        self._state(vehicle_id)
        scope = f"per-vehicle:{vehicle_id}"
        entry = self._models[scope] = ModelEntry(
            predictor,
            int(trained_cycles),
            None if version is None else int(version),
        )
        self._failed.pop(scope, None)
        return entry

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
        and fsynced *before* it is applied, so a crash mid-install
        replays to the same state and an acknowledged decision is
        durable; replay passes no ``predictor`` and reloads the
        artifact from the store.  The vehicle's row is then refreshed as
        after an ingest (:meth:`_refresh_models`).  Returns the audit-log
        entry.
        """
        if action not in _LIFECYCLE_ACTIONS:
            raise ValueError(
                f"Unknown lifecycle action {action!r}; "
                f"expected one of {_LIFECYCLE_ACTIONS}."
            )
        state = self._state(vehicle_id)
        if action in ("rollback", "pin") and version is None:
            raise ValueError(f"Lifecycle {action} requires a version.")
        if self.journal is not None and not self._replay_depth:
            payload = {"a": action, "v": vehicle_id}
            if version is not None:
                payload["ver"] = int(version)
            if trained_cycles is not None:
                payload["c"] = int(trained_cycles)
            if reason is not None:
                payload["r"] = reason
            self.journal.append("lifecycle", **payload)
            self.journal.sync()
        pinned = action in ("rollback", "pin")
        state.pinned_version = int(version) if pinned else None
        if action != "unpin":
            model = predictor
            if model is None:
                artifact = self._load_stored_model(vehicle_id, version)
                model = None if artifact is None else artifact.predictor
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
                # Artifact gone on replay: never serve the old champion
                # in its place; the refresh below settles the row.
                self._models.pop(f"per-vehicle:{vehicle_id}", None)
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
        self._index.touched[vehicle_id] = None
        self._refresh_models()
        return event

    # -- prediction -----------------------------------------------------------

    def _require_window(self, vehicle_id: str, n_days: int) -> None:
        if n_days <= self.window:
            raise ValueError(
                f"Vehicle {vehicle_id!r} has {n_days} days; "
                f"window={self.window} needs at least {self.window + 1}."
            )

    def _feature_row(
        self, vehicle_id: str, series
    ) -> tuple[np.ndarray, float, int]:
        """The Eq. 8 row ``[L(t), U(t-1), ..., U(t-W)]`` of the latest
        day, with ``L(t)`` and that day.  ``series`` is anything holding
        ``usage`` and ``usage_left`` arrays: a :class:`VehicleSeries`,
        or the vehicle's cycle state on the read path."""
        self._require_window(vehicle_id, series.n_days)
        today = series.n_days - 1
        usage_left = series.usage_left[today]
        row = np.empty((1, self.window + 1))
        row[0, 0] = usage_left
        if self.window:
            # Lags 1..W are usage[today-1] down to usage[today-W]: one
            # reversed slice instead of a per-lag Python loop.
            row[0, 1:] = series.usage[today - self.window : today][::-1]
        return row, float(usage_left), today

    def _rung_model(self, strategy: str, vehicle_id: str):
        """``(model-table row, donor_id, scope)`` of one ladder rung, a
        lookup.  A ``None`` row means the rung has none installed: no
        donors yet, or a fallback row that no ingest trains (an OLD
        vehicle's Model_Sim and its Model_Uni without itself, or a
        SEMI-NEW one's Model_Uni while no NEW vehicle needs it).  A row
        whose last train or load failed raises that error."""
        index = self._index
        donor_id = None
        if strategy == "per-vehicle":
            scope = f"per-vehicle:{vehicle_id}"
        elif strategy == "similarity":
            state = self._vehicles[vehicle_id]
            key = (len(state.usage), index.epoch)
            if state.nearest is None or state.nearest[0] != key:
                return None, None, None
            donor_id = state.nearest[1]
            scope = f"sim:{donor_id}"
        elif vehicle_id in index.donor_ids:
            return None, None, None
        else:
            scope = "uni"
        error = self._failed.get(scope)
        if error is not None:
            raise error.with_traceback(None)
        entry = self._models.get(scope)
        if entry is not None and scope == "uni":
            if entry.key is not index.donor_ids:  # an earlier donor set's
                entry = None
        return entry, donor_id, scope

    def _rung_failed(self, plan: _Plan, exc: Exception) -> None:
        """Record why the plan's current rung could not serve."""
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

        A rung without a row steps down silently — that is normal
        Section-4 routing, not degradation.  Without a breaker a rung
        whose row failed to train raises; with one, an open circuit or
        such a failure (charged when the train failed) steps down and
        is recorded in ``plan.reasons``.  Past the last rung the
        vehicle gets the Eq. 5-6 baseline.
        """
        vehicle_id = plan.vehicle_id
        ladder = _STRATEGY_LADDER[plan.category]
        breaker = self.breaker
        for index in range(rung, len(ladder)):
            plan.strategy = strategy = ladder[index]
            if breaker is not None and not breaker.allow(
                f"{vehicle_id}:{strategy}"
            ):
                plan.reasons.append(f"{strategy}: circuit open")
                tracing.add_event(
                    "breaker-open", vehicle_id=vehicle_id, strategy=strategy
                )
                continue
            try:
                entry, donor_id, scope = self._rung_model(strategy, vehicle_id)
            except Exception as exc:
                if breaker is None:
                    raise
                self._rung_failed(plan, exc)
                continue
            if entry is not None:
                plan.rung = index
                plan.entry, plan.donor_id, plan.scope = entry, donor_id, scope
                return
        plan.rung = len(ladder)
        plan.strategy = "baseline"
        plan.entry = ModelEntry(self._baseline_model(vehicle_id), None)
        plan.donor_id = plan.scope = None

    def _plan(self, vehicle_id: str, span) -> _Plan:
        """Step 1 for one vehicle: Section-4 routing."""
        cycles = self._cycle_state(vehicle_id)
        if cycles.n_days == 0:
            raise ValueError(f"Vehicle {vehicle_id!r} has no data yet.")
        self._require_window(vehicle_id, cycles.n_days)
        plan = _Plan(
            vehicle_id,
            self._vehicles[vehicle_id],
            cycles,
            self._index.category[vehicle_id],
            span,
        )
        if span is None:
            self._route(plan, 0)
        else:
            with tracing.activate(span):
                self._route(plan, 0)
        return plan

    def _run_kernels(self, plans: list[_Plan]) -> list[_Plan]:
        """Step 2: one kernel call per shared model object, for the
        vehicles it has not answered yet.

        A vehicle whose remembered forecast was served by this very
        kernel object on its current day is a hit: it builds no feature
        row and leaves the call.  That is exact, because the kernel
        belongs to one fitted state of one model (a retrain, promotion,
        rollback, pin or restore installs a different one) and the day
        to one append-only history (a restore replaces the state and
        its memo); a row with no cached kernel never hits.  The others
        build their Eq. 8 rows.  Kernels flagged not batch-safe (linear
        matvecs) run one row at a time, as do models without a compiled
        kernel, through their own trusted ``predict``.  With a breaker,
        a hit counts as a success, and a failed call charges one
        failure to each vehicle it covered and re-routes those vehicles
        one rung down; they are returned for another pass.
        """
        groups: dict[int, list[_Plan]] = {}
        for plan in plans:
            groups.setdefault(id(plan.entry.predictor), []).append(plan)
        breaker = self.breaker
        rerouted = []
        for group in groups.values():
            (model, key, _), scope = group[0].entry, group[0].scope
            compiled = (
                None if scope is None else self.kernel_cache.get(scope, model, key)
            )
            if compiled is not None:
                predict = compiled.predict
                misses = []
                for plan in group:
                    memo = plan.state.memo
                    if memo is None or memo[1] is not compiled or (
                        memo[0] != plan.today
                    ):
                        misses.append(plan)
                        continue
                    plan.hit = memo[2]
                    if breaker is not None:
                        breaker.record_success(
                            f"{plan.vehicle_id}:{plan.strategy}"
                        )
                group = misses
            elif getattr(model, "trusted_predict", False):
                predict = partial(model.predict, validate=False)
            else:
                predict = model.predict
            for plan in group:
                if plan.row is None:
                    plan.row, plan.usage_left, _ = self._feature_row(
                        plan.vehicle_id, plan.cycles
                    )
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
                        breaker.record_failure(
                            f"{plan.vehicle_id}:{plan.strategy}"
                        )
                        with tracing.activate(plan.span):
                            self._rung_failed(plan, exc)
                            self._route(plan, plan.rung + 1)
                    rerouted.extend(members)
                    continue
                if compiled is not None:
                    self.kernel_cache.record_batch(len(members))
                for plan, value in zip(members, out):
                    plan.prediction = float(max(value, 0.0))
                    plan.kernel = compiled
                    if breaker is not None and plan.strategy != "baseline":
                        breaker.record_success(
                            f"{plan.vehicle_id}:{plan.strategy}"
                        )
        return rerouted

    def _forecast(self, plan: _Plan) -> Forecast:
        """Step 3 for one vehicle: pending record, fallback accounting,
        and the :class:`Forecast` — a hit's remembered one when every
        field still agrees, else a new one, remembered when a cached
        kernel served it."""
        vehicle_id, strategy, hit = plan.vehicle_id, plan.strategy, plan.hit
        if hit is not None:
            plan.prediction, plan.usage_left = (
                hit.days_to_maintenance, hit.usage_left
            )
        state = plan.state
        if self.monitor is not None:  # the only reader of resolved forecasts
            state.pending.append((plan.today, plan.prediction, strategy))
        reason = "; ".join(plan.reasons) or None
        if reason is not None:
            counts = self._fallback_counts.setdefault(vehicle_id, Counter())
            counts[strategy] += 1
            with tracing.activate(plan.span):
                tracing.add_event(
                    "fallback",
                    vehicle_id=vehicle_id,
                    strategy=strategy,
                    fallback_reason=reason,
                )
        version = plan.entry.version
        if hit is not None and (
            hit.strategy == strategy
            and hit.category is plan.category
            and hit.donor_id == plan.donor_id
            and hit.model_version == version
            and hit.fallback_reason == reason
        ):
            return hit
        forecast = Forecast(
            vehicle_id=vehicle_id,
            category=plan.category,
            strategy=strategy,
            days_to_maintenance=plan.prediction,
            usage_left=plan.usage_left,
            as_of_day=plan.today,
            donor_id=plan.donor_id,
            degraded=reason is not None,
            fallback_reason=reason,
            model_version=version,
        )
        if plan.kernel is not None:
            state.memo = (plan.today, plan.kernel, forecast)
        return forecast

    def predict(self, vehicle_id: str) -> Forecast:
        """Forecast days to next maintenance from the latest ingested day
        — :meth:`predict_batch` of one vehicle."""
        return self.predict_batch([vehicle_id])[0]

    def predict_batch(self, vehicle_ids, spans=None) -> list[Forecast]:
        """Forecast many vehicles through shared compiled kernels.

        The one prediction pipeline, in three steps:

        1. route every vehicle through the Section-4 matrix in input
           order, the breaker ladder included, by looking its rung's
           row up in the model table — a read never trains a model or
           reads the store; ingest installed every row it can serve;
        2. group the vehicles by the *model object* they routed to and
           look the group's kernel up; a vehicle whose remembered
           forecast that kernel served on its current day is a hit and
           leaves the group, the rest build their Eq. 8 feature rows
           and share one kernel call; with a breaker, a failed call
           re-routes its vehicles one rung down and repeats;
        3. record pending forecasts and build the :class:`Forecast`
           objects in input order (a hit reuses its remembered one when
           every field agrees).

        A repeat read is thus a lookup: only an ingest (a new day), a
        lifecycle event or a restore (a new fitted model, hence a new
        kernel) makes a vehicle's next read run its kernel.  With
        :attr:`obs` attached, the ``service.forecast_memo`` counter
        counts the batch's forecasts by ``outcome`` (``hit``/``miss``).

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
            with self._stage("feature-build", vehicles=len(ids)):
                plans = [
                    self._plan(vehicle_id, None if spans is None else spans[i])
                    for i, vehicle_id in enumerate(ids)
                ]
            pending = plans
            while pending:
                pending = self._run_kernels(pending)
            forecasts = [self._forecast(plan) for plan in plans]
        if self.obs is not None:
            hits = sum(plan.hit is not None for plan in plans)
            registry = self.obs.registry
            registry.counter(_MEMO_COUNTER, outcome="hit").inc(hits)
            registry.counter(_MEMO_COUNTER, outcome="miss").inc(
                len(plans) - hits
            )
        return forecasts

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
        usage histories (the equivalence suite pins this); each
        champion's store version is, and the latest persisted version
        per store key is recorded informationally.  ``order`` is the
        registration order, which Model_Uni's donor concatenation
        follows.
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
                "model_version": self.champion(vid).version,
                "pinned_version": state.pinned_version,
            }
        snapshot = {
            "schema": 1,
            "order": list(self._vehicles),
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
        Vehicles are re-registered in the snapshot's ``order`` (sorted
        id order when it has none).  Each champion's recorded store
        version is reloaded, then every row the fleet needs trains
        (:meth:`_refresh_models`; inside :meth:`journal_suspended`, at
        the end of the replay).
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
        vehicles = state.get("vehicles", {})
        order = state.get("order", sorted(vehicles))
        if sorted(order) != sorted(vehicles):
            raise ValueError("Service state's order must list its vehicles.")
        self._vehicles = {}
        self._models = {}
        self._failed = {}
        for vid in order:
            snap = vehicles[vid]
            self._vehicles[vid] = _VehicleState(
                usage=_UsageBuffer(snap["usage"]),
                pending=[
                    (int(day), float(predicted), str(strategy))
                    for day, predicted, strategy in snap.get("pending", [])
                    if self.monitor is not None
                ],
                resolved_through_cycle=int(
                    snap.get("resolved_through_cycle", 0)
                ),
                pinned_version=(
                    None
                    if snap.get("pinned_version") is None
                    else int(snap["pinned_version"])
                ),
            )
            if snap.get("model_version") is not None:
                # Reload that exact (possibly promoted) artifact rather
                # than retrain over it; a pruned or corrupt one is
                # forgotten and the refresh below retrains the vehicle.
                artifact = self._load_stored_model(
                    vid, int(snap["model_version"])
                )
                if artifact is not None:
                    self._install_artifact(vid, artifact)
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
        self._refresh_models()

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
