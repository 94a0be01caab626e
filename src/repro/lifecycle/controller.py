"""Lifecycle controller: drift alerts in, safe model rollovers out.

The controller closes the loop the serving stack left open: the
:class:`~repro.serving.monitoring.DriftMonitor` *detects* degradation,
but nothing acted on it.  Each :meth:`LifecycleController.run_once`
sweep:

1. collects **candidates** — vehicles with a debounced drift alert
   (``monitor.fire_alerts()``) plus, optionally, vehicles whose champion
   is more than ``staleness_cycles`` maintenance cycles old;
2. trains a **challenger** with the service's one per-vehicle fit
   (the champion keeps serving throughout);
3. **shadow-evaluates** both models on the vehicle's recent resolved
   days and runs the :class:`~repro.lifecycle.policy.PromotionPolicy`;
4. on a pass, **promotes**: the challenger is persisted to the
   :class:`ModelStore` as a new version, the decision is journaled
   through ``repro.durability`` (crash-survivable), the serving model is
   swapped atomically, old versions are pruned (never the active or
   pinned one), and the vehicle's residual window is reset so the new
   champion is judged on its own evidence.

Training failures land on a per-vehicle ``<vid>:lifecycle`` circuit
breaker so a sick training path is not hammered every sweep.  All
counters join the consolidated metrics snapshot as the ``lifecycle``
section once :meth:`FleetEngine.attach_lifecycle` has run (the
constructor does this).
"""

from __future__ import annotations

import math

from ..obs import tracing
from .policy import PromotionDecision, PromotionPolicy
from .rollback import RollbackManager
from .shadow import ShadowEvaluator

__all__ = ["LifecycleController"]

#: Breaker key suffix for challenger training (per vehicle).
_BREAKER_SUFFIX = "lifecycle"


def _json_safe(value):
    """NaN/inf -> None so status payloads are strict-JSON clean."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class LifecycleController:
    """Drift-triggered shadow retraining and evaluation-gated promotion.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.FleetEngine` to manage; the
        controller registers itself via ``engine.attach_lifecycle``.
    policy:
        :class:`PromotionPolicy`; defaults apply.
    shadow:
        :class:`ShadowEvaluator`; defaults to a 45-day window.
    staleness_cycles:
        Also sweep (undrifted) vehicles whose champion is at least this
        many completed cycles behind — the periodic re-evaluation the
        Scania study shows stale models silently need.  ``None``
        disables the schedule (drift alerts only).
    retention:
        ``keep_last`` for the post-promotion store prune; the active
        and pinned versions are always exempt.
    history_limit:
        Decision entries kept for :meth:`status`.
    """

    def __init__(
        self,
        engine,
        policy: PromotionPolicy | None = None,
        *,
        shadow: ShadowEvaluator | None = None,
        staleness_cycles: int | None = None,
        retention: int = 8,
        history_limit: int = 256,
    ):
        if staleness_cycles is not None and staleness_cycles < 1:
            raise ValueError(
                f"staleness_cycles must be >= 1, got {staleness_cycles}."
            )
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}.")
        self.engine = engine
        self.policy = policy or PromotionPolicy()
        self.shadow = shadow or ShadowEvaluator()
        self.staleness_cycles = staleness_cycles
        self.retention = retention
        self.history_limit = history_limit
        self.rollback_manager = RollbackManager(engine)
        self.history: list[dict] = []
        self._sweeps = 0
        self._candidates_seen = 0
        self._promotions = 0
        self._rejections = 0
        self._train_failures = 0
        self._breaker_skips = 0
        engine.attach_lifecycle(self)

    # -- candidate selection -----------------------------------------------

    def candidates(self) -> list[tuple[str, str]]:
        """``(vehicle_id, reason)`` pairs due for a shadow evaluation.

        Drift alerts are consumed through the monitor's debounced
        ``fire_alerts`` — a still-degraded vehicle does not retrigger
        every sweep — and pinned vehicles are never candidates (a pin
        means "serve exactly this version").  Only OLD vehicles qualify:
        they are the ones serving per-vehicle champions.
        """
        service = self.engine.service
        old = service.old_vehicles()
        due: dict[str, str] = {}
        if service.monitor is not None:
            for alert in service.monitor.fire_alerts():
                vid = alert.vehicle_id
                if vid not in old:
                    continue
                if service._vehicles[vid].pinned_version is not None:
                    continue
                due[vid] = (
                    f"drift: mean |error| {alert.mean_abs_error:.2f}d > "
                    f"{alert.threshold:.2f}d over {alert.n_residuals} resolved"
                )
        if self.staleness_cycles is not None:
            for vid, series in old.items():
                if vid in due:
                    continue
                champion = service.champion(vid)
                pinned = service._vehicles[vid].pinned_version
                if champion.predictor is None or pinned is not None:
                    continue
                behind = len(series.completed_cycles) - champion.key
                if behind >= self.staleness_cycles:
                    due[vid] = (
                        f"stale: champion {behind} completed cycles behind"
                    )
        return sorted(due.items())

    # -- the sweep ---------------------------------------------------------

    def run_once(self) -> list[dict]:
        """One full sweep: evaluate every candidate; returns the entries."""
        self._sweeps += 1
        entries = []
        with tracing.span("lifecycle.sweep"):
            for vehicle_id, reason in self.candidates():
                self._candidates_seen += 1
                entries.append(self.evaluate_vehicle(vehicle_id, reason))
        return entries

    def evaluate_vehicle(self, vehicle_id: str, reason: str = "manual") -> dict:
        """Train, shadow-evaluate and (maybe) promote one challenger.

        Serving is never interrupted: the champion handles traffic while
        the challenger trains and is scored; only a policy pass swaps it
        — atomically — and a training failure leaves the champion
        exactly as it was.
        """
        service = self.engine.service
        key = f"{vehicle_id}:{_BREAKER_SUFFIX}"
        if service.breaker is not None and not service.breaker.allow(key):
            self._breaker_skips += 1
            return self._record(
                vehicle_id, "skipped", reason, detail="training breaker open"
            )
        with tracing.span("lifecycle.evaluate", vehicle_id=vehicle_id):
            champion = service.champion(vehicle_id).predictor
            if champion is None:
                if service.breaker is not None:
                    service.breaker.record_failure(key)
                self._train_failures += 1
                return self._record(
                    vehicle_id,
                    "failed",
                    reason,
                    detail="champion unavailable: none installed yet",
                )
            challenger, error = self._train_challenger(vehicle_id)
            if error is not None:
                if service.breaker is not None:
                    service.breaker.record_failure(key)
                self._train_failures += 1
                return self._record(
                    vehicle_id,
                    "failed",
                    reason,
                    detail=(
                        f"challenger training failed: "
                        f"{type(error).__name__}: {error}"
                    ),
                )
            if service.breaker is not None:
                service.breaker.record_success(key)
            with tracing.span("lifecycle.shadow", vehicle_id=vehicle_id):
                report = self.shadow.evaluate(
                    service, vehicle_id, champion, challenger
                )
            decision = self.policy.decide(report)
            if decision.promote:
                version = self._promote(vehicle_id, challenger, decision)
                return self._record(
                    vehicle_id,
                    "promoted",
                    reason,
                    detail=decision.reason,
                    decision=decision,
                    version=version,
                )
            self._rejections += 1
            return self._record(
                vehicle_id,
                "rejected",
                reason,
                detail=decision.reason,
                decision=decision,
            )

    def _train_challenger(self, vehicle_id: str):
        """(predictor, error) — the champion keeps serving meanwhile."""
        service = self.engine.service
        with tracing.span("lifecycle.train", vehicle_id=vehicle_id):
            try:
                return service._fit_vehicle_model(vehicle_id), None
            except Exception as exc:
                return None, exc

    def _promote(
        self, vehicle_id: str, challenger, decision: PromotionDecision
    ) -> int | None:
        """Persist, journal, atomically install, prune, reset residuals."""
        service = self.engine.service
        n_cycles = len(service.series(vehicle_id).completed_cycles)
        key = f"{vehicle_id}.per-vehicle"
        report = decision.report
        version = service._persist(
            key,
            challenger,
            strategy="per-vehicle",
            trained_cycles=n_cycles,
            promoted=True,
            shadow_samples=report.n_samples,
            improvement_days=round(report.improvement, 6),
        )
        service.apply_lifecycle_event(
            "promote",
            vehicle_id,
            version=version,
            trained_cycles=n_cycles,
            reason=decision.reason,
            predictor=challenger,
        )
        if service.store is not None and version is not None:
            try:  # the promotion cleared any pin: keep the new champion
                service.store.prune(
                    key, keep_last=self.retention, keep={version}
                )
            except OSError:
                pass  # retention is best-effort; never fail a promotion
        if service.monitor is not None:
            service.monitor.reset(vehicle_id)
        self._promotions += 1
        return version

    # -- bookkeeping -------------------------------------------------------

    def _record(
        self,
        vehicle_id: str,
        outcome: str,
        reason: str,
        *,
        detail: str | None = None,
        decision: PromotionDecision | None = None,
        version: int | None = None,
    ) -> dict:
        entry = {
            "vehicle_id": vehicle_id,
            "outcome": outcome,  # promoted | rejected | failed | skipped
            "trigger": reason,
            "detail": detail,
            "version": version,
        }
        if decision is not None and decision.report is not None:
            entry["shadow"] = {
                k: _json_safe(v)
                for k, v in decision.report.as_dict().items()
            }
        self.history.append(entry)
        if len(self.history) > self.history_limit:
            del self.history[: -self.history_limit]
        tracing.add_event("lifecycle-decision", **{
            "vehicle_id": vehicle_id, "outcome": outcome,
        })
        return entry

    def counters(self) -> dict:
        """Metrics-registry collector payload (``lifecycle`` section)."""
        return {
            "sweeps": self._sweeps,
            "candidates": self._candidates_seen,
            "promotions": self._promotions,
            "rejections": self._rejections,
            "train_failures": self._train_failures,
            "breaker_skips": self._breaker_skips,
            **self.rollback_manager.counters(),
        }

    def status(self) -> dict:
        """JSON-safe admin view for the gateway and CLI."""
        service = self.engine.service
        monitor = service.monitor
        vehicles = {}
        for vid in service.vehicle_ids:
            champion = service.champion(vid)
            vehicles[vid] = {
                "category": service.category(vid).name,
                "model_version": champion.version,
                "pinned_version": service._vehicles[vid].pinned_version,
                "trained_cycles": champion.key,
                "mean_abs_error": (
                    None
                    if monitor is None
                    else _json_safe(monitor.mean_abs_error(vid))
                ),
                "still_degraded": (
                    0 if monitor is None else monitor.still_degraded(vid)
                ),
            }
        return {
            "policy": {
                "min_shadow_samples": self.policy.min_shadow_samples,
                "min_improvement_days": self.policy.min_improvement_days,
                "min_relative_improvement":
                    self.policy.min_relative_improvement,
                "max_worst_regression_days":
                    self.policy.max_worst_regression_days,
                "allowed_strategies": list(self.policy.allowed_strategies),
                "staleness_cycles": self.staleness_cycles,
                "shadow_window_days": self.shadow.window_days,
                "retention": self.retention,
            },
            "counters": self.counters(),
            "vehicles": vehicles,
            "history": self.history[-32:],
            "log": service.lifecycle_log[-32:],
        }

    # -- rollback / pin passthrough ---------------------------------------

    def rollback(self, vehicle_id: str, version: int | None = None, **kwargs):
        return self.rollback_manager.rollback(vehicle_id, version, **kwargs)

    def pin(self, vehicle_id: str, version: int, **kwargs):
        return self.rollback_manager.pin(vehicle_id, version, **kwargs)

    def unpin(self, vehicle_id: str, **kwargs):
        return self.rollback_manager.unpin(vehicle_id, **kwargs)
