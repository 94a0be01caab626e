"""Lifecycle drills: drift-injection promotion and SIGKILL recovery.

One drift scenario, :func:`generate_lifecycle_ops`, is the op stream
behind every lifecycle drill, the ``repro lifecycle`` CLI and the
lifecycle test fixtures; :func:`apply_lifecycle_op` applies one op.
Timeline: warm champions on the base regime, frozen
(``retrain_on_cycle=False``), then part of the fleet permanently
shifts its usage rate — exactly the stale-model failure the Scania
study documents — and finally lifecycle sweeps run once per day.

:func:`drift_promotion_drill`
    Replays the scenario in-process.  The sweeps must fire debounced
    drift alerts for the drifted vehicles only, promote
    evaluation-gated replacements for exactly those vehicles, and
    bring the fleet's mean error back under the alert threshold — all
    with zero degraded serves (the champion keeps serving until the
    atomic swap).  Deterministic under the seed.

:func:`lifecycle_kill_drill`
    Replays the scenario in a worker that journals every mutation
    (including lifecycle promotions) through ``repro.durability``, and
    SIGKILLs it mid-sweep through the kill harness
    (:func:`repro.durability.drill.run_killed_worker`).  Recovery from
    the state directory must succeed, replay deterministically (two
    independent recoveries are bit-identical), honour the
    acknowledged-write guarantee, and reinstall every journaled
    promotion from the model store so the recovered champion predicts
    identically to the stored artifact.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "apply_lifecycle_op",
    "drift_promotion_drill",
    "generate_lifecycle_ops",
    "lifecycle_kill_drill",
]

#: Shared drill fleet configuration (small cycles -> fast maintenance).
_DRILL_T_V = 200_000.0
#: First day the scenario serves forecasts: every vehicle is OLD well
#: before it (t_v / rate ~ 10 days).
_PREDICT_FROM = 15


def _build_stack(
    *,
    store_dir,
    t_v: float = _DRILL_T_V,
    threshold_days: float = 2.0,
    alert_cooldown: int = 12,
    min_improvement_days: float = 0.1,
):
    """(engine, controller) wired for a lifecycle drill.

    Frozen champions (``retrain_on_cycle=False``): the lifecycle
    controller is the *only* path that replaces a model, so a recovery
    in the drill is attributable to a promotion and nothing else.
    """
    from ..serving import (
        DriftMonitor,
        FleetEngine,
        MaintenancePredictionService,
        ModelStore,
    )
    from .controller import LifecycleController
    from .policy import PromotionPolicy
    from .shadow import ShadowEvaluator

    service = MaintenancePredictionService(
        t_v=t_v,
        window=0,
        algorithm="LR",
        store=None if store_dir is None else ModelStore(store_dir),
        monitor=DriftMonitor(
            threshold_days=threshold_days,
            window=30,
            min_samples=5,
            alert_cooldown=alert_cooldown,
        ),
        retrain_on_cycle=False,
    )
    engine = FleetEngine(service)
    controller = LifecycleController(
        engine,
        PromotionPolicy(
            min_shadow_samples=6,
            min_improvement_days=min_improvement_days,
            min_relative_improvement=0.02,
        ),
        shadow=ShadowEvaluator(window_days=30),
        retention=6,
    )
    return engine, controller


def _daily_usage(rng, rate: float) -> float:
    """One noisy daily reading around a vehicle's base rate."""
    return float(np.clip(rate + rng.normal(0.0, rate * 0.02), 1_000, 86_400))


def generate_lifecycle_ops(
    n_vehicles: int,
    seed: int,
    *,
    warm_days: int = 70,
    drift_days: int = 45,
    sweep_days: int = 40,
    n_drifted: int = 2,
    drift_factor: float = 2.0,
) -> list[dict]:
    """The drift scenario as a deterministic op stream.

    Registers ``lc00``…, then one ``day`` op per day carrying the whole
    fleet's readings (one journal record).  From day 15 each day is
    followed by a ``predict`` op serving the fleet (resolving residuals
    into the monitor).  After ``warm_days`` the first ``n_drifted``
    vehicles run at ``drift_factor`` × their base rate; after a further
    ``drift_days`` each day ends with a ``sweep`` op (one lifecycle
    sweep, which may journal promote records) for ``sweep_days`` days.
    Journal seqs do *not* map 1:1 onto ops, so a kill drill checks
    recovery for internal consistency, not against an op prefix.
    Raises ``ValueError`` unless ``0 <= n_drifted <= n_vehicles``.
    """
    if not 0 <= n_drifted <= n_vehicles:
        raise ValueError(
            f"n_drifted must be in [0, {n_vehicles}], got {n_drifted}."
        )
    rng = np.random.default_rng(seed)
    ids = [f"lc{i:02d}" for i in range(n_vehicles)]
    drifted = set(ids[:n_drifted])
    rates = dict(zip(ids, rng.uniform(15_000.0, 21_000.0, size=n_vehicles)))
    ops: list[dict] = [{"op": "register", "v": vid} for vid in ids]
    for day in range(warm_days + drift_days + sweep_days):
        drifting = day >= warm_days
        ops.append(
            {
                "op": "day",
                "d": day,
                "u": {
                    vid: _daily_usage(
                        rng,
                        rates[vid]
                        * (drift_factor if vid in drifted and drifting else 1),
                    )
                    for vid in ids
                },
            }
        )
        if day >= _PREDICT_FROM:
            ops.append({"op": "predict"})
        if day >= warm_days + drift_days:
            ops.append({"op": "sweep"})
    return ops


def apply_lifecycle_op(engine, controller, op: dict):
    """Apply one scenario op.

    Returns the fleet's forecasts for a ``predict`` op and the sweep's
    decision entries for a ``sweep`` op (``None`` otherwise).
    """
    if op["op"] == "register":
        return engine.service.register_vehicle(op["v"])
    if op["op"] == "day":
        return engine.ingest_day(
            {vid: float(s) for vid, s in op["u"].items()}, day=op.get("d")
        )
    if op["op"] == "predict":
        return engine.predict_all()
    if op["op"] == "sweep":
        return controller.run_once()
    raise ValueError(f"unknown lifecycle drill op {op['op']!r}")


def drift_promotion_drill(
    *,
    n_vehicles: int = 6,
    n_drifted: int = 2,
    seed: int = 0,
    warm_days: int = 70,
    drift_days: int = 45,
    recovery_days: int = 75,
    drift_factor: float = 2.0,
    threshold_days: float = 2.0,
    t_v: float = _DRILL_T_V,
    store_dir=None,
) -> dict:
    """Run the drift-injection promotion drill; returns the check report.

    Replays :func:`generate_lifecycle_ops` with ``recovery_days`` sweep
    days: ``warm_days`` of the base regime (champions train once and
    freeze), then ``drift_days`` of silent degradation, then one
    lifecycle sweep per day while the drifted regime continues.
    """
    ops = generate_lifecycle_ops(
        n_vehicles,
        seed,
        warm_days=warm_days,
        drift_days=drift_days,
        sweep_days=recovery_days,
        n_drifted=n_drifted,
        drift_factor=drift_factor,
    )
    ids = [op["v"] for op in ops if op["op"] == "register"]
    drifted = set(ids[:n_drifted])
    with (
        tempfile.TemporaryDirectory(prefix="repro-lifecycle-")
        if store_dir is None
        else contextlib.nullcontext(store_dir)
    ) as store:
        engine, controller = _build_stack(
            store_dir=store, t_v=t_v, threshold_days=threshold_days
        )
        service = engine.service
        monitor = service.monitor

        # Forecast quality accounting: serving must never degrade or
        # shrink, and each day's error peak is read before its sweep.
        degraded_serves = 0
        short_batches = 0
        peak_mae = {vid: 0.0 for vid in ids}
        last_forecasts = []
        for op in ops:
            out = apply_lifecycle_op(engine, controller, op)
            if op["op"] == "predict":
                last_forecasts = out
                degraded_serves += sum(1 for f in out if f.degraded)
                short_batches += len(out) != len(ids)
            elif op["op"] == "day":
                for vid in ids:
                    mae = monitor.mean_abs_error(vid)
                    if np.isfinite(mae):
                        peak_mae[vid] = max(peak_mae[vid], mae)

    final_mae = {
        vid: float(mae)
        for vid in ids
        if np.isfinite(mae := monitor.mean_abs_error(vid))
    }
    promoted = {
        e["vehicle_id"]
        for e in service.lifecycle_log
        if e["action"] == "promote"
    }
    drift_triggered = {
        e["vehicle_id"]
        for e in controller.history
        if e["trigger"].startswith("drift")
    }
    candidates_seen = {e["vehicle_id"] for e in controller.history}
    drifted_peak = min((peak_mae[vid] for vid in drifted), default=0.0)
    drifted_final = max(
        (final_mae.get(vid, 0.0) for vid in drifted), default=float("inf")
    )

    checks = [
        (
            "zero degraded serves, every batch complete",
            degraded_serves == 0 and short_batches == 0,
        ),
        (
            "drift alerts fired for every drifted vehicle",
            drifted <= drift_triggered,
        ),
        (
            "no spurious lifecycle candidates",
            candidates_seen <= drifted,
        ),
        (
            "stale champions breached the alert threshold",
            drifted_peak > threshold_days,
        ),
        (
            "replacements promoted for exactly the drifted vehicles",
            promoted == drifted,
        ),
        (
            "fleet mean error recovered under the threshold",
            drifted_final <= threshold_days
            and drifted_final < drifted_peak,
        ),
        (
            "promoted versions attributed in forecasts",
            all(
                f.model_version is not None
                for f in last_forecasts
                if f.vehicle_id in drifted
            )
            and bool(last_forecasts),
        ),
    ]
    digest = hashlib.sha256(
        json.dumps(
            {
                "log": service.lifecycle_log,
                "history": controller.history,
                "forecasts": [f.to_dict() for f in last_forecasts],
            },
            sort_keys=True,
            default=str,
        ).encode()
    ).hexdigest()
    return {
        "ok": all(ok for _label, ok in checks),
        "checks": [{"name": label, "ok": ok} for label, ok in checks],
        "seed": seed,
        "drifted": sorted(drifted),
        "promoted": sorted(promoted),
        "peak_mae": {vid: round(peak_mae[vid], 4) for vid in sorted(ids)},
        "final_mae": {
            vid: round(mae, 4) for vid, mae in sorted(final_mae.items())
        },
        "counters": controller.counters(),
        "still_degraded": monitor.still_degraded(),
        "digest": digest,
    }

# -- SIGKILL drill ---------------------------------------------------------


def _durability_config():
    """The drill's checkpoint cadence, about every 48 fleet days of 5
    readings (imported lazily: serving imports this package, and needs
    no durability layer)."""
    from ..durability import DurabilityConfig

    return DurabilityConfig(checkpoint_every=240)


def _recover_stack(state_dir: Path, *, with_store: bool):
    """A fresh drill stack recovered from ``state_dir``.

    Returns ``(engine, controller, manager)``; the caller closes the
    manager.  ``with_store`` points the service at the worker's model
    store (journaled promotions then reinstall the exact artifacts);
    without it, recovery retrains every champion deterministically.
    """
    from ..durability import RecoveryManager

    engine, controller = _build_stack(
        store_dir=str(state_dir / "models") if with_store else None
    )
    manager = RecoveryManager(
        state_dir, engine.service, config=_durability_config()
    )
    manager.recover()
    return engine, controller, manager


def _worker_stack(state_dir: Path, t_v: float):
    """The kill drill's worker stack (see ``run_killed_worker``)."""
    engine, controller = _build_stack(
        store_dir=str(state_dir / "models"), t_v=t_v
    )
    return (
        engine.service,
        functools.partial(apply_lifecycle_op, engine, controller),
        _durability_config(),
    )


def lifecycle_kill_drill(
    work_dir,
    *,
    n_vehicles: int = 5,
    seed: int = 0,
    kill_after: int | None = None,
    throttle_ms: float = 1.0,
    timeout_s: float = 180.0,
) -> dict:
    """SIGKILL the worker mid-sweep; prove recovery is consistent.

    ``kill_after`` is the op count after which the worker is killed
    (default: halfway through the sweep phase, where promotions are
    being journaled).  Checks: recovery succeeds; two independent
    recoveries produce bit-identical forecasts, lifecycle logs and
    health; acknowledged journal records survived; and every journaled
    promotion whose artifact is still stored is reinstalled such that
    the in-memory champion predicts identically to the stored version.
    Each recovery runs on its own copy of ``work_dir/state``, which is
    left exactly as the killed worker left it.
    """
    from ..durability.drill import run_killed_worker

    ops = generate_lifecycle_ops(n_vehicles, seed)
    if kill_after is None:
        first_sweep = next(
            (i for i, op in enumerate(ops) if op["op"] == "sweep"),
            len(ops) // 2,
        )
        kill_after = (first_sweep + len(ops)) // 2
    (
        kill_after, killed, applied_acked, durable_acked, acked_seq
    ) = run_killed_worker(
        work_dir,
        ops,
        _worker_stack,
        kill_after=kill_after,
        throttle_ms=throttle_ms,
        timeout_s=timeout_s,
    )
    state_dir = Path(work_dir) / "state"

    def recover_copy(name: str, *, with_store: bool):
        # Each pass recovers its own copy of what the dead worker left
        # (a recovery closes with a checkpoint), so the passes are
        # independent and ``state/`` stays as killed, for
        # ``repro recover --dry-run`` to inspect.
        copy_dir = Path(work_dir) / name
        shutil.copytree(state_dir, copy_dir)
        return _recover_stack(copy_dir, with_store=with_store)

    # Artifact-integrity pass first: recovery reinstalls the stored
    # versions of promoted vehicles (frozen champions never retrain).
    engine, _, manager = recover_copy("recovered-artifacts", with_store=True)
    service = engine.service
    last_seq = manager.journal.last_seq
    acks_durable = applied_acked == durable_acked
    acked_survived = last_seq >= acked_seq
    promotes = {}
    for event in service.lifecycle_log:
        if event["action"] in ("promote", "rollback", "pin"):
            promotes[event["vehicle_id"]] = event["version"]
    artifacts_ok = True
    artifacts_checked = 0
    probe = np.array([[100_000.0]])
    for vid, version in sorted(promotes.items()):
        if version is None:
            continue
        key = f"{vid}.per-vehicle"
        if version not in service.store.versions(key):
            continue  # pruned after a later promotion: consistent
        artifacts_checked += 1
        # Recovery itself must have reinstalled the exact stored
        # artifact, not retrained, before any read; a read then serves
        # that version.
        champion = service.champion(vid)
        stored = service.store.load(key, version)
        artifacts_ok &= (
            champion.version == version
            and np.array_equal(
                np.asarray(champion.predictor.predict(probe)),
                np.asarray(stored.predictor.predict(probe)),
            )
            and service.predict(vid).model_version == version
        )
    lifecycle_log = [dict(e) for e in service.lifecycle_log]
    manager.close()

    # Determinism pass: two independent store-less recoveries must agree
    # bit-for-bit (forecasts, lifecycle log, health).
    snapshots = []
    for i in range(2):
        engine, _, manager = recover_copy(f"recovered-{i}", with_store=False)
        service = engine.service
        ready = [
            vid
            for vid in service.vehicle_ids
            if service.n_days(vid) > service.window
        ]
        snapshots.append(
            {
                "forecasts": {
                    vid: service.predict(vid).to_dict() for vid in ready
                },
                "log": [dict(e) for e in service.lifecycle_log],
                "health": service.health().as_dict(),
            }
        )
        manager.close()
    replay_deterministic = snapshots[0] == snapshots[1]

    checks = [
        ("worker killed mid-run", killed),
        ("every ack was durable when sent", acks_durable),
        ("acknowledged records survived", acked_survived),
        ("replay deterministic across recoveries", replay_deterministic),
        ("journaled promotions reinstalled bit-identically", artifacts_ok),
        ("at least one promotion journaled before the kill",
         bool(promotes)),
    ]
    return {
        "ok": all(ok for _label, ok in checks),
        "checks": [{"name": label, "ok": ok} for label, ok in checks],
        "ops_total": len(ops),
        "kill_after": kill_after,
        "applied_acked": applied_acked,
        "durable_acked": durable_acked,
        "acked_seq": acked_seq,
        "last_seq": last_seq,
        "promotions_journaled": len(
            [e for e in lifecycle_log if e["action"] == "promote"]
        ),
        "artifacts_checked": artifacts_checked,
    }
