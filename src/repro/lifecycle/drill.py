"""Lifecycle drills: drift-injection promotion and SIGKILL recovery.

Two end-to-end proofs for the lifecycle subsystem:

:func:`drift_promotion_drill`
    Seeds a fleet, warms per-vehicle champions, then injects concept
    drift (scaled usage rates) into K vehicles while the champions stay
    frozen (``retrain_on_cycle=False``) — exactly the stale-model
    failure the Scania study documents.  Lifecycle sweeps must then:
    fire debounced drift alerts for the drifted vehicles only, promote
    evaluation-gated replacements for exactly those vehicles, and bring
    the fleet's mean error back under the alert threshold — all with
    zero degraded serves (the champion keeps serving until the atomic
    swap).  Deterministic under the seed.

:func:`lifecycle_kill_drill`
    Runs the same scenario in a subprocess that journals every mutation
    (including lifecycle promotions) through ``repro.durability``, then
    SIGKILLs it mid-sweep.  Recovery from the state directory must
    succeed, replay deterministically (two independent recoveries are
    bit-identical), honour the acknowledged-write guarantee, and
    reinstall every journaled promotion from the model store so the
    recovered champion predicts identically to the stored artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal  # noqa: F401  (documents the drill's SIGKILL contract)
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = [
    "drift_promotion_drill",
    "generate_lifecycle_ops",
    "lifecycle_kill_drill",
]

#: Shared drill fleet configuration (small cycles -> fast maintenance).
_DRILL_T_V = 200_000.0


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

    Timeline: ``warm_days`` of the base regime (champions train once and
    freeze), then the first ``n_drifted`` vehicles permanently shift to
    ``drift_factor`` × their base rate.  After ``drift_days`` of silent
    degradation the lifecycle controller starts sweeping once per day
    for ``recovery_days`` while the drifted regime continues.
    """
    if not 1 <= n_drifted <= n_vehicles:
        raise ValueError(
            f"n_drifted must be in [1, {n_vehicles}], got {n_drifted}."
        )
    cleanup = None
    if store_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-lifecycle-")
        store_dir = cleanup.name
    try:
        return _drift_promotion_drill(
            n_vehicles=n_vehicles,
            n_drifted=n_drifted,
            seed=seed,
            warm_days=warm_days,
            drift_days=drift_days,
            recovery_days=recovery_days,
            drift_factor=drift_factor,
            threshold_days=threshold_days,
            t_v=t_v,
            store_dir=store_dir,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _drift_promotion_drill(
    *,
    n_vehicles,
    n_drifted,
    seed,
    warm_days,
    drift_days,
    recovery_days,
    drift_factor,
    threshold_days,
    t_v,
    store_dir,
) -> dict:
    rng = np.random.default_rng(seed)
    ids = [f"lc{i:02d}" for i in range(n_vehicles)]
    drifted = set(ids[:n_drifted])
    rates = dict(zip(ids, rng.uniform(15_000.0, 21_000.0, size=n_vehicles)))

    engine, controller = _build_stack(
        store_dir=store_dir, t_v=t_v, threshold_days=threshold_days
    )
    service = engine.service
    monitor = service.monitor
    engine.register_fleet(ids)

    # Forecast quality accounting: serving must never degrade or shrink.
    degraded_serves = 0
    short_batches = 0
    peak_mae = {vid: 0.0 for vid in ids}
    predict_from = 15  # all vehicles OLD well before this (t_v / rate ~ 10d)
    last_forecasts = []

    def one_day(day: int, *, drifting: bool, sweep: bool) -> None:
        nonlocal degraded_serves, short_batches, last_forecasts
        batch = {
            vid: _daily_usage(
                rng, rates[vid] * (drift_factor if drifting and vid in drifted else 1.0)
            )
            for vid in ids
        }
        engine.ingest_day(batch, day=day)
        if day >= predict_from:
            forecasts = engine.predict_all()
            last_forecasts = forecasts
            degraded_serves += sum(1 for f in forecasts if f.degraded)
            if len(forecasts) != len(ids):
                short_batches += 1
        for vid in ids:
            mae = monitor.mean_abs_error(vid)
            if np.isfinite(mae):
                peak_mae[vid] = max(peak_mae[vid], mae)
        if sweep:
            controller.run_once()

    day = 0
    for _ in range(warm_days):
        one_day(day, drifting=False, sweep=False)
        day += 1
    for _ in range(drift_days):
        one_day(day, drifting=True, sweep=False)
        day += 1
    for _ in range(recovery_days):
        one_day(day, drifting=True, sweep=True)
        day += 1

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
    drifted_peak = min(peak_mae[vid] for vid in drifted)
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
    """Deterministic op stream replaying the drift scenario as ops.

    ``day`` ops carry the whole fleet's readings (one journal record),
    ``predict`` ops serve the fleet (resolving residuals into the
    monitor), and ``sweep`` ops run one lifecycle sweep — each sweep may
    journal promote records.  The op stream is what the killable worker
    executes; journal seqs do *not* map 1:1 onto ops here, so recovery
    is checked for internal consistency, not against an op prefix.
    """
    rng = np.random.default_rng(seed)
    ids = [f"lc{i:02d}" for i in range(n_vehicles)]
    drifted = set(ids[:n_drifted])
    rates = dict(zip(ids, rng.uniform(15_000.0, 21_000.0, size=n_vehicles)))
    ops: list[dict] = [{"op": "register", "v": vid} for vid in ids]
    day = 0
    predict_from = 15

    def day_op(drifting: bool) -> dict:
        return {
            "op": "day",
            "d": day,
            "u": {
                vid: _daily_usage(
                    rng,
                    rates[vid]
                    * (drift_factor if drifting and vid in drifted else 1.0),
                )
                for vid in ids
            },
        }

    for _ in range(warm_days):
        ops.append(day_op(False))
        if day >= predict_from:
            ops.append({"op": "predict"})
        day += 1
    for _ in range(drift_days):
        ops.append(day_op(True))
        ops.append({"op": "predict"})
        day += 1
    for _ in range(sweep_days):
        ops.append(day_op(True))
        ops.append({"op": "predict"})
        ops.append({"op": "sweep"})
        day += 1
    return ops


def apply_lifecycle_op(engine, controller, op: dict) -> None:
    """Apply one drill op; swallows the per-op errors ops can raise."""
    try:
        if op["op"] == "register":
            engine.service.register_vehicle(op["v"])
        elif op["op"] == "day":
            engine.ingest_day(
                {vid: float(s) for vid, s in op["u"].items()}, day=op.get("d")
            )
        elif op["op"] == "predict":
            engine.predict_all()
        elif op["op"] == "sweep":
            controller.run_once()
        else:
            raise ValueError(f"unknown lifecycle drill op {op['op']!r}")
    except (ValueError, KeyError):
        pass


def _recover_stack(state_dir: Path, *, with_store: bool):
    """A fresh drill stack recovered from ``state_dir``.

    Returns ``(engine, controller, manager)``; the caller closes the
    manager.  ``with_store`` points the service at the worker's model
    store (journaled promotions then reinstall the exact artifacts);
    without it, replay degrades to deterministic lazy retraining.
    """
    from ..durability import DurabilityConfig, RecoveryManager

    engine, controller = _build_stack(
        store_dir=str(state_dir / "models") if with_store else None
    )
    manager = RecoveryManager(
        state_dir,
        engine.service,
        config=DurabilityConfig(fsync_every=4, checkpoint_every=48),
    )
    manager.recover()
    return engine, controller, manager


def _worker_main(argv: list[str] | None = None) -> int:
    """``python -m repro.lifecycle.drill``: the killable worker."""
    parser = argparse.ArgumentParser(
        description="lifecycle kill-drill worker (internal)"
    )
    parser.add_argument("--state", required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--acks", required=True)
    parser.add_argument("--throttle-ms", type=float, default=0.0)
    args = parser.parse_args(argv)

    from ..durability import DurabilityConfig, RecoveryManager

    ops = [
        json.loads(line)
        for line in Path(args.records).read_text("utf-8").splitlines()
        if line.strip()
    ]
    state_dir = Path(args.state)
    engine, controller = _build_stack(store_dir=str(state_dir / "models"))
    manager = RecoveryManager(
        state_dir,
        engine.service,
        config=DurabilityConfig(fsync_every=4, checkpoint_every=48),
    )
    manager.recover()
    acks = open(args.acks, "a", encoding="utf-8")
    for index, op in enumerate(ops, start=1):
        apply_lifecycle_op(engine, controller, op)
        manager.maybe_checkpoint()
        acks.write(f"{index} {manager.journal.durable_seq}\n")
        acks.flush()
        if args.throttle_ms > 0:
            time.sleep(args.throttle_ms / 1000.0)
    acks.close()
    manager.close()
    return 0


def _read_acks(path: Path) -> tuple[int, int]:
    """(ops applied, durable seq at last ack) from the acks file."""
    applied = durable = 0
    try:
        text = path.read_text("utf-8")
    except OSError:
        return 0, 0
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                applied, durable = int(parts[0]), int(parts[1])
            except ValueError:
                continue
    return applied, durable


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
    """
    work_dir = Path(work_dir)
    if work_dir.exists():
        shutil.rmtree(work_dir)
    state_dir = work_dir / "state"
    work_dir.mkdir(parents=True)

    ops = generate_lifecycle_ops(n_vehicles, seed)
    first_sweep = next(
        (i for i, op in enumerate(ops) if op["op"] == "sweep"), len(ops) // 2
    )
    if kill_after is None:
        kill_after = (first_sweep + len(ops)) // 2
    kill_after = max(1, min(kill_after, len(ops)))
    records_path = work_dir / "records.jsonl"
    records_path.write_text(
        "".join(json.dumps(op) + "\n" for op in ops), "utf-8"
    )
    acks_path = work_dir / "acks.log"
    acks_path.touch()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    worker = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.lifecycle.drill",
            "--state",
            str(state_dir),
            "--records",
            str(records_path),
            "--acks",
            str(acks_path),
            "--throttle-ms",
            str(throttle_ms),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout_s
    killed = False
    applied_acked = durable_acked = 0
    while time.monotonic() < deadline:
        applied_acked, durable_acked = _read_acks(acks_path)
        if applied_acked >= kill_after:
            worker.kill()  # SIGKILL: no atexit, no flush, no cleanup
            killed = True
            break
        if worker.poll() is not None:
            break  # finished every op before the kill point
        time.sleep(0.005)
    if not killed and worker.poll() is None:
        worker.kill()
        stderr = worker.communicate()[1]
        raise TimeoutError(
            f"lifecycle drill worker stalled at {applied_acked}/{kill_after} "
            f"acked ops within {timeout_s}s: {stderr.decode(errors='replace')}"
        )
    stderr = worker.communicate()[1]
    if not killed and worker.returncode != 0:
        raise RuntimeError(
            f"lifecycle drill worker failed before the kill point: "
            f"{stderr.decode(errors='replace')}"
        )
    applied_acked, durable_acked = _read_acks(acks_path)

    # Artifact-integrity pass first (reads state only, predicts nothing,
    # so the shared model store is not advanced by lazy retrains).
    engine, _, manager = _recover_stack(state_dir, with_store=True)
    service = engine.service
    last_seq = manager.journal.last_seq
    acked_survived = last_seq >= durable_acked
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
        state = service._vehicles[vid]
        # A promotion journaled before the last checkpoint is restored
        # as a version number with a lazy model; resolving it must
        # reload the exact stored artifact, not retrain.
        service._ensure_vehicle_model(vid)
        stored = service.store.load(key, version)
        if state.model_version != version or state.model is None:
            artifacts_ok = False
            continue
        if not np.array_equal(
            np.asarray(state.model.predict(probe)),
            np.asarray(stored.predictor.predict(probe)),
        ):
            artifacts_ok = False
    lifecycle_log = [dict(e) for e in service.lifecycle_log]
    manager.close()

    # Determinism pass: two independent store-less recoveries must agree
    # bit-for-bit (forecasts, lifecycle log, health).
    snapshots = []
    for _ in range(2):
        engine, _, manager = _recover_stack(state_dir, with_store=False)
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
        "last_seq": last_seq,
        "promotions_journaled": len(
            [e for e in lifecycle_log if e["action"] == "promote"]
        ),
        "artifacts_checked": artifacts_checked,
    }


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(_worker_main())
