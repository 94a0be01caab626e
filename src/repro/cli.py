"""Command-line interface.

Operational entry points for the reproduction:

* ``generate``  — write the synthetic fleet to CSV/JSON;
* ``calibrate`` — print the fleet calibration report;
* ``evaluate``  — regenerate a table/figure of the paper;
* ``predict``   — train a model for one vehicle of a stored fleet and
  forecast its next maintenance;
* ``chaos``     — replay a seeded fault-injection scenario against the
  resilient serving stack and print the fleet health report, or (with
  ``--kill-after``) run the SIGKILL kill-recovery drill, or (with
  ``--drift``) run the drift-injection lifecycle drill;
* ``lifecycle`` — drive the model-lifecycle controller over a seeded
  drift scenario: print its admin status, run one sweep, or watch
  promotions land day by day;
* ``recover``   — recover a durable state directory (write-ahead
  journal + checkpoints), or inspect it read-only with ``--dry-run``;
* ``serve``     — run the asyncio HTTP gateway (micro-batching,
  admission control, deadline-aware backpressure) in front of a fleet
  engine;
* ``obs``       — profile the serving pipeline stages (ingest /
  feature-build / train / predict) over a deterministic scenario and
  dump the event log as JSON lines.

Usage: ``python -m repro <command> [options]`` (see ``--help`` per
command).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """argparse type for worker/size knobs: an integer >= 1.

    ``--max-workers 0`` (or a negative count) would otherwise fail deep
    inside ``concurrent.futures``; rejecting it at the parser gives a
    clear, immediate error instead.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_generate(args) -> int:
    from .fleet import FleetGenerator, calibrate, save_fleet

    fleet = FleetGenerator(
        n_vehicles=args.vehicles, t_v=args.t_v, seed=args.seed
    ).generate()
    usage_path, meta_path = save_fleet(fleet, args.output, stem=args.stem)
    print(f"Wrote {usage_path}")
    print(f"Wrote {meta_path}")
    print()
    print(calibrate(fleet).summary())
    return 0


def _cmd_calibrate(args) -> int:
    from .fleet import FleetGenerator, calibrate, load_fleet

    if args.input:
        fleet = load_fleet(args.input, stem=args.stem)
    else:
        fleet = FleetGenerator(
            n_vehicles=args.vehicles, t_v=args.t_v, seed=args.seed
        ).generate()
    print(calibrate(fleet).summary())
    return 0


_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "figure4",
    "figure5",
    "timing",
    "model-selection",
    "all",
)


def _cmd_evaluate(args) -> int:
    from .experiments import (
        ExperimentSetup,
        run_figure4,
        run_figure5,
        run_model_selection,
        run_table1,
        run_table2,
        run_table3,
        run_timing,
    )

    setup = ExperimentSetup(
        seed=args.seed,
        n_vehicles=args.vehicles,
        fast=not args.paper_grids,
        n_old_vehicles=args.old_vehicles,
        max_workers=args.max_workers,
    )

    def render_all() -> list[str]:
        figure4 = run_figure4(setup)
        table2 = run_table2(setup, figure4)
        return [
            run_table1(setup).render(),
            figure4.render(),
            table2.render(),
            run_figure5(setup, table2).render(),
            run_table3(setup).render(),
            run_model_selection(setup).render(),
            run_timing(setup).render(),
        ]

    if args.experiment == "all":
        for text in render_all():
            print(text)
            print()
        return 0
    if args.experiment == "table1":
        result = run_table1(setup)
    elif args.experiment == "table3":
        result = run_table3(setup)
    elif args.experiment == "timing":
        result = run_timing(setup)
    elif args.experiment == "model-selection":
        result = run_model_selection(setup)
    else:
        figure4 = run_figure4(setup)
        if args.experiment == "figure4":
            result = figure4
        elif args.experiment == "table2":
            result = run_table2(setup, figure4)
        else:  # figure5
            result = run_figure5(setup, run_table2(setup, figure4))
    print(result.render())
    return 0


def _cmd_predict(args) -> int:
    import datetime as dt

    from .core import FleetMaintenancePlanner, VehicleSeries, make_predictor
    from .dataprep import build_relational_dataset
    from .fleet import load_fleet

    fleet = load_fleet(args.input, stem=args.stem)
    try:
        vehicle = fleet[args.vehicle]
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    series = VehicleSeries.from_vehicle(vehicle)
    dataset = build_relational_dataset(series.bundle, window=args.window)
    if dataset.n_records == 0:
        print(
            f"Vehicle {args.vehicle!r} has no completed cycles to train on.",
            file=sys.stderr,
        )
        return 2
    predictor = make_predictor(args.algorithm)
    predictor.fit(dataset, usage=series.usage)
    forecast = FleetMaintenancePlanner.forecast_vehicle(
        series, predictor, window=args.window
    )
    due = vehicle.date_of_day(series.n_days - 1) + dt.timedelta(
        days=int(round(forecast.days_to_maintenance))
    )
    print(f"vehicle          : {forecast.vehicle_id}")
    print(f"category         : {forecast.category.value}")
    print(f"budget left      : {forecast.usage_left:,.0f} s")
    print(f"days to maint.   : {forecast.days_to_maintenance:.1f}")
    print(f"predicted due    : {due.isoformat()}")
    return 0


def _run_kill_drill(args) -> int:
    """``chaos --kill-after``: SIGKILL a journaling worker mid-ingest,
    recover from the state dir, and fail loudly if the recovered state
    diverges from an uninterrupted reference run."""
    import json
    import tempfile

    from .durability.drill import kill_recovery_drill

    work_dir = args.state_dir
    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix="repro-drill-")
    report = kill_recovery_drill(
        work_dir,
        n_vehicles=args.vehicles,
        days=args.days,
        seed=args.seed,
        kill_after=args.kill_after,
        t_v=args.t_v,
        torn_tail=args.torn_tail,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"killed worker after {report['applied_acked']}/"
            f"{report['ops_total']} ops "
            f"(durably acked: {report['durable_acked']})"
        )
        print(
            f"recovered: checkpoint seq {report['checkpoint_seq']}, "
            f"{report['replayed']} journal records replayed, "
            f"last seq {report['last_seq']}"
        )
        if report["torn_tail"]:
            print(
                f"torn tail: {report['torn_bytes']} bytes planted, "
                f"{report['torn_records_dropped']} torn records dropped"
            )
        for label, ok in (
            ("acknowledged writes survived", report["acked_survived"]),
            ("forecasts bit-identical", report["forecasts_match"]),
            ("fleet health identical", report["health_match"]),
        ):
            print(f"[{'ok' if ok else 'FAIL'}] {label}")
        print(f"state dir left at {work_dir}")
    return 0 if report["ok"] else 1


def _run_drift_drill(args) -> int:
    """``chaos --drift``: inject concept drift into part of the fleet,
    let the lifecycle controller promote evaluation-gated replacements,
    and fail loudly unless the fleet's error recovers with zero serving
    interruption."""
    import json

    from .lifecycle import drift_promotion_drill

    report = drift_promotion_drill(seed=args.seed, n_vehicles=args.vehicles)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"drifted  : {', '.join(report['drifted'])} "
            f"(peak mae {max(report['peak_mae'].values()):.2f}d)"
        )
        print(
            f"promoted : {', '.join(report['promoted']) or '(none)'} "
            f"(final mae "
            f"{max(report['final_mae'].get(v, 0.0) for v in report['drifted']):.2f}d)"
        )
        print(f"counters : {report['counters']}")
        print()
        for check in report["checks"]:
            print(f"[{'ok' if check['ok'] else 'FAIL'}] {check['name']}")
    return 0 if report["ok"] else 1


def _cmd_chaos(args) -> int:
    """Deterministic chaos run: dirty readings, failing trainers and
    flaky storage against the resilient service; self-verifies that the
    FleetHealth counters match the injected fault counts exactly."""
    if args.drift:
        return _run_drift_drill(args)
    if args.kill_after is not None:
        return _run_kill_drill(args)

    import tempfile

    import numpy as np

    from .serving import (
        CircuitBreaker,
        DriftMonitor,
        FaultInjector,
        FaultyStore,
        FleetEngine,
        IngestionGuard,
        MaintenancePredictionService,
        ModelStore,
        RetryPolicy,
        corrupt_readings,
        faulty_predictor_factory,
    )

    rng = np.random.default_rng(args.seed)
    clean = {
        f"v{i:02d}": rng.uniform(10_000, 28_000, size=args.days)
        for i in range(args.vehicles)
    }
    injector = FaultInjector(
        seed=args.seed,
        rates={
            "reading.non_finite": 0.03,
            "reading.negative": 0.02,
            "reading.too_large": 0.02,
            "reading.duplicate": 0.02,
            "reading.out_of_order": 0.02,
            "train": 0.15,
            "predict": 0.05,
            "store.save": 0.20,
            "store.corrupt": 0.10,
        },
    )
    feeds = {
        vehicle_id: list(corrupt_readings(injector, usage))
        for vehicle_id, usage in sorted(clean.items())
    }
    retry = RetryPolicy(attempts=3, sleep=lambda _s: None, seed=args.seed)

    with tempfile.TemporaryDirectory() as tmp:
        service = MaintenancePredictionService(
            t_v=args.t_v,
            window=0,
            algorithm="LR",
            store=FaultyStore(ModelStore(tmp), injector),
            monitor=DriftMonitor(min_samples=1),
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
            retry=retry,
            predictor_factory=faulty_predictor_factory(injector),
        )
        engine = FleetEngine(service)
        engine.register_fleet(clean)

        degraded = total_forecasts = 0
        last_forecasts = []
        steps = max(len(feed) for feed in feeds.values())
        for step in range(steps):
            for vehicle_id in sorted(feeds):
                feed = feeds[vehicle_id]
                if step < len(feed):
                    day, value = feed[step]
                    service.ingest(vehicle_id, value, day=day)
            if (step + 1) % 5 == 0 or step == steps - 1:
                forecasts = engine.predict_all()
                total_forecasts += len(forecasts)
                degraded += sum(1 for f in forecasts if f.degraded)
                last_forecasts = forecasts

        health = engine.health()
        if not args.json:
            print(health.render())
            print()
            print(
                f"forecasts served : {total_forecasts} ({degraded} degraded)"
            )
            print(f"injected         : {dict(injector.injected)}")

        anomalies = health.total_anomalies()
        checks = [
            (
                "reading faults quarantined/flagged",
                anomalies.get("non-finite", 0)
                == injector.injected["reading.non_finite"]
                and anomalies.get("negative", 0)
                == injector.injected["reading.negative"]
                and anomalies.get("too-large", 0)
                == injector.injected["reading.too_large"]
                and anomalies.get("duplicate-day", 0)
                == injector.injected["reading.duplicate"]
                and anomalies.get("out-of-order", 0)
                == injector.injected["reading.out_of_order"],
            ),
            (
                "breaker failures == injected train+predict faults",
                health.breaker_failures()
                == injector.injected["train"] + injector.injected["predict"],
            ),
            (
                "store faults == retried + persist failures",
                injector.injected["store.save"]
                == retry.retries + health.persist_failures,
            ),
        ]
        failed = sum(not ok for _label, ok in checks)
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "health": health.as_dict(),
                        "forecasts": [f.to_dict() for f in last_forecasts],
                        "forecasts_served": total_forecasts,
                        "degraded_serves": degraded,
                        "injected": dict(injector.injected),
                        "checks": {label: ok for label, ok in checks},
                    },
                    indent=2,
                )
            )
        else:
            print()
            for label, ok in checks:
                print(f"[{'ok' if ok else 'FAIL'}] {label}")
        return 1 if failed else 0


def _cmd_lifecycle(args) -> int:
    """Drive the lifecycle controller over the seeded drift scenario.

    Replays the drill's op stream in-process (warm champions, then
    inject drift into the first ``--drifted`` vehicles), then either
    prints the controller's admin ``status``, runs one sweep
    (``run-once``), or follows ``--ticks`` further days with a sweep per
    day (``watch``) — the same decision stream the gateway serves at
    ``/v1/lifecycle``.
    """
    import json
    import tempfile

    from .lifecycle.drill import (
        _build_stack,
        apply_lifecycle_op,
        generate_lifecycle_ops,
    )

    ops = generate_lifecycle_ops(
        args.vehicles,
        args.seed,
        warm_days=args.warm_days,
        drift_days=args.drift_days,
        sweep_days=args.ticks if args.mode == "watch" else 0,
        n_drifted=args.drifted,
        drift_factor=args.drift_factor,
    )
    with tempfile.TemporaryDirectory(prefix="repro-lifecycle-") as tmp:
        engine, controller = _build_stack(store_dir=tmp)
        # Only watch's stream has sweeps; their decisions print per day.
        decisions = []
        for op in ops:
            out = apply_lifecycle_op(engine, controller, op)
            if op["op"] == "day":
                day = op["d"]
            elif op["op"] == "sweep":
                for entry in out:
                    decisions.append({"day": day, **entry})
                    if not args.json:
                        print(
                            f"day {day}: {entry['vehicle_id']} "
                            f"{entry['outcome']} ({entry['trigger']}) — "
                            f"{entry['detail']}"
                        )

        if args.mode == "status":
            status = controller.status()
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                print(f"policy   : {status['policy']}")
                print(f"counters : {status['counters']}")
                for vid, info in sorted(status["vehicles"].items()):
                    mae = info["mean_abs_error"]
                    print(
                        f"  {vid}  {info['category']:<8} "
                        f"v{info['model_version']}  "
                        f"pinned={info['pinned_version'] or '-'}  "
                        f"mae={'n/a' if mae is None else f'{mae:.2f}d'}"
                    )
            return 0

        if args.mode == "run-once":
            entries = controller.run_once()
            if args.json:
                print(json.dumps(entries, indent=2, sort_keys=True))
            else:
                if not entries:
                    print("no candidates due")
                for entry in entries:
                    print(
                        f"{entry['vehicle_id']}: {entry['outcome']} "
                        f"({entry['trigger']}) — {entry['detail']}"
                    )
            return 0

        if args.json:
            print(
                json.dumps(
                    {
                        "decisions": decisions,
                        "counters": controller.counters(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(
                f"watched {args.ticks} day(s): "
                f"{controller.counters()['promotions']} promotion(s), "
                f"{controller.counters()['rejections']} rejection(s)"
            )
        return 0


def _cmd_recover(args) -> int:
    """Recover a durable state dir, or inspect it with ``--dry-run``.

    Dry-run is strictly read-only: it scans the journal segments
    (verifying CRC framing), probes the newest valid checkpoint without
    quarantining corrupt generations, and reports the lock holder —
    then exits 1 if the journal is damaged beyond its torn tail.  A
    full recover builds a service from the checkpointed state (or a
    guarded default-config service when no checkpoint exists yet),
    replays the journal, takes a fresh checkpoint, and releases.
    """
    import json
    from pathlib import Path

    from .durability import (
        CheckpointManager,
        DurabilityConfig,
        JournalCorruptError,
        LockHeldError,
        RecoveryError,
        RecoveryManager,
        WriteAheadJournal,
        build_service_from_state,
    )
    from .durability.recovery import LOCK_FILENAME, LockFile

    state_dir = Path(args.state)
    if args.dry_run:
        lock = LockFile(state_dir / LOCK_FILENAME)
        pid = lock.read_pid()
        checkpoints = CheckpointManager(state_dir / "checkpoints")
        ckpt = checkpoints.load_latest(quarantine=False)
        corrupt = None
        try:
            scan = WriteAheadJournal.scan(state_dir / "journal")
        except JournalCorruptError as exc:
            corrupt = str(exc)
            scan = None
        ckpt_seq = ckpt.seq if ckpt is not None else 0
        report = {
            "state_dir": str(state_dir),
            "lock": (
                None
                if pid is None
                else {"pid": pid, "alive": LockFile._pid_alive(pid)}
            ),
            "checkpoint": (
                None
                if ckpt is None
                else {"seq": ckpt.seq, "path": str(ckpt.path)}
            ),
            "checkpoints_discarded": checkpoints.discarded,
            "journal": scan,
            "journal_corrupt": corrupt,
            "replay_needed": (
                max(0, scan["last_seq"] - ckpt_seq)
                if scan is not None
                else None
            ),
        }
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            lock_line = "free"
            if pid is not None:
                alive = LockFile._pid_alive(pid)
                lock_line = f"pid {pid} ({'ALIVE' if alive else 'stale'})"
            print(f"state dir  : {state_dir}")
            print(f"lock       : {lock_line}")
            print(
                "checkpoint : "
                + ("none" if ckpt is None else f"seq {ckpt.seq}")
                + (
                    f" ({checkpoints.discarded} corrupt generation(s))"
                    if checkpoints.discarded
                    else ""
                )
            )
            if scan is not None:
                print(
                    f"journal    : {scan['records']} records in "
                    f"{scan['segments']} segment(s), "
                    f"seq {scan['first_seq']}..{scan['last_seq']}, "
                    f"torn tail {scan['torn_tail_bytes']} bytes"
                )
                print(f"replay     : {report['replay_needed']} record(s)")
            else:
                print(f"journal    : CORRUPT — {corrupt}")
        return 1 if corrupt is not None else 0

    config = DurabilityConfig()
    checkpoints = CheckpointManager(
        state_dir / "checkpoints", keep=config.keep_checkpoints
    )
    ckpt = checkpoints.load_latest(quarantine=False)
    if ckpt is not None:
        service = build_service_from_state(ckpt.state)
    else:
        from .serving import IngestionGuard, MaintenancePredictionService

        service = MaintenancePredictionService(
            t_v=args.t_v,
            window=args.window,
            algorithm=args.algorithm,
            guard=IngestionGuard(),
        )
    manager = RecoveryManager(state_dir, service, config=config)
    try:
        report = manager.recover()
    except LockHeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (JournalCorruptError, RecoveryError, ValueError) as exc:
        print(f"error: recovery failed: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"recovered {len(service.vehicle_ids)} vehicle(s) from "
                f"checkpoint seq {report.checkpoint_seq} + "
                f"{report.replayed} replayed journal record(s) "
                f"in {report.duration_s * 1000.0:.1f} ms"
            )
            if report.replay_errors:
                print(
                    f"  {report.replay_errors} record(s) re-raised "
                    "during replay (counted, state unaffected)"
                )
            if report.torn_records_dropped:
                print(
                    f"  {report.torn_records_dropped} torn record(s) "
                    "truncated from the journal tail"
                )
            if report.checkpoints_discarded:
                print(
                    f"  {report.checkpoints_discarded} corrupt "
                    "checkpoint generation(s) quarantined"
                )
            if report.lock_stolen:
                print("  stale lock stolen from a dead holder")
    finally:
        manager.close()
    return 0


def _cmd_obs(args) -> int:
    """Profile the pipeline stages over a deterministic scenario.

    Attaches an :class:`~repro.obs.Observability` to an in-process
    engine, replays a seeded fleet (or a saved one), and prints the
    ring-buffer event log as JSON lines — ``--summary`` prints the
    per-stage duration summary and consolidated metrics snapshot
    instead.
    """
    import json

    import numpy as np

    from .obs import EventLog, Observability
    from .serving import DriftMonitor, FleetEngine

    fleet = None
    if args.input:
        from .fleet import load_fleet

        fleet = load_fleet(args.input, stem=args.stem)
    t_v = args.t_v if args.t_v is not None else (
        fleet.t_v if fleet is not None else 200_000.0
    )
    engine = FleetEngine(
        t_v=t_v,
        window=args.window,
        algorithm=args.algorithm,
        monitor=DriftMonitor(min_samples=1),
    )
    obs = Observability(events=EventLog(capacity=args.capacity))
    engine.attach_observability(obs)

    if fleet is not None:
        for vehicle in fleet.vehicles:
            engine.service.register_vehicle(vehicle.vehicle_id)
            engine.ingest_history(vehicle.vehicle_id, vehicle.usage)
    else:
        rng = np.random.default_rng(args.seed)
        for i in range(args.vehicles):
            vehicle_id = f"v{i:02d}"
            engine.service.register_vehicle(vehicle_id)
            engine.ingest_history(
                vehicle_id, rng.uniform(10_000, 28_000, size=args.days)
            )
    forecasts = engine.predict_all()

    if args.summary:
        print(
            json.dumps(
                {
                    "forecasts": len(forecasts),
                    "stages": obs.stage_summaries(),
                    "metrics": obs.registry.snapshot(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(obs.events.to_jsonl(args.tail))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serving import FleetEngine
    from .serving.gateway import FleetGateway, GatewayConfig

    gateway_config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch,
        max_queue=args.max_queue,
        default_deadline_s=args.deadline_ms / 1000.0,
        tracing=not args.no_tracing,
    )
    service_kwargs = {}
    if args.resilient:
        from .serving import CircuitBreaker, IngestionGuard, RetryPolicy

        service_kwargs = dict(
            guard=IngestionGuard(),
            breaker=CircuitBreaker(),
            retry=RetryPolicy(),
        )
    if args.store:
        from .serving import ModelStore

        service_kwargs["store"] = ModelStore(args.store)

    fleet = None
    if args.input:
        from .fleet import load_fleet

        fleet = load_fleet(args.input, stem=args.stem)
    t_v = args.t_v if args.t_v is not None else (
        fleet.t_v if fleet is not None else 2_000_000.0
    )

    manager = None
    if args.shards > 1:
        # Shared-nothing pool: N worker processes, each owning the
        # vehicles the consistent-hash router assigns it, with its own
        # model-store / journal / lifecycle partition.  The factory
        # runs inside each forked worker; the preloaded fleet crosses
        # over through fork memory, no pickling.
        from .serving.sharding import (
            ShardRouter,
            ShardedFleetEngine,
            build_shard_engine,
        )

        router = ShardRouter(args.shards)

        def engine_factory(shard_index: int):
            shard_engine = build_shard_engine(
                shard_index,
                store_dir=args.store,
                resilient=args.resilient,
                monitor=True,
                service_kwargs=dict(
                    t_v=t_v, window=args.window, algorithm=args.algorithm
                ),
            )
            if fleet is not None:
                for vehicle in fleet.vehicles:
                    if router.shard_for(vehicle.vehicle_id) == shard_index:
                        shard_engine.service.register_vehicle(
                            vehicle.vehicle_id
                        )
                        shard_engine.ingest_history(
                            vehicle.vehicle_id, vehicle.usage
                        )
            return shard_engine

        engine = ShardedFleetEngine(
            args.shards,
            engine_factory,
            router=router,
            lifecycle=True,
            durable_dir=args.durable,
        )
        counts = {index: 0 for index in range(args.shards)}
        for vehicle_id in engine.vehicle_ids:
            counts[router.shard_for(vehicle_id)] += 1
        print(
            f"sharded pool: {args.shards} worker processes, vehicles/shard "
            + "/".join(str(counts[index]) for index in sorted(counts))
        )
        if fleet is not None:
            print(
                f"preloaded {len(fleet.vehicles)} vehicles from {args.input}"
            )
        if args.durable:
            print(
                f"durable state dir {args.durable}: per-shard partitions "
                + ", ".join(
                    f"shard-{index:02d}" for index in range(args.shards)
                )
                + " recovered in parallel — journaling live traffic"
            )
    else:
        engine = FleetEngine(
            t_v=t_v,
            window=args.window,
            algorithm=args.algorithm,
            **service_kwargs,
        )
        if fleet is not None:
            for vehicle in fleet.vehicles:
                engine.service.register_vehicle(vehicle.vehicle_id)
                engine.ingest_history(vehicle.vehicle_id, vehicle.usage)
            print(
                f"preloaded {len(fleet.vehicles)} vehicles from {args.input}"
            )

        # Passive until an admin endpoint (or a drift alert sweep)
        # invokes it, so the controller is always on: /v1/lifecycle
        # works on any served fleet instead of 503ing.  Registers
        # itself on the engine.
        from .lifecycle import LifecycleController

        LifecycleController(engine)

        if args.durable:
            from .durability import LockHeldError, RecoveryManager

            manager = RecoveryManager(args.durable, engine.service)
            try:
                report = manager.recover()
            except LockHeldError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            engine.attach_durability(manager)
            print(
                f"durable state dir {args.durable}: checkpoint seq "
                f"{report.checkpoint_seq}, {report.replayed} journal "
                "record(s) replayed — journaling live traffic"
            )

    gateway = FleetGateway(engine, gateway_config)

    async def _run() -> None:
        await gateway.serve()
        host, port = gateway.address
        print(f"repro gateway listening on http://{host}:{port}")
        print(
            "endpoints: POST /v1/ingest  GET /v1/predict/{id}  "
            "POST /v1/predict:batch  GET /v1/health  GET /v1/metrics  "
            "GET /v1/trace/{request_id}  GET /v1/lifecycle"
        )
        await gateway.run_until_closed()

    # SIGINT lands differently by version: 3.11+ cancels the main task
    # (run_until_closed absorbs it and drains, asyncio.run returns),
    # 3.10 re-raises KeyboardInterrupt after the same drain.
    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        if manager is not None:
            manager.close()
            print(f"durable state checkpointed to {args.durable}")
        if args.shards > 1:
            # Workers checkpoint their own partitions on shutdown.
            engine.close()
            if args.durable:
                print(
                    f"durable shard partitions checkpointed to {args.durable}"
                )
    print("gateway drained")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Next-maintenance prediction for industrial vehicles "
            "(EDBT/ICDT 2020 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fleet_args(p, with_input=False):
        p.add_argument("--vehicles", type=int, default=24)
        p.add_argument("--t-v", dest="t_v", type=float, default=2_000_000.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stem", default="fleet")
        if with_input:
            p.add_argument(
                "--input", default=None, help="directory with a saved fleet"
            )

    generate = sub.add_parser(
        "generate", help="generate the synthetic fleet and save it as CSV"
    )
    add_fleet_args(generate)
    generate.add_argument("--output", required=True, help="output directory")
    generate.set_defaults(func=_cmd_generate)

    calibrate = sub.add_parser(
        "calibrate", help="print fleet calibration statistics"
    )
    add_fleet_args(calibrate, with_input=True)
    calibrate.set_defaults(func=_cmd_calibrate)

    evaluate = sub.add_parser(
        "evaluate", help="regenerate one table/figure of the paper"
    )
    evaluate.add_argument("experiment", choices=_EXPERIMENTS)
    evaluate.add_argument("--vehicles", type=int, default=24)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--old-vehicles",
        type=int,
        default=None,
        help="subset size for the old-vehicle experiments",
    )
    evaluate.add_argument(
        "--paper-grids",
        action="store_true",
        help="use the paper's full hyper-parameter grids (slow)",
    )
    evaluate.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        help=(
            "fan per-vehicle runs out over N worker processes "
            "(default: serial)"
        ),
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    predict = sub.add_parser(
        "predict", help="forecast one vehicle's next maintenance"
    )
    predict.add_argument("--input", required=True, help="saved fleet directory")
    predict.add_argument("--stem", default="fleet")
    predict.add_argument("--vehicle", required=True)
    predict.add_argument("--algorithm", default="RF")
    predict.add_argument("--window", type=int, default=6)
    predict.set_defaults(func=_cmd_predict)

    chaos = sub.add_parser(
        "chaos",
        help=(
            "replay a seeded fault-injection scenario and print the "
            "fleet health report"
        ),
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--vehicles", type=int, default=6)
    chaos.add_argument("--days", type=int, default=60)
    chaos.add_argument("--t-v", dest="t_v", type=float, default=200_000.0)
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the health report, forecasts and checks as JSON",
    )
    chaos.add_argument(
        "--kill-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run the SIGKILL kill-recovery drill instead: kill a "
            "journaling worker after N ops, recover, exit 1 on any "
            "state divergence"
        ),
    )
    chaos.add_argument(
        "--state-dir",
        default=None,
        help=(
            "work dir for --kill-after (left behind for inspection; "
            "default: a fresh temp dir)"
        ),
    )
    chaos.add_argument(
        "--torn-tail",
        action="store_true",
        help="with --kill-after, also tear the journal tail pre-recovery",
    )
    chaos.add_argument(
        "--drift",
        action="store_true",
        help=(
            "run the drift-injection lifecycle drill instead: inject "
            "concept drift, require gated promotions and error "
            "recovery, exit 1 on any failed check"
        ),
    )
    chaos.set_defaults(func=_cmd_chaos)

    lifecycle = sub.add_parser(
        "lifecycle",
        help=(
            "drive the model-lifecycle controller over a seeded drift "
            "scenario: status, run-once, or watch"
        ),
    )
    lifecycle.add_argument("mode", choices=("status", "run-once", "watch"))
    lifecycle.add_argument("--seed", type=int, default=0)
    lifecycle.add_argument("--vehicles", type=int, default=6)
    lifecycle.add_argument(
        "--drifted",
        type=int,
        default=2,
        help="how many vehicles shift regime after the warm phase",
    )
    lifecycle.add_argument("--warm-days", type=int, default=70)
    lifecycle.add_argument("--drift-days", type=int, default=45)
    lifecycle.add_argument("--drift-factor", type=float, default=2.0)
    lifecycle.add_argument(
        "--ticks",
        type=_positive_int,
        default=40,
        help="watch: how many further days to follow (one sweep each)",
    )
    lifecycle.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    lifecycle.set_defaults(func=_cmd_lifecycle)

    recover = sub.add_parser(
        "recover",
        help=(
            "recover a durable state dir (journal + checkpoints), or "
            "inspect it read-only with --dry-run"
        ),
    )
    recover.add_argument(
        "--state", required=True, help="durable state directory"
    )
    recover.add_argument(
        "--dry-run",
        action="store_true",
        help="read-only: scan journal/checkpoints/lock, change nothing",
    )
    recover.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    recover.add_argument(
        "--t-v",
        dest="t_v",
        type=float,
        default=200_000.0,
        help="service config when no checkpoint exists yet",
    )
    recover.add_argument("--window", type=int, default=0)
    recover.add_argument("--algorithm", default="LR")
    recover.set_defaults(func=_cmd_recover)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the asyncio HTTP gateway (micro-batching, admission "
            "control, deadlines) in front of a fleet engine"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    serve.add_argument(
        "--input", default=None, help="saved fleet directory to preload"
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "model artifact directory; enables versioned promotion, "
            "rollback and pinning via /v1/lifecycle"
        ),
    )
    serve.add_argument("--stem", default="fleet")
    serve.add_argument(
        "--t-v",
        dest="t_v",
        type=float,
        default=None,
        help="usage budget per cycle (default: preloaded fleet's, else 2e6)",
    )
    serve.add_argument("--window", type=int, default=6)
    serve.add_argument("--algorithm", default="RF")
    serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=64,
        help="max queued predict requests served by one engine call "
        "(1 disables batching)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=256,
        help="bounded request queue depth (429 beyond it)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=5000.0,
        help="default per-request deadline (504 once passed)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "shared-nothing engine shards (worker processes) with "
            "consistent-hash vehicle routing; 1 = single in-process "
            "engine"
        ),
    )
    serve.add_argument(
        "--resilient",
        action="store_true",
        help="attach IngestionGuard + CircuitBreaker + RetryPolicy",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable per-request trace recording (/v1/trace/{id})",
    )
    serve.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help=(
            "durable state directory: recover from it before serving, "
            "journal live ingest traffic, checkpoint on shutdown"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs",
        help=(
            "profile the pipeline stages over a deterministic scenario "
            "and dump the event log as JSON lines"
        ),
    )
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--vehicles", type=int, default=6)
    obs.add_argument("--days", type=int, default=60)
    obs.add_argument(
        "--t-v",
        dest="t_v",
        type=float,
        default=None,
        help="usage budget per cycle (default: preloaded fleet's, else 2e5)",
    )
    obs.add_argument("--window", type=int, default=0)
    obs.add_argument("--algorithm", default="LR")
    obs.add_argument(
        "--input", default=None, help="saved fleet directory to replay"
    )
    obs.add_argument("--stem", default="fleet")
    obs.add_argument(
        "--capacity",
        type=_positive_int,
        default=4096,
        help="event-log ring capacity",
    )
    obs.add_argument(
        "--tail",
        type=_positive_int,
        default=None,
        help="emit only the most recent N event records",
    )
    obs.add_argument(
        "--summary",
        action="store_true",
        help="print per-stage summaries + metrics snapshot instead of lines",
    )
    obs.set_defaults(func=_cmd_obs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
