"""SIGKILL kill-recovery drills: the durability layer's acid test.

Every kill drill proves the acknowledged-write guarantee with a *real*
process death (no mocked crash), through one harness,
:func:`run_killed_worker`:

1. write a deterministic op stream (``records.jsonl``) to a work dir;
2. spawn a worker subprocess (``python -m repro.durability.drill``)
   that builds the drill's stack, recovers it from the state dir,
   applies ops one by one, and appends ``"<applied> <durable_seq>"``
   to ``acks.log`` after each — the drill's stand-in for a
   client-visible acknowledgement;
3. poll the acks file until the worker has applied ``kill_after`` ops,
   then ``SIGKILL`` it — no atexit, no flush, no cleanup.

A drill supplies only its stack (service, op applier,
:class:`DurabilityConfig`) and its recovery checks.  This module's
own drill, :func:`kill_recovery_drill`, kills an ingest-only worker,
optionally tears the journal tail (the torn-write fault site), then
compares a service recovered from the state dir to a *reference*
built by applying the journaled op prefix to a blank service
in-process.  Equivalence is exact: every recovered forecast must be
bit-identical to the reference's (``Forecast.to_dict`` equality) and
the fleet health reports must match — and the journal's high-water
mark must cover at least the last *durably acked* op.  The lifecycle
drill (:func:`repro.lifecycle.drill.lifecycle_kill_drill`) kills a
worker mid-promotion through the same harness.

Everything is deterministic given the seed except the kill point
itself, which only moves *where* the prefix ends — never what the
recovered state looks like for that prefix.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .config import DurabilityConfig
from .recovery import RecoveryManager

__all__ = [
    "apply_op",
    "generate_ops",
    "kill_recovery_drill",
    "run_killed_worker",
]

#: Drill fleet configuration shared by worker and reference service.
_DRILL_T_V = 200_000.0
_DRILL_CONFIG = DurabilityConfig(fsync_every=8, checkpoint_every=32)


def _build_service(t_v: float = _DRILL_T_V):
    """One drill service: guarded, no monitor (ingest-only)."""
    from ..serving.reliability import IngestionGuard
    from ..serving.service import MaintenancePredictionService

    return MaintenancePredictionService(
        t_v=t_v,
        window=0,
        algorithm="LR",
        guard=IngestionGuard(),
    )


def apply_op(service, op: dict) -> None:
    """Apply one drill op to ``service``."""
    if op["op"] == "register":
        service.register_vehicle(op["v"])
    elif op["op"] == "ingest":
        service.ingest(op["v"], float(op["s"]), day=op.get("d"))
    elif op["op"] == "series":
        service.ingest_series(op["v"], op["u"], start_day=op.get("d0"))
    else:
        raise ValueError(f"unknown drill op {op['op']!r}")


def _worker_stack(state_dir: Path, t_v: float):
    """The ingest drill's worker stack (see :func:`run_killed_worker`)."""
    service = _build_service(t_v)
    return service, functools.partial(apply_op, service), _DRILL_CONFIG


def generate_ops(n_vehicles: int, days: int, seed: int) -> list[dict]:
    """Deterministic op stream; every op journals exactly one record.

    Registers the fleet, seeds each vehicle with a short bulk history,
    then streams per-day ingests with ~5 % dirty values (NaN, negative,
    over-ceiling) so the guard's screening state is exercised too.
    """
    rng = np.random.default_rng(seed)
    ids = [f"drill{i:02d}" for i in range(n_vehicles)]
    ops: list[dict] = [{"op": "register", "v": vid} for vid in ids]
    history = 4
    for vid in ids:
        seed_usage = rng.uniform(10_000.0, 40_000.0, size=history)
        ops.append(
            {"op": "series", "v": vid, "u": list(seed_usage), "d0": 0}
        )
    for day in range(history, history + days):
        for vid in ids:
            value = float(rng.uniform(10_000.0, 40_000.0))
            roll = float(rng.random())
            if roll < 0.02:
                value = float("nan")
            elif roll < 0.035:
                value = -value
            elif roll < 0.05:
                value = 86_400.0 + value
            ops.append({"op": "ingest", "v": vid, "s": value, "d": day})
    return ops


# -- the harness: worker subprocess, spawn, kill -------------------------


def _worker_main(argv: list[str] | None = None) -> int:
    """``python -m repro.durability.drill``: the killable worker."""
    parser = argparse.ArgumentParser(
        description="kill-drill worker (internal)"
    )
    parser.add_argument("--stack", required=True, help="module:function")
    parser.add_argument("--state", required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--acks", required=True)
    parser.add_argument("--t-v", type=float, required=True)
    parser.add_argument("--throttle-ms", type=float, default=0.0)
    args = parser.parse_args(argv)

    ops = [
        json.loads(line)
        for line in Path(args.records).read_text("utf-8").splitlines()
        if line.strip()
    ]
    module, _, name = args.stack.partition(":")
    build = getattr(importlib.import_module(module), name)
    service, apply, config = build(Path(args.state), args.t_v)
    manager = RecoveryManager(args.state, service, config=config)
    manager.recover()
    with open(args.acks, "a", encoding="utf-8") as acks:
        for index, op in enumerate(ops, start=1):
            # A rejected op journals (or not) exactly as it would in
            # production; the worker acks it and moves on.
            with contextlib.suppress(ValueError, KeyError):
                apply(op)
            manager.maybe_checkpoint()
            # Ack = op applied + its journal position durable-or-not;
            # the drill treats ops with seq <= durable_seq as acked.
            acks.write(f"{index} {manager.journal.durable_seq}\n")
            acks.flush()
            if args.throttle_ms > 0:
                time.sleep(args.throttle_ms / 1000.0)
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


def run_killed_worker(
    work_dir,
    ops: list[dict],
    stack,
    *,
    kill_after: int,
    t_v: float = _DRILL_T_V,
    throttle_ms: float,
    timeout_s: float,
) -> tuple[int, bool, int, int]:
    """Run ``ops`` in a worker and SIGKILL it after ``kill_after`` acks.

    ``stack`` is a module-level function ``(state_dir, t_v) ->
    (service, apply, config)`` that the worker imports by name: it
    builds the service the worker recovers, the one-op applier, and the
    :class:`DurabilityConfig` of its :class:`RecoveryManager`.  The
    work dir is wiped and laid out as ``state/``, ``records.jsonl`` and
    ``acks.log``; it is left behind for the drill's recovery checks
    (and for the CI ``repro recover --dry-run`` smoke).

    Returns ``(kill_after, killed, applied_acked, durable_acked)`` with
    ``kill_after`` clamped to ``[1, len(ops)]``.  Raises
    ``TimeoutError`` when the worker stalls before the kill point and
    ``RuntimeError`` when it exits non-zero before it.
    """
    work_dir = Path(work_dir)
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
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
            "repro.durability.drill",
            "--stack",
            f"{stack.__module__}:{stack.__qualname__}",
            "--state",
            str(work_dir / "state"),
            "--records",
            str(records_path),
            "--acks",
            str(acks_path),
            "--t-v",
            str(t_v),
            "--throttle-ms",
            str(throttle_ms),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout_s
    killed = False
    applied_acked = 0
    while time.monotonic() < deadline:
        applied_acked, _ = _read_acks(acks_path)
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
            f"drill worker stalled at {applied_acked}/{kill_after} acked "
            f"ops within {timeout_s}s: {stderr.decode(errors='replace')}"
        )
    stderr = worker.communicate()[1]
    if not killed and worker.returncode != 0:
        raise RuntimeError(
            f"drill worker failed before the kill point: "
            f"{stderr.decode(errors='replace')}"
        )
    return (kill_after, killed, *_read_acks(acks_path))


# -- the drill ------------------------------------------------------------


def kill_recovery_drill(
    work_dir,
    *,
    n_vehicles: int = 4,
    days: int = 40,
    seed: int = 0,
    kill_after: int | None = None,
    t_v: float = _DRILL_T_V,
    torn_tail: bool = False,
    throttle_ms: float = 2.0,
    timeout_s: float = 60.0,
) -> dict:
    """Run one kill-recovery drill; returns the equivalence report.

    ``kill_after`` is the op count after which the worker is SIGKILLed
    (default: halfway).  ``torn_tail`` additionally truncates the
    journal's final record before recovery, exercising the torn-write
    repair path on top of the process death.
    """
    ops = generate_ops(n_vehicles, days, seed)
    kill_after, killed, applied_acked, durable_acked = run_killed_worker(
        work_dir,
        ops,
        _worker_stack,
        kill_after=len(ops) // 2 if kill_after is None else kill_after,
        t_v=t_v,
        throttle_ms=throttle_ms,
        timeout_s=timeout_s,
    )
    state_dir = Path(work_dir) / "state"

    torn = 0
    if torn_tail:
        from ..serving.faults import tear_journal_tail

        torn = tear_journal_tail(state_dir / "journal")

    # Recover a fresh service from whatever the dead worker left.
    recovered = _build_service(t_v)
    manager = RecoveryManager(state_dir, recovered, config=_DRILL_CONFIG)
    report = manager.recover()
    last_seq = report.last_seq

    # Acknowledged-write guarantee: every op whose journal record was
    # durable at ack time must have survived the kill (and the torn
    # tail can only eat a not-yet-acknowledged record).
    acked_survived = last_seq >= durable_acked

    # Reference: the same op prefix applied in-process, no crash, with
    # the worker's tolerance of rejected ops.  Ops map 1:1 onto journal
    # seqs, so ops[:last_seq] is the journaled prefix the recovered
    # service must reproduce exactly.
    reference = _build_service(t_v)
    for op in ops[:last_seq]:
        with contextlib.suppress(ValueError, KeyError):
            apply_op(reference, op)

    ready = [
        vid
        for vid in reference.vehicle_ids
        if reference.n_days(vid) > reference.window
    ]
    reference_forecasts = {
        vid: reference.predict(vid).to_dict() for vid in ready
    }
    recovered_forecasts = {
        vid: recovered.predict(vid).to_dict() for vid in ready
    }
    forecasts_match = reference_forecasts == recovered_forecasts
    health_match = (
        reference.health().as_dict() == recovered.health().as_dict()
    )
    manager.close()

    return {
        "ok": bool(
            killed and acked_survived and forecasts_match and health_match
        ),
        "killed": killed,
        "ops_total": len(ops),
        "kill_after": kill_after,
        "applied_acked": applied_acked,
        "durable_acked": durable_acked,
        "last_seq": last_seq,
        "acked_survived": acked_survived,
        "replayed": report.replayed,
        "checkpoint_seq": report.checkpoint_seq,
        "checkpoints_discarded": report.checkpoints_discarded,
        "lock_stolen": report.lock_stolen,
        "torn_tail": bool(torn_tail),
        "torn_bytes": torn,
        "torn_records_dropped": report.torn_records_dropped,
        "forecasts_match": forecasts_match,
        "health_match": health_match,
        "vehicles_compared": len(ready),
    }


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(_worker_main())
