"""Shard scaling benchmark: shared-nothing pool vs the single engine.

Closed-loop load generator against a real listening
:class:`~repro.serving.gateway.FleetGateway`, run once per shard count:
``--clients`` concurrent HTTP keep-alive clients fire ``GET
/v1/predict/{vehicle_id}`` back-to-back for ``--seconds``, cycling over
the fleet.  Shard count 1 is the plain single-process
:class:`~repro.serving.engine.FleetEngine` path (the pre-sharding
deployment); higher counts run a
:class:`~repro.serving.sharding.ShardedFleetEngine` — one worker
process per shard, consistent-hash vehicle routing, one gateway lane
per shard.

The workload is deliberately model-heavy (RF, lag window 6, ~90-day
histories) so per-request cost is dominated by per-vehicle model
inference — the GIL-bound work that thread parallelism cannot scale
and process shards can.  The fleet is sized all-OLD (cumulative usage
beyond ``t_v``), where every vehicle serves its *own* model and the
sharded forecasts are bit-identical to the serial service by
construction; cold-start (donor-model) vehicles see shard-local donor
pools instead and are out of scope here.

Three claims are enforced, not just reported:

* every forecast body — from every shard count — is **bit-identical**
  to a sequential ``MaintenancePredictionService.predict`` on the same
  history (exact ``Forecast`` equality after the JSON round-trip);
* **zero 5xx** responses under full load at every shard count;
* unless ``--no-enforce``, the 4-shard pool reaches **>= 1.5x** the
  single-engine throughput — enforced only when the host exposes at
  least 2 usable CPUs (``os.sched_getaffinity``): process shards
  cannot outrun a single engine that already owns the machine's only
  core, so on a 1-CPU host the ratio is measured and reported (the
  bit-identity and 5xx gates still fail the run) but the scaling
  floor is marked "not enforceable".

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_shard.py [--smoke]

``--smoke`` is the ~15 s CI sizing (smaller fleet, shorter windows,
and a relaxed 1.2x scaling floor — CI machines have few spare cores).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.serving import FleetEngine, MaintenancePredictionService
from repro.serving.gateway import FleetGateway, GatewayConfig
from repro.serving.service import Forecast
from repro.serving.sharding import ShardedFleetEngine

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

T_V = 600_000.0
WINDOW = 6
ALGORITHM = "RF"
N_DAYS = 90


def synthetic_fleet(n_vehicles: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    # ~19k s/day x 90 days ~ 1.7M cumulative >> t_v: every vehicle OLD.
    return {
        f"v{i:03d}": rng.uniform(16_000, 22_000, size=N_DAYS)
        for i in range(n_vehicles)
    }


def serial_reference(usage: dict[str, np.ndarray]) -> dict[str, Forecast]:
    service = MaintenancePredictionService(
        t_v=T_V, window=WINDOW, algorithm=ALGORITHM
    )
    for vehicle_id in sorted(usage):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage[vehicle_id])
    return {
        vehicle_id: service.predict(vehicle_id) for vehicle_id in sorted(usage)
    }


def build_engine(usage: dict[str, np.ndarray], n_shards: int):
    """Shard count 1 = the plain pre-sharding engine; else the pool."""
    if n_shards == 1:
        engine = FleetEngine(t_v=T_V, window=WINDOW, algorithm=ALGORITHM)
        engine.register_fleet(usage)
        for vehicle_id, series in usage.items():
            engine.ingest_history(vehicle_id, series)
        return engine
    pool = ShardedFleetEngine(
        n_shards, t_v=T_V, window=WINDOW, algorithm=ALGORITHM
    )
    pool.register_fleet(usage)
    for vehicle_id, series in usage.items():
        pool.ingest_history(vehicle_id, series)
    return pool


class RunStats:
    def __init__(self):
        self.statuses: dict[int, int] = {}
        self.latencies: list[float] = []
        self.mismatches = 0

    def record(self, status: int, seconds: float) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latencies.append(seconds)

    @property
    def total(self) -> int:
        return sum(self.statuses.values())

    def errors_5xx(self) -> int:
        return sum(n for code, n in self.statuses.items() if code >= 500)

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return float("nan")
        return float(np.quantile(np.asarray(self.latencies), q))


async def _http_get(reader, writer, path: str):
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _client(
    host: str,
    port: int,
    vehicle_ids: list[str],
    offset: int,
    stop_at: float,
    stats: RunStats,
    reference: dict[str, Forecast],
) -> None:
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(host, port)
    index = offset
    try:
        while loop.time() < stop_at:
            vehicle_id = vehicle_ids[index % len(vehicle_ids)]
            index += 1
            started = loop.time()
            status, body = await _http_get(
                reader, writer, f"/v1/predict/{vehicle_id}"
            )
            stats.record(status, loop.time() - started)
            if status == 200:
                served = Forecast.from_dict(json.loads(body))
                if served != reference[vehicle_id]:
                    stats.mismatches += 1
    finally:
        writer.close()


async def run_load(
    usage: dict[str, np.ndarray],
    reference: dict[str, Forecast],
    *,
    n_shards: int,
    clients: int,
    seconds: float,
    warmup_s: float,
) -> tuple[RunStats, dict, float]:
    engine = build_engine(usage, n_shards)
    try:
        # A warm-up read trains every per-vehicle model up front (in
        # parallel across shards) so the measured window serves
        # inference, not training.
        engine.predict_all()
        gateway = FleetGateway(
            engine,
            GatewayConfig(
                port=0,
                max_batch_size=max(64, clients),
                max_queue=max(256, 4 * clients),
                default_deadline_s=30.0,
                tracing=False,
            ),
        )
        host, port = await gateway.serve()
        loop = asyncio.get_running_loop()
        vehicle_ids = sorted(usage)

        async def window(duration: float) -> tuple[RunStats, float]:
            stats = RunStats()
            started = loop.time()
            stop_at = started + duration
            await asyncio.gather(
                *(
                    _client(
                        host, port, vehicle_ids, i, stop_at, stats, reference
                    )
                    for i in range(clients)
                )
            )
            return stats, loop.time() - started

        await window(warmup_s)  # caches, lanes, turbo
        stats, elapsed = await window(seconds)
        _status, metrics_body = await _http_get(
            *(await asyncio.open_connection(host, port)), "/v1/metrics"
        )
        metrics = json.loads(metrics_body)
        await gateway.shutdown()
        return stats, metrics, elapsed
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=32)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument(
        "--seconds",
        type=float,
        default=6.0,
        help="measured closed-loop duration per shard count",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="shard counts to sweep (1 = plain single-engine reference)",
    )
    parser.add_argument(
        "--scaling-floor",
        type=float,
        default=1.5,
        help="required 4-shard/1-shard throughput ratio",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI sizing: ~15 s total, 1 vs 4 shards, relaxed floor",
    )
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="report only; skip the scaling/5xx/identity assertions",
    )
    args = parser.parse_args(argv)

    shard_counts = args.shards
    seconds = args.seconds
    warmup_s = 1.5
    vehicles = args.vehicles
    scaling_floor = args.scaling_floor
    if args.smoke:
        shard_counts = [1, 4]
        seconds = 3.0
        warmup_s = 1.0
        vehicles = 16
        # CI runners expose few spare cores; scaling is still required,
        # just with headroom for a 2-core box.
        scaling_floor = min(scaling_floor, 1.2)
    if 1 not in shard_counts:
        shard_counts = [1, *shard_counts]

    usage = synthetic_fleet(vehicles)
    reference = serial_reference(usage)
    cpus = usable_cpus()

    lines = [
        "Shard scaling benchmark",
        "",
        f"{vehicles} vehicles x {N_DAYS} days, algorithm {ALGORITHM}, "
        f"window {WINDOW} (all vehicles OLD: per-vehicle models); "
        f"{args.clients} closed-loop clients, {seconds:.1f} s measured "
        f"per shard count after warm-up; host exposes {cpus} usable "
        "CPU(s)",
        "",
    ]
    throughput: dict[int, float] = {}
    failures: list[str] = []
    for n_shards in shard_counts:
        stats, metrics, elapsed = asyncio.run(
            run_load(
                usage,
                reference,
                n_shards=n_shards,
                clients=args.clients,
                seconds=seconds,
                warmup_s=warmup_s,
            )
        )
        rate = stats.total / elapsed
        throughput[n_shards] = rate
        gateway_metrics = metrics["gateway"]
        label = (
            "single engine (no sharding)"
            if n_shards == 1
            else f"{n_shards} shard worker processes"
        )
        lines += [
            f"shards {n_shards} — {label}:",
            f"  requests   : {stats.total} in {elapsed:.2f} s "
            f"({rate:8.0f} req/s)",
            f"  status     : "
            + ", ".join(
                f"{code}={n}" for code, n in sorted(stats.statuses.items())
            ),
            f"  latency    : p50 {stats.percentile(0.50) * 1e3:7.2f} ms   "
            f"p95 {stats.percentile(0.95) * 1e3:7.2f} ms   "
            f"p99 {stats.percentile(0.99) * 1e3:7.2f} ms",
            f"  queue      : high-water {gateway_metrics['queue_high_water']}, "
            f"429s {gateway_metrics['queue_rejections']}, "
            f"504s {gateway_metrics['deadline_expirations']}",
        ]
        per_shard = gateway_metrics.get("shards")
        if per_shard:
            lines.append(
                "  lane batches: "
                + ", ".join(
                    f"shard {shard}="
                    f"{entry.get('batch_sizes', {}).get('count', 0)}"
                    for shard, entry in sorted(
                        per_shard.items(), key=lambda kv: int(kv[0])
                    )
                )
            )
        if stats.errors_5xx():
            failures.append(
                f"{n_shards} shard(s) served {stats.errors_5xx()} 5xx "
                "responses"
            )
        if stats.mismatches:
            failures.append(
                f"{n_shards} shard(s) served {stats.mismatches} forecasts "
                "that diverged from the serial service"
            )
        lines.append("")

    reference_rate = throughput[1]
    best_shards, best_rate = max(
        ((n, r) for n, r in throughput.items() if n > 1),
        key=lambda kv: kv[1],
    )
    speedup = best_rate / reference_rate
    if cpus >= 2:
        floor_note = "met" if speedup >= scaling_floor else "MISSED"
    else:
        floor_note = (
            "not enforceable: 1 usable CPU — process shards cannot outrun "
            "a single engine that already owns the only core; identity and "
            "5xx gates still apply"
        )
    lines += [
        f"single engine   : {reference_rate:8.0f} req/s",
        f"best sharded    : {best_rate:8.0f} req/s "
        f"({best_shards} shards, {speedup:.2f}x)",
        f"scaling floor   : {scaling_floor:.2f}x ({floor_note})",
    ]
    if cpus >= 2 and speedup < scaling_floor:
        failures.append(
            f"{best_shards}-shard throughput is {speedup:.2f}x the single "
            f"engine (the floor is {scaling_floor:.2f}x)"
        )

    text = "\n".join(lines)
    print(text)
    if not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "shard.txt").write_text(text + "\n")
        print(f"wrote {RESULTS_DIR / 'shard.txt'}")
    if failures and not args.no_enforce:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
