"""Gateway load benchmark: micro-batching throughput vs tail latency.

Closed-loop load generator against a real listening
:class:`~repro.serving.gateway.FleetGateway`: ``--clients`` concurrent
HTTP clients (keep-alive connections) each fire ``GET
/v1/predict/{vehicle_id}`` back-to-back for ``--seconds``, cycling over
the fleet.  The run is made twice: with the default work-conserving
dispatcher (each batch takes every request queued behind the previous
one) and with the ``max_batch_size=1`` reference (every request
dispatched alone).

Three claims are enforced, not just reported:

* **zero 5xx** responses under full load (plus zero 429/504 at this
  sizing — the queue and deadlines are provisioned for the client
  count);
* every forecast body is **bit-identical** to a sequential
  ``MaintenancePredictionService.predict`` on the same history
  (exact ``Forecast`` equality after the JSON round-trip);
* unless ``--no-enforce``, micro-batching reaches **strictly higher
  throughput** than the ``max_batch_size=1`` reference, and
  ``/v1/metrics`` is non-empty at the end of every run;
* request tracing at the gateway's default configuration (anonymous
  traffic head-sampled 1-in-``trace_sample_every``; client-identified
  requests always traced) costs **< 5% throughput**: one long-lived
  gateway serves alternating tracing-on / tracing-off measurement
  windows (same engine, same connections-per-window, same process),
  and the regression is judged on the *best* window of each mode — on
  shared hardware individual windows dip 10–20% under co-tenancy and
  frequency scaling, noise that dwarfs the overhead itself, while the
  best of K windows converges on the machine's true capability in
  each mode.  Per-pair ratios are still printed for diagnostics.
  Forecasts stay bit-identical in both modes.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]

``--smoke`` is the ~40 s CI sizing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import numpy as np

from repro.serving import FleetEngine, MaintenancePredictionService
from repro.serving.gateway import FleetGateway, GatewayConfig
from repro.serving.service import Forecast

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

T_V = 200_000.0
WINDOW = 0
ALGORITHM = "LR"
N_DAYS = 40


def synthetic_fleet(n_vehicles: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    return {
        f"v{i:03d}": rng.uniform(12_000, 26_000, size=N_DAYS)
        for i in range(n_vehicles)
    }


def build_engine(usage: dict[str, np.ndarray]) -> FleetEngine:
    engine = FleetEngine(t_v=T_V, window=WINDOW, algorithm=ALGORITHM)
    engine.register_fleet(usage)
    for vehicle_id, series in usage.items():
        engine.ingest_history(vehicle_id, series)
    return engine


def gateway_config(
    clients: int, max_batch_size: int | None = None
) -> GatewayConfig:
    """Queue and deadlines provisioned for ``clients``: no 429/504."""
    return GatewayConfig(
        port=0,
        max_batch_size=max_batch_size or max(64, clients),
        max_queue=max(256, 4 * clients),
        default_deadline_s=30.0,
    )


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
    clients: int,
    seconds: float,
    max_batch_size: int | None = None,
) -> tuple[RunStats, dict, float]:
    gateway = FleetGateway(
        build_engine(usage),
        gateway_config(clients, max_batch_size),
    )
    host, port = await gateway.serve()
    loop = asyncio.get_running_loop()
    vehicle_ids = sorted(usage)
    stats = RunStats()
    started = loop.time()
    stop_at = started + seconds
    await asyncio.gather(
        *(
            _client(host, port, vehicle_ids, i, stop_at, stats, reference)
            for i in range(clients)
        )
    )
    elapsed = loop.time() - started
    _status, metrics_body = await _http_get(
        *(await asyncio.open_connection(host, port)), "/v1/metrics"
    )
    metrics = json.loads(metrics_body)
    await gateway.shutdown()
    return stats, metrics, elapsed


async def run_overhead(
    usage: dict[str, np.ndarray],
    reference: dict[str, Forecast],
    *,
    clients: int,
    window_seconds: float,
    pairs: int,
) -> tuple[list[float], list[float], list[str]]:
    """Tracing throughput overhead via paired interleaved windows.

    One engine, one gateway, one process: tracing is toggled on the
    live tracer between back-to-back measurement windows, so each
    on/off pair shares engine state, warmed caches and (approximately)
    the machine's thermal/frequency state of the moment.  The gateway
    runs its default trace sampling — the load clients are anonymous,
    so tracing-on windows record 1-in-``trace_sample_every`` requests,
    which is exactly the configuration the <5% claim is about (full
    per-request tracing is a debugging posture, forced per request by
    supplying an id; see EXPERIMENTS.md for its measured cost).
    Returns the per-window rates plus any correctness failures.
    """
    gateway = FleetGateway(build_engine(usage), gateway_config(clients))
    host, port = await gateway.serve()
    loop = asyncio.get_running_loop()
    vehicle_ids = sorted(usage)
    failures: list[str] = []
    rates: dict[bool, list[float]] = {True: [], False: []}

    async def window(traced: bool, record: bool) -> None:
        gateway.obs.tracer.enabled = traced
        stats = RunStats()
        started = loop.time()
        stop_at = started + window_seconds
        await asyncio.gather(
            *(
                _client(
                    host, port, vehicle_ids, i, stop_at, stats, reference
                )
                for i in range(clients)
            )
        )
        elapsed = loop.time() - started
        if not record:
            return
        rates[traced].append(stats.total / elapsed)
        label = "on" if traced else "off"
        if stats.errors_5xx():
            failures.append(
                f"tracing {label} window served {stats.errors_5xx()} 5xx"
            )
        if stats.mismatches:
            failures.append(
                f"tracing {label} window served {stats.mismatches} "
                "forecasts that diverged from the serial service"
            )

    await window(True, record=False)  # warm-up: training, caches, turbo
    for _ in range(pairs):
        await window(True, record=True)
        await window(False, record=True)
    await gateway.shutdown()
    return rates[True], rates[False], failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=24)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument(
        "--seconds", type=float, default=6.0, help="closed-loop duration per run"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI sizing: shorter runs and fewer overhead windows",
    )
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="report only; skip the throughput/5xx/identity assertions",
    )
    args = parser.parse_args(argv)

    seconds = 4.0 if args.smoke else args.seconds

    usage = synthetic_fleet(args.vehicles)
    reference = serial_reference(usage)

    lines = [
        "Gateway load benchmark",
        "",
        f"{args.vehicles} vehicles x {N_DAYS} days, algorithm {ALGORITHM}, "
        f"window {WINDOW}; {args.clients} closed-loop clients, "
        f"{seconds:.1f} s per run",
        "",
    ]
    throughput: dict[str, float] = {}
    failures: list[str] = []
    for label, max_batch_size in (("batched", None), ("unbatched", 1)):
        stats, metrics, elapsed = asyncio.run(
            run_load(
                usage,
                reference,
                clients=args.clients,
                seconds=seconds,
                max_batch_size=max_batch_size,
            )
        )
        rate = stats.total / elapsed
        throughput[label] = rate
        gateway_metrics = metrics["gateway"]
        batch_summary = gateway_metrics["batch"]["sizes"]
        cap = max_batch_size or max(64, args.clients)
        lines += [
            f"{label} (max_batch_size {cap}):",
            f"  requests   : {stats.total} in {elapsed:.2f} s "
            f"({rate:8.0f} req/s)",
            f"  status     : "
            + ", ".join(
                f"{code}={n}" for code, n in sorted(stats.statuses.items())
            ),
            f"  latency    : p50 {stats.percentile(0.50) * 1e3:7.2f} ms   "
            f"p95 {stats.percentile(0.95) * 1e3:7.2f} ms   "
            f"p99 {stats.percentile(0.99) * 1e3:7.2f} ms",
            f"  batch size : mean {batch_summary.get('mean', 0):.1f}, "
            f"max {batch_summary.get('max', 0):.0f} "
            f"({batch_summary.get('count', 0)} predict_many calls)",
            f"  queue      : high-water {gateway_metrics['queue_high_water']}, "
            f"429s {gateway_metrics['queue_rejections']}, "
            f"504s {gateway_metrics['deadline_expirations']}",
            f"  tracing    : {metrics['tracing']['traces_started']} traces, "
            f"{metrics['tracing']['spans_recorded']} spans",
        ]
        if stats.errors_5xx():
            failures.append(
                f"{label} run served {stats.errors_5xx()} 5xx responses"
            )
        if stats.mismatches:
            failures.append(
                f"{label} run served {stats.mismatches} forecasts "
                "that diverged from the serial service"
            )
        if not gateway_metrics.get("requests"):
            failures.append(f"{label} run: /v1/metrics came back empty")
        lines.append("")

    batched_rate, reference_rate = throughput["batched"], throughput["unbatched"]
    lines += [
        f"unbatched       : {reference_rate:8.0f} req/s",
        f"batched         : {batched_rate:8.0f} req/s "
        f"({batched_rate / reference_rate:.2f}x)",
    ]
    if batched_rate <= reference_rate:
        failures.append(
            "micro-batching did not beat the max_batch_size=1 reference "
            f"({batched_rate:.0f} vs {reference_rate:.0f} req/s)"
        )

    # -- tracing overhead: paired interleaved windows, one gateway --------
    pairs = 6 if args.smoke else 8
    window_seconds = 2.5 if args.smoke else 4.0
    on_rates, off_rates, overhead_failures = asyncio.run(
        run_overhead(
            usage,
            reference,
            clients=args.clients,
            window_seconds=window_seconds,
            pairs=pairs,
        )
    )
    failures += overhead_failures
    ratios = sorted(on / off for on, off in zip(on_rates, off_rates))
    # Best-of-K per mode: single windows dip 10-20% under co-tenancy,
    # so the max is the only statistic stable enough to gate on.
    regression = 1.0 - max(on_rates) / max(off_rates)
    lines += [
        "",
        f"tracing overhead (batched, {pairs} paired "
        f"{window_seconds:.1f} s windows, one shared gateway, "
        f"1-in-{GatewayConfig.trace_sample_every} anonymous sampling):",
        f"  tracing off : {max(off_rates):8.0f} req/s (best window)",
        f"  tracing on  : {max(on_rates):8.0f} req/s (best window)",
        f"  per-pair on/off ratios: "
        + ", ".join(f"{r:.3f}" for r in ratios),
        f"  best-window regression: {regression * 100:+.1f}%",
    ]
    if regression >= 0.05:
        failures.append(
            f"tracing costs {regression * 100:.1f}% throughput "
            "(the budget is < 5%)"
        )

    text = "\n".join(lines)
    print(text)
    if not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "gateway.txt").write_text(text + "\n")
        print(f"wrote {RESULTS_DIR / 'gateway.txt'}")
    if failures and not args.no_enforce:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
