"""Fleet-operator latency budget: the one command.

    python3 benchmarks/budget/run.py [--workload NAME ...] [--seed N]
        [--seconds 12] [--trace [0|1]] [--smoke] [--out FILE]

For each workload it generates a fleet from ``--seed``, starts the real
gateway (``server.py`` -> ``repro serve``) in a separate process, times
its set-up, drives open-loop traffic for ``spec.DEFAULT_SECONDS`` over
two keep-alive connections, checks every forecast against a serial
``MaintenancePredictionService``, and prints every metric by name with
its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a run whose
layers are wrapped and timed.  With more than one workload, that line
covers all of them and names each metric ``WORKLOAD.METRIC``.  The exit
code is non-zero when a forecast is wrong, a request fails, or the
program cannot be found.

The run length is part of the inputs (it sets how many fleet days are
streamed), so it is fixed: ``--seconds`` is accepted only at
``BENCHMARK.json``'s ``run_seconds``, and ``--smoke`` uses
``spec.SMOKE_SECONDS``.

Run from the repository root; scratch files live under
``.budget_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spec
import stats

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Wall-clock limit of one workload's run, set-ups and checks included.
RUN_TIMEOUT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Open-loop latency budget of the fleet gateway."
    )
    parser.add_argument(
        "--workload", nargs="+", choices=list(spec.WORKLOADS), default=None,
        help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=spec.DEFAULT_SECONDS,
        help=f"measured seconds per workload; must be {spec.DEFAULT_SECONDS}, "
        "the length the inputs are sized for",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: wrap and time each layer; print per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short runs of every workload, one set-up each, checks on",
    )
    parser.add_argument(
        "--out", default=None,
        help="append this invocation's results to a JSON file",
    )
    args = parser.parse_args(argv)
    if args.seconds != spec.DEFAULT_SECONDS:
        parser.error(
            f"--seconds must be {spec.DEFAULT_SECONDS}: the inputs are sized "
            "for that run length"
        )
    return args


# -- server process ---------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """One ``repro serve`` process and what its set-up cost."""

    def __init__(self, proc):
        self.proc = proc
        self.port = 0
        self.setup_s = 0.0
        self.first_batch: list = []
        self.interrupted = False

    def interrupt(self) -> None:
        """Ask for the CLI's graceful drain (SIGINT), once."""
        if not self.interrupted and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            self.interrupted = True

    async def stop(self, *, graceful: bool, timeout: float = 60.0) -> None:
        if graceful:
            self.interrupt()
        elif self.proc.returncode is None:
            self.proc.kill()
        try:
            await asyncio.wait_for(self.proc.wait(), timeout)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


async def spawn_server(inputs, work: Path, index: int, trace_out: Path | None) -> Server:
    """Start a fresh server and time it until its first whole-fleet
    forecast is answered 200 with no per-vehicle error."""
    from inputs import ALGORITHM, WINDOW
    import loadgen

    workload = inputs.workload
    args = [
        "--input", str(inputs.fleet_dir), "--window", str(WINDOW),
        "--algorithm", ALGORITHM, "--port", "0",
    ]
    if workload.durable:
        args += ["--durable", str(work / f"state-{index}")]
    if workload.store:
        args += ["--store", str(work / f"store-{index}")]
    if trace_out is not None:
        args = ["--trace-out", str(trace_out), *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    log = open(work / f"server-{index}.log", "wb")
    started = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(HERE / "server.py"), *args,
        stdout=asyncio.subprocess.PIPE, stderr=log, env=env,
    )
    log.close()
    server = Server(proc)
    try:
        server.port = await _listening_port(proc)
        ops = await loadgen.predict_fleet(server.port, inputs.vehicle_ids, "setup", RUN_TIMEOUT_S)
        server.setup_s = time.perf_counter() - started
        server.first_batch = ops
        for op in ops:
            if not op.ok or _forecasts_of(op) is None:
                raise RuntimeError(
                    f"set-up predict:batch failed: status {op.status} "
                    f"{op.error or op.body[:300]!r}"
                )
    except BaseException:
        await server.stop(graceful=False)
        raise
    return server


async def _listening_port(proc) -> int:
    marker = b"listening on http://"
    while True:
        line = await proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before listening")
        if marker in line:
            return int(line.rsplit(b":", 1)[1])


# -- traffic ----------------------------------------------------------------


def build_phases(inputs, seed: int, seconds: float):
    """Per phase, the ops of its schedule, due times relative to the
    phase start."""
    import numpy as np
    import loadgen

    workload = inputs.workload
    rng = np.random.default_rng([seed, list(spec.WORKLOADS).index(workload.name), 7])
    ids = inputs.vehicle_ids
    phases = []
    for index, phase in enumerate(workload.phases):
        duration = seconds * phase.share
        ops = []
        read_conn = 1 if workload.has_ingest else -1
        for due in stats.poisson_arrivals(rng, phase.rate, duration):
            if workload.read == "depot":
                depot = inputs.depots[int(rng.integers(len(inputs.depots)))]
                body = json.dumps({"vehicle_ids": depot}).encode()
                payload = loadgen.post("/v1/predict:batch", body)
                vehicles = tuple(depot)
            else:
                vid = ids[int(rng.integers(len(ids)))]
                payload = loadgen.get(f"/v1/predict/{vid}")
                vehicles = (vid,)
            ops.append(loadgen.Op("read", index, due, payload, read_conn, vehicles))
        if workload.has_ingest and phase.kind == "steady":
            ops += _ingest_ops(inputs, index)
        ops.sort(key=lambda op: (op.due, op.kind != "ingest"))
        phases.append(ops)
    return phases


def _ingest_ops(inputs, phase: int):
    import loadgen

    workload = inputs.workload
    ids = inputs.vehicle_ids
    per_post = workload.readings_per_post or len(ids)
    posts_per_day = len(ids) // per_post
    closing = set(inputs.closures)
    ops = []
    interval = 1.0 / workload.ingest_rate
    for k in range(inputs.stream_days * posts_per_day):
        chunk = ids[(k % posts_per_day) * per_post : (k % posts_per_day + 1) * per_post]
        days = {vid: inputs.preload[vid] + k // posts_per_day for vid in chunk}
        readings = [
            {"vehicle_id": vid, "seconds": float(inputs.histories[vid][day]), "day": day}
            for vid, day in days.items()
        ]
        body = json.dumps({"readings": readings}).encode()
        due = k * interval
        ops.append(
            loadgen.Op("ingest", phase, due, loadgen.post("/v1/ingest", body), 0, tuple(chunk), days)
        )
        if workload.completions_per_s:
            # One probe per closed cycle at the next probe tick; it
            # queues behind the ingest on the same connection, so it is
            # served from a state that already holds the closing day.
            tick = spec.PROBE_INTERVAL_S
            probe_due = (int(due / tick) + 1) * tick
            for vid in sorted(v for v in chunk if (v, days[v]) in closing):
                ops.append(
                    loadgen.Op("probe", phase, probe_due, loadgen.get(f"/v1/predict/{vid}"), 0, (vid,))
                )
    return ops


async def drive(inputs, phases, server):
    """Run the phases, one after the other, each until answered.

    Returns ``(ops, window, ran)``: ``ran`` holds, per phase run, its
    kind, rate, whether it met the SLO, and the server CPU seconds it
    took.
    """
    import loadgen

    workload = inputs.workload
    pid = server.proc.pid
    conns = await loadgen.open_connections(server.port, spec.CONNECTIONS)
    done_ops = []
    ran = []
    ladder_open = True
    t0 = time.perf_counter()
    try:
        for index, (phase, ops) in enumerate(zip(workload.phases, phases)):
            if phase.kind == "ladder" and not ladder_open:
                continue
            cpu0 = _proc_cpu_seconds(pid)
            start = time.perf_counter()
            for op in ops:
                op.due += start
            await loadgen.send_on_schedule(ops, conns)
            if not await loadgen.wait_answered(conns, 60.0):
                raise RuntimeError(f"{workload.name}: phase {index} not answered in 60 s")
            cpu_s = _proc_cpu_seconds(pid) - cpu0
            done_ops += ops
            reads = [op for op in ops if op.kind == "read"]
            latencies = stats.due_latencies(
                [op.due for op in reads], [op.done if op.ok else None for op in reads]
            )
            passed = stats.rung_passes(latencies, workload.slo_percentile, workload.slo_limit_ms / 1e3)
            ran.append({
                "kind": phase.kind,
                "rate": phase.rate,
                "passed": passed,
                "cpu_s": cpu_s,
                "served": sum(1 for op in ops if op.ok),
            })
            ladder_open = ladder_open and passed
        t1 = time.perf_counter()
    finally:
        for conn in conns:
            conn.close()
    return done_ops, (t0, t1), ran


# -- correctness ------------------------------------------------------------


def _forecasts_of(op):
    """Served forecast dicts of a 200 response, or ``None`` if malformed."""
    try:
        payload = json.loads(op.body)
    except ValueError:
        return None
    if "forecasts" in payload:
        if payload.get("errors"):
            return None
        return payload["forecasts"]
    return [payload]


def verify(inputs, expected, ops, checks):
    """The ids of the ops whose forecasts are wrong.

    ``expected`` is :func:`inputs.expected_forecasts`; ``ops`` are the
    measured requests, ``checks`` the set-up and final whole-fleet
    batches.
    """
    from repro.serving.service import Forecast

    workload = inputs.workload
    bad = set()

    def compare(op, expected, *, ignore_version=False):
        forecasts = _forecasts_of(op)
        if forecasts is None or len(forecasts) != len(expected):
            bad.add(id(op))
            return
        for served, want in zip(forecasts, expected):
            try:
                got = Forecast.from_dict(served)
            except (KeyError, TypeError, ValueError):
                bad.add(id(op))
                return
            if ignore_version:
                got = _with_version(got, want.model_version)
            if got != want:
                bad.add(id(op))
                return

    served_ok = [op for op in ops if op.ok and op.kind in ("read", "probe")]
    for op in checks:
        if op.ok:
            reference = expected["final" if op.kind == "final" else "preload"]
            compare(op, [reference[vid] for vid in op.vehicles], ignore_version=workload.store)
    if not workload.has_ingest:
        for op in served_ok:
            compare(op, [expected["preload"][vid] for vid in op.vehicles])
    elif workload.store:
        bad |= _check_rollover_reads(inputs, served_ok, [c for c in checks if c.ok and c.kind == "setup"])
    else:
        bad |= _check_baseline_reads(inputs, served_ok)
    return bad


def _with_version(forecast, version):
    from dataclasses import replace

    return replace(forecast, model_version=version)


def _served(op):
    forecasts = _forecasts_of(op)
    return None if forecasts is None or len(forecasts) != 1 else forecasts[0]


def _check_baseline_reads(inputs, reads):
    """Each read equals a one-vehicle serial service fed that vehicle's
    history up to the forecast's day — exact while no vehicle of the
    fleet is OLD, so every rung is the baseline (a precondition)."""
    from repro.serving.service import Forecast, MaintenancePredictionService
    from inputs import ALGORITHM, WINDOW

    bad = set()
    by_vehicle = {}
    for op in reads:
        served = _served(op)
        if served is None or served.get("vehicle_id") != op.vehicles[0]:
            bad.add(id(op))
            continue
        by_vehicle.setdefault(op.vehicles[0], []).append((served["as_of_day"], served, op))
    for vid, items in by_vehicle.items():
        service = MaintenancePredictionService(t_v=inputs.t_v, window=WINDOW, algorithm=ALGORITHM)
        service.register_vehicle(vid)
        history = inputs.histories[vid]
        fed = 0
        for day, served, op in sorted(items, key=lambda item: item[0]):
            if not inputs.preload[vid] - 1 <= day < len(history):
                bad.add(id(op))
                continue
            service.ingest_series(vid, history[fed : day + 1])
            fed = max(fed, day + 1)
            if Forecast.from_dict(served) != service.predict(vid):
                bad.add(id(op))
    return bad


def _check_rollover_reads(inputs, reads, initial):
    """Reads of retrained per-vehicle models: every field a read can be
    checked on without retraining — category, strategy, the day and
    its usage left — plus one model version per completed-cycle count,
    rising with it, and one forecast per day."""
    from repro.core.series import VehicleSeries

    bad = set()
    versions = {}
    per_day = {}
    series_cache = {}
    cycles_cache = {}

    def cycles(vid, day):
        key = (vid, day)
        if key not in cycles_cache:
            series = VehicleSeries(vehicle_id=vid, usage=inputs.histories[vid][: day + 1], t_v=inputs.t_v)
            series_cache[key] = series
            cycles_cache[key] = len(series.completed_cycles)
        return cycles_cache[key]

    served_rows = [(f, None) for op in initial for f in (_forecasts_of(op) or [])]
    for op in reads:
        served = _served(op)
        if served is None or served.get("vehicle_id") != op.vehicles[0]:
            bad.add(id(op))
            continue
        served_rows.append((served, op))
    for served, op in served_rows:
        vid, day = served["vehicle_id"], served["as_of_day"]
        ok = (
            inputs.preload[vid] - 1 <= day < len(inputs.histories[vid])
            and served["category"] == "OLD"
            and served["strategy"] == "per-vehicle"
            and served["donor_id"] is None
            and not served["degraded"]
            and isinstance(served["model_version"], int)
        )
        if ok:
            n = cycles(vid, day)
            ok = served["usage_left"] == float(series_cache[(vid, day)].usage_left[day])
            ok = ok and versions.setdefault((vid, n), served["model_version"]) == served["model_version"]
            ok = ok and per_day.setdefault((vid, day), served) == served
        if not ok and op is not None:
            bad.add(id(op))
    by_vehicle = {}
    for (vid, n), version in versions.items():
        by_vehicle.setdefault(vid, []).append((n, version))
    for vid, pairs in by_vehicle.items():
        ordered = [v for _, v in sorted(pairs)]
        if ordered != sorted(set(ordered)):
            bad |= {id(op) for op in reads if op.vehicles[0] == vid}
    return bad


# -- metrics ----------------------------------------------------------------


def end_to_end(inputs, ops, initial, ran, setups, hwm_mb, failed, attempted):
    """Every end-to-end metric the workload defines: ``{name: (value, note)}``.

    ``initial`` is the measured server's set-up whole-fleet batch."""
    workload = inputs.workload
    steady = next(i for i, p in enumerate(workload.phases) if p.kind == "steady")

    def latencies(kind, phase=None):
        chosen = [op for op in ops if op.kind == kind and (phase is None or op.phase == phase)]
        return stats.due_latencies(
            [op.due for op in chosen], [op.done if op.ok else None for op in chosen]
        )

    reads = latencies("read", steady)
    acks = latencies("ingest")
    p_tail, read_tail = stats.tail(reads)
    served = sum(phase["served"] for phase in ran)
    cpu_s = sum(phase["cpu_s"] for phase in ran)
    out = {
        "setup_s": (statistics.median(setups), "median of " + ", ".join(f"{s:.3f}" for s in setups)),
        "read_p50_ms": (stats.percentile(reads, 50) * 1e3, f"{len(reads)} steady reads at {workload.phases[steady].rate:g}/s"),
        "read_tail_ms": (read_tail * 1e3, f"p{p_tail:g} of {len(reads)}"),
        "cpu_ms_per_op": (cpu_s * 1e3 / served, f"{cpu_s:.2f} s CPU over {served} ops"),
        "rss_peak_mb": (hwm_mb, "VmHWM"),
    }
    wanted = {m.name for m, names in spec.REPORTED if workload.name in names}
    if "peak_read_p50_ms" in wanted:
        peak = next(i for i, p in enumerate(workload.phases) if p.kind == "peak")
        out["peak_read_p50_ms"] = (stats.percentile(latencies("read", peak), 50) * 1e3, f"{workload.phases[peak].rate:g}/s")
    if "read_max_rate_rps" in wanted:
        best = stats.ladder_max_rate((p["rate"], p["passed"]) for p in ran)
        out["read_max_rate_rps"] = (
            0.0 if best is None else float(best),
            " ".join(f"{p['rate']:g}:{'ok' if p['passed'] else 'miss'}" for p in ran),
        )
    if "ingest_ack_p50_ms" in wanted:
        out["ingest_ack_p50_ms"] = (stats.percentile(acks, 50) * 1e3, f"{len(acks)} posts")
    if "ingest_ack_tail_ms" in wanted:
        p, value = stats.tail(acks)
        out["ingest_ack_tail_ms"] = (value * 1e3, f"p{p:g} of {len(acks)}")
    if "cycle_to_champion_p50_s" in wanted:
        champions = cycle_to_champion(inputs, ops, initial)
        out["cycle_to_champion_p50_s"] = (
            stats.percentile(champions, 50),
            f"{len(champions)} cycle completions",
        )
    out["failed_share"] = (failed / attempted, f"{failed} of {attempted}")
    return out


def cycle_to_champion(inputs, ops, initial):
    """Per streamed cycle closure: from the due time of the ingest that
    carries the closing day to the first answered GET of that vehicle,
    as of that day or later, serving a newer model version than every
    earlier forecast of it.  Those include the set-up's whole-fleet
    batch ``initial``, so a closure on the first streamed day, or one no
    read preceded, is timed against the set-up champion."""
    import math

    served = []
    for op in ops:
        if op.kind in ("read", "probe") and op.ok:
            forecast = json.loads(op.body)
            served.append((op.done, forecast["vehicle_id"], forecast["as_of_day"], forecast["model_version"]))
    served.sort()
    at_setup = {
        forecast["vehicle_id"]: forecast["model_version"]
        for op in initial
        if op.ok
        for forecast in _forecasts_of(op) or ()
    }
    ingest_due = {}
    for op in ops:
        if op.kind == "ingest":
            for vid, day in op.days.items():
                ingest_due[(vid, day)] = op.due
    out = []
    for vid, day in inputs.closures:
        prior = max([at_setup.get(vid, 0), *(v for _, w, d, v in served if w == vid and d < day)])
        after = next(
            (done for done, w, d, v in served if w == vid and d >= day and v > prior),
            None,
        )
        due = ingest_due.get((vid, day))
        out.append(math.inf if after is None or due is None else after - due)
    return out


# -- one workload -----------------------------------------------------------


async def run_async(inputs, seed, seconds, trace, n_setups, work):
    from inputs import expected_forecasts

    setups = []
    checks = []
    server = None
    try:
        for index in range(n_setups):
            last = index == n_setups - 1
            trace_out = work / "spans.json" if trace and last else None
            server = await spawn_server(inputs, work, index, trace_out)
            setups.append(server.setup_s)
            checks += server.first_batch
            if not last:
                await server.stop(graceful=False)
        phases = build_phases(inputs, seed, seconds)
        ops, window, ran = await drive(inputs, phases, server)
        if inputs.workload.has_ingest:
            import loadgen

            checks += await loadgen.predict_fleet(server.port, inputs.vehicle_ids, "final", 120.0)
        hwm_mb = _proc_hwm_mb(server.proc.pid)
        server.interrupt()
        # Nothing is measured any more: the serial reference trains every
        # model once more while the server drains.
        bad = verify(inputs, expected_forecasts(inputs), ops, checks)
        await server.stop(graceful=True)
        initial = server.first_batch
        server = None
    finally:
        if server is not None:
            await server.stop(graceful=False)
    failed = sum(1 for op in ops + checks if not op.ok or id(op) in bad)
    attempted = len(ops) + len(checks)
    mismatches = len(bad)
    result = {
        "workload": inputs.workload.name,
        "seed": seed,
        "fleet_seed": inputs.fleet_seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "correct": failed == 0,
        "end_to_end": end_to_end(inputs, ops, initial, ran, setups, hwm_mb, failed, attempted),
        "phases": ran,
    }
    if trace:
        import layers

        rows = json.loads((work / "spans.json").read_text())
        steady = next(i for i, p in enumerate(inputs.workload.phases) if p.kind == "steady")
        result["layers"], result["split"] = layers.analyse(rows, ops, window, steady)
    return result


def run_workload(name, seed, seconds, trace, n_setups):
    from inputs import make_inputs

    workload = spec.WORKLOADS[name]
    work = ROOT / ".budget_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(workload, seed, seconds, work / "fleet")
        # A hung server fails the run (servers killed) instead of holding it.
        return asyncio.run(
            asyncio.wait_for(
                run_async(inputs, seed, seconds, trace, n_setups, work),
                RUN_TIMEOUT_S,
            )
        )
    except BaseException:
        for log in sorted(work.glob("server-*.log")):
            tail = log.read_text(errors="replace")[-2000:]
            if tail.strip():
                print(f"--- {log.name}\n{tail}", file=sys.stderr)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- reporting --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def report(result) -> dict:
    """Print one workload's metrics; returns its JSON result."""
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  {result['seconds']:g} s  trace {result['trace']} ==")
    units = {m.name: m.unit for m in spec.END_TO_END}
    units.update({m.name: m.unit for m, _ in spec.REPORTED})
    for metric, (value, note) in result["end_to_end"].items():
        print(f"  {metric:<26} {_fmt(value):>10} {units[metric]:<6} {note}")
    if result["trace"]:
        print("  per-layer (traced run)")
        for layer in spec.LAYER_METRICS:
            value = result["layers"][layer.name]
            print(f"  {layer.name:<34} {_fmt(value):>10} {layer.unit}")
        for kind, split in result["split"].items():
            latency = split["latency_ms"]
            print(f"  median {kind} split ({split['requests']} requests, {latency:.3f} ms):")
            for layer, ms in split["layers_ms"].items():
                print(f"    {layer:<20} {ms:9.3f} ms {100.0 * ms / latency:6.1f} %")
    print(
        f"  correct {str(result['correct']).lower()}: {result['attempted']} attempted, "
        f"{result['failed']} failed, {result['mismatches']} forecast mismatches"
    )
    if result["trace"]:
        missing = [m.name for m in spec.LAYER_METRICS if m.every_workload and result["layers"][m.name] is None]
        if missing:
            raise RuntimeError(f"{name}: per-layer metrics without samples: {missing}")
        metrics = {
            m.name: {"value": result["layers"][m.name], "unit": m.unit}
            for m in spec.LAYER_METRICS
            if m.every_workload
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name][0], "unit": m.unit}
            for m in spec.END_TO_END
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def result_line(names: list[str], lines: list[dict]) -> dict:
    """The one JSON object that ends standard output: a single
    workload's result, or all of them with each metric named
    ``WORKLOAD.METRIC``."""
    if len(lines) == 1:
        return lines[0]
    return {
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {
            f"{name}.{metric}": value
            for name, line in zip(names, lines)
            for metric, value in line["metrics"].items()
        },
    }


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def append_out(path: Path, results: list[dict]) -> None:
    """Append runs to ``path``; a traced run also records how much the
    wrappers slowed ``read_p50_ms`` against the file's untraced runs."""
    data = json.loads(path.read_text()) if path.exists() else {"host": host_info(), "runs": []}
    data["runs"] += results
    for run in data["runs"]:
        if not run["trace"]:
            continue
        plain = [
            r["end_to_end"]["read_p50_ms"][0]
            for r in data["runs"]
            if not r["trace"] and r["workload"] == run["workload"]
        ]
        if plain:
            traced = run["end_to_end"]["read_p50_ms"][0]
            run["trace_overhead_pct"] = 100.0 * (traced / statistics.median(plain) - 1.0)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program is not here: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Seeds feed numpy generators, which take non-negative integers.
    seed = args.seed % (1 << 48)
    names = args.workload or list(spec.WORKLOADS)
    seconds = spec.SMOKE_SECONDS if args.smoke else args.seconds
    n_setups = 1 if (args.smoke or args.trace) else spec.SETUPS_PER_RUN
    info = host_info()
    print(f"host: nproc {info['nproc']}, Python {info['python']}, numpy {info['numpy']}")
    results = []
    lines = []
    for name in names:
        result = run_workload(name, seed, seconds, args.trace, n_setups)
        results.append(result)
        lines.append(report(result))
    if args.out:
        append_out(Path(args.out), results)
    print(json.dumps(result_line(names, lines)), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
