"""Fused inference-kernel benchmark: compiled ensembles + batched fleet.

Three claims are enforced, not just reported (paired measurement
windows: reference and compiled paths run interleaved on the same data,
best-of-``--repeats`` per side, so background noise hits both equally):

* the compiled level-wise kernel is **>= 3x** faster than the reference
  per-tree Python loop (``repro.learn.compiled.reference_predict``,
  which replays the pre-kernel ``predict`` op for op) on the serving-
  shaped workload — for both the RF and the histogram-GBDT serving
  defaults, at single-row (one vehicle) and 64-row (stacked fleet
  batch) shapes;
* the service's group-batched ``predict_batch(ids)`` (one kernel call
  per shared model identity) beats per-vehicle dispatch
  (``[predict_batch([v]) for v in ids]``) on a warm cold-start-heavy
  fleet, where most vehicles share the fleet-wide ``Model_Uni``
  (every vehicle's remembered forecast is dropped before each timed
  run, so both sides time routing, feature rows and kernel calls);
* every batched forecast is **bit-identical** to the serial
  ``MaintenancePredictionService.predict`` path, and every compiled
  champion reproduces ``reference_predict`` byte-for-byte on its own
  serving feature row.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_predict_kernel.py [--smoke]

``--smoke`` is the ~20 s CI sizing (smaller fleet, fewer repeats, and a
relaxed 2x kernel floor — shared CI machines time noisily); the full
run writes ``results/kernel.txt``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.registry import make_predictor
from repro.learn.compiled import compile_model, reference_predict
from repro.serving import FleetEngine, MaintenancePredictionService

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

T_V = 600_000.0
WINDOW = 6
N_DAYS = 90


def synthetic_fleet(n_vehicles: int) -> dict[str, np.ndarray]:
    """A cold-start-heavy fleet: the shape group-batching exists for.

    1/6 of the fleet are OLD donors (~1.7M cumulative >> t_v) serving
    their own champions; the rest are NEW (10 days, < t_v/2) and all
    share the fleet-wide ``Model_Uni`` — the batched path stacks them
    into one kernel call while per-vehicle dispatch predicts them one
    by one.
    """
    rng = np.random.default_rng(0)
    n_old = max(2, n_vehicles // 6)
    fleet = {
        f"old{i:03d}": rng.uniform(16_000, 22_000, size=N_DAYS)
        for i in range(n_old)
    }
    for i in range(n_vehicles - n_old):
        fleet[f"new{i:03d}"] = rng.uniform(16_000, 22_000, size=10)
    return fleet


def serving_shaped_data(n: int, seed: int = 1):
    """(X, y) shaped like the Section-3 feature rows (L + lag window)."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, WINDOW + 1))
    X[:, 0] = rng.uniform(50_000, T_V, size=n)  # usage left
    X[:, 1:] = rng.uniform(16_000, 22_000, size=(n, WINDOW))  # lags
    y = X[:, 0] / X[:, 1:].mean(axis=1) + rng.normal(0.0, 0.4, size=n)
    return X, y


class _Dataset:
    def __init__(self, X, y):
        self.X, self.y = X, y
        self.n_records = len(X)


def best_of(fn, repeats: int, inner: int) -> float:
    """Best per-call seconds over ``repeats`` windows of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


def kernel_microbench(repeats: int, inner: int):
    """Per-algorithm (rows -> (ref_s, kernel_s, bit_identical)) table."""
    X, y = serving_shaped_data(160)
    results = {}
    for key in ("RF", "XGB"):
        predictor = make_predictor(key)
        predictor.fit(_Dataset(X, y))
        model = predictor.model_
        compiled = compile_model(model)
        per_rows = {}
        for rows in (1, 64):
            probe = serving_shaped_data(rows, seed=7)[0]
            reference = reference_predict(model, probe)
            fused = compiled.predict(probe)
            identical = (
                reference.dtype == fused.dtype
                and reference.shape == fused.shape
                and reference.tobytes() == fused.tobytes()
            )
            # Interleaved paired windows: same probe, same cadence.
            ref_s = best_of(
                lambda: reference_predict(model, probe), repeats, inner
            )
            kernel_s = best_of(lambda: compiled.predict(probe), repeats, inner)
            per_rows[rows] = (ref_s, kernel_s, identical)
        results[key] = per_rows
    return results


def build_engine(usage) -> FleetEngine:
    engine = FleetEngine(t_v=T_V, window=WINDOW, algorithm="RF")
    engine.register_fleet(usage)
    for vehicle_id, series in usage.items():
        engine.ingest_history(vehicle_id, series)
    return engine


def forget_forecasts(service) -> None:
    """Drop every vehicle's remembered forecast: the next read of each
    one misses and runs its kernel."""
    for state in service._vehicles.values():
        state.memo = None


def fleet_bench(usage, repeats: int):
    """Warm-fleet seconds: one grouped batch vs per-vehicle dispatch,
    both on the kernel path (every read a memo miss)."""
    engine = build_engine(usage)
    engine.predict_all()  # compiles the kernels
    service = engine.service
    ids = sorted(usage)
    runs = {
        False: lambda: [service.predict_batch([v])[0] for v in ids],
        True: lambda: service.predict_batch(ids),
    }
    forecasts = {}
    for batched, run in runs.items():
        forget_forecasts(service)
        forecasts[batched] = run()
    timings = {batched: float("inf") for batched in runs}
    for _ in range(repeats):  # interleaved paired windows
        for batched, run in runs.items():
            forget_forecasts(service)
            started = time.perf_counter()
            run()
            timings[batched] = min(
                timings[batched], time.perf_counter() - started
            )
    return timings, forecasts


def serial_forecasts(usage):
    service = MaintenancePredictionService(
        t_v=T_V, window=WINDOW, algorithm="RF"
    )
    for vehicle_id in sorted(usage):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage[vehicle_id])
    return [service.predict(vehicle_id) for vehicle_id in sorted(usage)]


def champion_row_identity(usage) -> tuple[int, int]:
    """Served models reproduce ``reference_predict`` on serving rows."""
    service = MaintenancePredictionService(
        t_v=T_V, window=WINDOW, algorithm="RF"
    )
    mismatches = checked = 0
    for vehicle_id in sorted(usage):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage[vehicle_id])
    for vehicle_id in sorted(usage):
        model = service.champion(vehicle_id).predictor
        if model is None:  # cold start: the Model_Uni, if fitted
            entry = service._models.get("uni")
            model = None if entry is None else entry.predictor
        if model is None:
            continue
        checked += 1
        row, _, _ = service._feature_row(
            vehicle_id, service.series(vehicle_id)
        )
        compiled = compile_model(model)
        if compiled.predict(row).tobytes() != reference_predict(
            model, row
        ).tobytes():
            mismatches += 1
    return mismatches, checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=48)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--kernel-floor",
        type=float,
        default=3.0,
        help="required compiled/reference speedup at both row shapes",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI sizing: small fleet, few repeats, relaxed 2x floor",
    )
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="report only; skip the speedup/identity assertions",
    )
    args = parser.parse_args(argv)

    vehicles = args.vehicles
    repeats = args.repeats
    inner = 20
    kernel_floor = args.kernel_floor
    if args.smoke:
        vehicles = 32
        repeats = 3
        inner = 8
        kernel_floor = min(kernel_floor, 2.0)

    failures: list[str] = []
    lines = [
        "Fused inference-kernel benchmark",
        "",
        f"serving-shaped workload: window {WINDOW} (7 features), RF/XGB "
        f"serving defaults; best-of-{repeats} paired windows x {inner} "
        "calls",
        "",
        "kernel vs reference per-tree loop:",
    ]

    micro = kernel_microbench(repeats, inner)
    for key, per_rows in micro.items():
        for rows, (ref_s, kernel_s, identical) in per_rows.items():
            speedup = ref_s / kernel_s
            lines.append(
                f"  {key:3s} rows={rows:3d}: reference {ref_s * 1e6:9.1f} us"
                f"   kernel {kernel_s * 1e6:9.1f} us   {speedup:6.2f}x"
                f"   bit-identical={identical}"
            )
            if not identical:
                failures.append(
                    f"{key} rows={rows}: compiled output diverged from the "
                    "reference loop"
                )
            if speedup < kernel_floor:
                failures.append(
                    f"{key} rows={rows}: kernel speedup {speedup:.2f}x is "
                    f"under the {kernel_floor:.1f}x floor"
                )

    usage = synthetic_fleet(vehicles)
    n_old = sum(1 for v in usage if v.startswith("old"))
    timings, forecasts = fleet_bench(usage, repeats)
    fleet_speedup = timings[False] / timings[True]
    lines += [
        "",
        f"fleet predict_batch ({n_old} OLD + {vehicles - n_old} NEW "
        "vehicles, warm models):",
        f"  per-vehicle dispatch: {timings[False] * 1e3:8.2f} ms",
        f"  group-batched       : {timings[True] * 1e3:8.2f} ms"
        f"   ({fleet_speedup:.2f}x)",
    ]
    if fleet_speedup <= 1.0:
        failures.append(
            f"group-batched predict_batch is {fleet_speedup:.2f}x per-vehicle "
            "dispatch (must be faster)"
        )

    reference = serial_forecasts(usage)
    batched_identical = forecasts[True] == reference
    unbatched_identical = forecasts[False] == reference
    row_mismatches, rows_checked = champion_row_identity(usage)
    lines += [
        "",
        f"forecast identity vs serial service: batched={batched_identical} "
        f"per-vehicle={unbatched_identical}",
        f"served-model rows diverging from reference_predict: "
        f"{row_mismatches}/{rows_checked}",
    ]
    if not batched_identical:
        failures.append("batched forecasts diverged from the serial service")
    if not unbatched_identical:
        failures.append(
            "per-vehicle forecasts diverged from the serial service"
        )
    if row_mismatches:
        failures.append(
            f"{row_mismatches} champion(s) diverged from reference_predict "
            "on their serving rows"
        )

    text = "\n".join(lines)
    print(text)
    if not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "kernel.txt").write_text(text + "\n")
        print(f"wrote {RESULTS_DIR / 'kernel.txt'}")
    if failures and not args.no_enforce:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
