"""Fleet-engine benchmark: incremental ingest vs from-scratch rebuild.

Simulates the deployed daily loop: every morning each vehicle reports
yesterday's usage and the service needs its cycle series before
predicting.  The baseline rebuilds a :class:`VehicleSeries` from the
full history each day (O(n) per day, O(n^2) per vehicle overall); the
service ingests the day and folds it into the vehicle's incremental
cycle state in O(1).  The two are bit-identical, so this is pure
speedup.

Also reports batch-training and batch-prediction throughput through
:class:`FleetEngine`.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet_engine.py [--quick]

Exits non-zero if the incremental ingest speedup falls below the 3x
acceptance floor.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.cycles import derive_series
from repro.core.series import VehicleSeries
from repro.serving.engine import FleetEngine
from repro.serving.reliability import IngestionGuard
from repro.serving.service import MaintenancePredictionService

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
SPEEDUP_FLOOR = 3.0
GUARD_OVERHEAD_CEILING = 0.10  # guarded clean-path ingest, vs unguarded

T_V = 200_000.0  # ~8-9 day cycles at the usage scale below


def synthetic_fleet(n_vehicles: int, n_days: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    return {
        f"v{i:03d}": rng.uniform(5_000, 30_000, size=n_days)
        for i in range(n_vehicles)
    }


def bench_ingest(fleet: dict[str, np.ndarray], n_days: int) -> list[str]:
    """Daily series: from-scratch rebuild vs the service's ingest."""
    start = perf_counter()
    for vehicle_id, usage in fleet.items():
        for day in range(1, n_days + 1):
            VehicleSeries(
                vehicle_id=vehicle_id, usage=usage[:day], t_v=T_V
            ).bundle
    from_scratch = perf_counter() - start

    service = MaintenancePredictionService(t_v=T_V, window=0, algorithm="LR")
    start = perf_counter()
    for vehicle_id, usage in fleet.items():
        service.register_vehicle(vehicle_id)
        for value in usage[:n_days].tolist():
            service.ingest(vehicle_id, value)
            service.series(vehicle_id)
    incremental = perf_counter() - start

    # Spot-check the equivalence contract on one vehicle.
    vehicle_id, usage = next(iter(fleet.items()))
    a = service.series(vehicle_id).bundle
    b = derive_series(usage[:n_days], T_V)
    assert a.cycles == b.cycles
    assert np.array_equal(a.usage_left, b.usage_left, equal_nan=True)

    speedup = from_scratch / incremental if incremental > 0 else float("inf")
    lines = [
        f"ingest, {len(fleet)} vehicles x {n_days} days "
        f"({n_days * len(fleet)} daily updates):",
        f"  from-scratch VehicleSeries : {from_scratch:8.3f} s",
        f"  incremental ingest+series  : {incremental:8.3f} s",
        f"  speedup                    : {speedup:8.1f}x "
        f"(floor {SPEEDUP_FLOOR:.0f}x)",
    ]
    if speedup < SPEEDUP_FLOOR:
        raise SystemExit(
            f"incremental ingest speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor"
        )
    return lines


def bench_guard(
    fleet: dict[str, np.ndarray], *, enforce: bool
) -> list[str]:
    """Clean-path ingest cost of the ingestion guard.

    The guard *replaces* the service's raw range validation rather than
    duplicating it, so screening clean readings must cost about the
    same; ``enforce`` additionally fails the run when the overhead
    exceeds :data:`GUARD_OVERHEAD_CEILING`.
    """

    def run(guard: IngestionGuard | None) -> float:
        service = MaintenancePredictionService(
            t_v=T_V, window=0, algorithm="LR", guard=guard
        )
        for vehicle_id in fleet:
            service.register_vehicle(vehicle_id)
        start = perf_counter()
        for vehicle_id, usage in fleet.items():
            for day, value in enumerate(usage):
                service.ingest(vehicle_id, float(value), day=day)
        return perf_counter() - start

    # Interleave repeats and keep the best of each to damp scheduler
    # noise; a single warm-up pass stabilizes allocator state.
    run(None), run(IngestionGuard())
    plain = min(run(None) for _ in range(3))
    guarded = min(run(IngestionGuard()) for _ in range(3))
    overhead = guarded / plain - 1.0
    n_readings = sum(u.size for u in fleet.values())
    lines = [
        f"ingestion guard, clean path ({n_readings} readings):",
        f"  unguarded ingest : {plain:8.3f} s",
        f"  guarded ingest   : {guarded:8.3f} s",
        f"  overhead         : {overhead:+8.1%} "
        f"(ceiling {GUARD_OVERHEAD_CEILING:.0%})",
    ]
    if enforce and overhead > GUARD_OVERHEAD_CEILING:
        raise SystemExit(
            f"guard clean-path overhead {overhead:+.1%} above the "
            f"{GUARD_OVERHEAD_CEILING:.0%} ceiling"
        )
    return lines


def bench_batch(fleet: dict[str, np.ndarray]) -> list[str]:
    """Cold (train + predict) and warm ``predict_all`` wall time, both
    checked against the plain serial service."""
    engine = FleetEngine(t_v=T_V, window=0, algorithm="LR")
    engine.register_fleet(fleet)
    for vehicle_id, usage in fleet.items():
        engine.ingest_history(vehicle_id, usage)
    start = perf_counter()
    cold = engine.predict_all()
    cold_s = perf_counter() - start
    start = perf_counter()
    forecasts = engine.predict_all()
    warm_s = perf_counter() - start

    serial = MaintenancePredictionService(t_v=T_V, window=0, algorithm="LR")
    for vehicle_id in sorted(fleet):
        serial.register_vehicle(vehicle_id)
        serial.ingest_series(vehicle_id, fleet[vehicle_id])
    reference = [serial.predict(vehicle_id) for vehicle_id in sorted(fleet)]
    assert cold == reference, "cold batch run diverged from serial"
    assert forecasts == reference, "warm batch run diverged from serial"
    return [
        f"batch predict_all, {len(fleet)} vehicles:",
        f"  cold (train + predict) {cold_s:6.3f} s, "
        f"warm {warm_s:6.3f} s, {len(forecasts)} forecasts",
        "  forecasts identical to the serial service",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized fleet (10 x 150) instead of the full 50 x 1000",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_vehicles, n_days = 10, 150
    else:
        n_vehicles, n_days = 50, 1000
    fleet = synthetic_fleet(n_vehicles, n_days)

    lines = ["Fleet engine benchmark", ""]
    lines += bench_ingest(fleet, n_days)
    lines.append("")
    lines += bench_guard(fleet, enforce=True)
    lines.append("")
    # Training/prediction scale is bounded separately: the ingest fleet's
    # long histories would make per-vehicle training dominate the run.
    batch_fleet = {
        vehicle_id: usage[:60]
        for vehicle_id, usage in list(fleet.items())[:n_vehicles]
    }
    lines += bench_batch(batch_fleet)

    text = "\n".join(lines)
    print(text)
    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "fleet_engine.txt").write_text(text + "\n")
        print(f"\nwrote {RESULTS_DIR / 'fleet_engine.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
