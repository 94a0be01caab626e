"""Lifecycle overhead benchmark: sweeps against the serving hot path.

The lifecycle controller's promise is that model *replacement* happens
off the hot path: in steady state (no drift) a per-day sweep is a
debounced candidate scan, and only a fired drift alert pays for
challenger training and shadow evaluation.  This bench pins both
halves of that promise:

* **steady-state sweep overhead** on the serve path must stay **< 10%**
  — measured with ``bench_durability.py``'s paired-alternation
  methodology: one engine, one warmed fleet, and the lifecycle sweep
  toggled on/off on *alternating days*, each day's
  ``predict_all`` (+ sweep when enabled) timed individually and the
  regression judged on each mode's fastest-quartile mean;
* **drift-triggered evaluation cost** — one full
  ``evaluate_vehicle`` (challenger training + shadow replay + gated
  promotion) is timed and *reported*, not gated: it runs only when an
  alert fires, which is the entire point of the debounce.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_lifecycle.py [--quick]

``--quick`` is the ~5 s CI sizing.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.lifecycle import LifecycleController, PromotionPolicy, ShadowEvaluator
from repro.serving import (
    DriftMonitor,
    FleetEngine,
    MaintenancePredictionService,
    ModelStore,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

T_V = 200_000.0


def build_stack(n_vehicles: int, store_dir: str):
    service = MaintenancePredictionService(
        t_v=T_V,
        window=0,
        algorithm="LR",
        store=ModelStore(store_dir),
        monitor=DriftMonitor(
            threshold_days=2.0, window=30, min_samples=5, alert_cooldown=12
        ),
        retrain_on_cycle=False,
    )
    engine = FleetEngine(service)
    controller = LifecycleController(
        engine,
        PromotionPolicy(
            min_shadow_samples=6,
            min_improvement_days=0.1,
            min_relative_improvement=0.02,
        ),
        shadow=ShadowEvaluator(window_days=30),
    )
    ids = [f"v{i:03d}" for i in range(n_vehicles)]
    engine.register_fleet(ids)
    return engine, controller, ids


def paired_days(
    engine, controller, ids, rates, rng, start_day: int, days: int
) -> tuple[list[float], list[float]]:
    """Serve ``days`` fleet-days, the lifecycle sweep on every other one.

    Each day's timed region is ``predict_all`` plus — on sweep days —
    one ``controller.run_once()``; ingest stays outside it.  In steady
    state no candidates fire, so the measured delta is exactly what
    the sweep costs every serve day of a healthy fleet.
    """
    times: dict[bool, list[float]] = {True: [], False: []}
    gc.collect()
    gc.disable()
    try:
        for row in range(days):
            engine.ingest_day(
                {
                    vid: float(
                        np.clip(
                            rates[vid] + rng.normal(0.0, rates[vid] * 0.02),
                            1_000,
                            86_400,
                        )
                    )
                    for vid in ids
                },
                day=start_day + row,
            )
            sweeping = row % 2 == 0
            started = time.perf_counter()
            engine.predict_all()
            if sweeping:
                controller.run_once()
            times[sweeping].append(time.perf_counter() - started)
    finally:
        gc.enable()
    return times[True], times[False]


def measure_drift_evaluation(engine, controller, ids, rates, rng, day: int):
    """One drift-triggered evaluate (train + shadow + promote), timed.

    Shifts one vehicle's regime, serves until its alert debounce is
    satisfied, then times the controller's full response.  Returns
    (seconds, outcome, days elapsed).
    """
    target = ids[0]
    started_day = day
    while day - started_day < 120:
        engine.ingest_day(
            {
                vid: float(
                    np.clip(
                        rates[vid]
                        * (2.0 if vid == target else 1.0)
                        + rng.normal(0.0, rates[vid] * 0.02),
                        1_000,
                        86_400,
                    )
                )
                for vid in ids
            },
            day=day,
        )
        engine.predict_all()
        day += 1
        candidates = controller.candidates()
        if candidates:
            vehicle_id, reason = candidates[0]
            started = time.perf_counter()
            entry = controller.evaluate_vehicle(vehicle_id, reason)
            return time.perf_counter() - started, entry["outcome"], day
    raise RuntimeError("drift alert never fired within 120 days")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--vehicles", type=int, default=256, help="fleet width"
    )
    parser.add_argument(
        "--days", type=int, default=32, help="days per measurement window"
    )
    parser.add_argument(
        "--pairs", type=int, default=4, help="measurement windows"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI sizing: ~5 s total"
    )
    parser.add_argument(
        "--no-enforce",
        action="store_true",
        help="report only; skip the <10%% overhead assertion",
    )
    args = parser.parse_args(argv)

    n_vehicles, days, pairs = args.vehicles, args.days, args.pairs
    if args.quick:
        n_vehicles, days, pairs = 128, 16, 2

    rng = np.random.default_rng(0)
    on_times: list[float] = []
    off_times: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        engine, controller, ids = build_stack(n_vehicles, tmp)
        rates = dict(
            zip(ids, rng.uniform(15_000.0, 21_000.0, size=n_vehicles))
        )
        # Warm until every vehicle is OLD with a frozen champion and
        # the monitor has resolved residuals (steady state, no alerts).
        day = 0
        for _ in range(30):
            engine.ingest_day(
                {
                    vid: float(
                        np.clip(
                            rates[vid] + rng.normal(0.0, rates[vid] * 0.02),
                            1_000,
                            86_400,
                        )
                    )
                    for vid in ids
                },
                day=day,
            )
            if day >= 15:
                engine.predict_all()
            day += 1

        for pair in range(pairs + 1):
            on, off = paired_days(
                engine, controller, ids, rates, rng, day, days
            )
            day += days
            if pair > 0:  # first window is warm-up
                on_times.extend(on)
                off_times.extend(off)
        sweeps = controller.counters()["sweeps"]
        promotions = controller.counters()["promotions"]

        eval_s, eval_outcome, day = measure_drift_evaluation(
            engine, controller, ids, rates, rng, day
        )

    def fast_quartile(times: list[float]) -> float:
        fastest = sorted(times)[: max(1, len(times) // 4)]
        return sum(fastest) / len(fastest)

    regression = fast_quartile(on_times) / fast_quartile(off_times) - 1.0
    on_rate = n_vehicles / fast_quartile(on_times)
    off_rate = n_vehicles / fast_quartile(off_times)
    lines = [
        "Lifecycle overhead benchmark",
        "",
        f"{n_vehicles} vehicles x {days} days per window, "
        f"{pairs} windows of alternating sweep-on/off serve days "
        f"({sweeps} sweeps, {promotions} steady-state promotions)",
        "",
        f"sweep off : {off_rate:10.0f} forecasts/s (fastest-quartile)",
        f"sweep on  : {on_rate:10.0f} forecasts/s (fastest-quartile)",
        f"fastest-quartile regression: {regression * 100:+.1f}%",
        "",
        f"drift-triggered evaluation (train + shadow + gate, off-path): "
        f"{eval_s * 1000:.1f} ms -> {eval_outcome}",
    ]
    text = "\n".join(lines)
    print(text)
    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "lifecycle.txt").write_text(text + "\n")
        print(f"wrote {RESULTS_DIR / 'lifecycle.txt'}")
    if promotions:
        print(
            f"FAIL: {promotions} promotion(s) fired in the steady-state "
            "window; the overhead measurement is contaminated",
            file=sys.stderr,
        )
        return 1
    if regression >= 0.10 and not args.no_enforce:
        print(
            f"FAIL: lifecycle sweeps cost {regression * 100:.1f}% serve "
            "throughput (the budget is < 10%)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
