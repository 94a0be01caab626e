"""Durability overhead benchmark: write-ahead journal on the ingest path.

Measures what crash safety costs on the fleet ingest hot path
(``FleetEngine.ingest_day`` — one CRC-framed ``day`` record per
fleet-day, base64 float64 payload, fsynced before the call returns,
exactly as every ingest request is before its ack), with
a tighter variant of ``bench_gateway.py``'s paired interleaved
methodology: one engine, one process, one warmed cycle state — and
the journal toggled on/off on *alternating days* within each window,
so the two modes share engine state and the machine's
thermal/frequency state down to sub-millisecond granularity.  The
regression is judged on each mode's *fastest-quartile* mean (the
best-of-K idiom from ``bench_gateway.py``, widened to a quartile for
convergence); on shared hardware whole windows dip ±25% under
co-tenancy, noise that dwarfs the overhead itself.

Two numbers are produced, one gated:

* **journal overhead** on the ingest hot path — record framing plus
  the durable-ack fsync — must stay **< 10%** of journal-off
  throughput; one record per request amortizes framing, CRC, write
  and fsync over the whole fleet day, where a per-reading record would
  cost several microseconds against a ~1 us guarded-append baseline;
* **checkpoint cost** — a full ``state_dict`` snapshot written
  atomically with checksum sidecar — measured separately as
  stop-the-world seconds + bytes, because checkpoints are periodic
  (every ``checkpoint_every`` records), not per-reading.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_durability.py [--quick]

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

from repro.durability import CheckpointManager, WriteAheadJournal
from repro.serving import FleetEngine, IngestionGuard

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

T_V = 2_000_000.0


def build_engine(n_vehicles: int) -> tuple[FleetEngine, list[str]]:
    engine = FleetEngine(
        t_v=T_V,
        window=0,
        algorithm="LR",
        guard=IngestionGuard(),
    )
    ids = [f"v{i:03d}" for i in range(n_vehicles)]
    engine.register_fleet(ids)
    return engine, ids


def paired_window(
    engine: FleetEngine,
    journal: WriteAheadJournal,
    ids: list[str],
    values: np.ndarray,
    start_day: int,
) -> tuple[list[float], list[float]]:
    """One paired window: journal toggled on/off on alternating days.

    ``bench_gateway.py`` pairs whole measurement windows; here the
    pairing is per *day* — the journal is attached on even days and
    detached on odd days, and each day is timed individually.  At a
    few hundred us per fleet-day the machine's co-tenancy/frequency
    state is effectively identical for adjacent days, which matters
    because window-level noise on shared hardware (±25% between
    consecutive windows) dwarfs the overhead being measured.
    Journaled days pay their full cost inside the timed region: one
    ``day`` record and one fsync per call.  Returns (journal-on day
    times, journal-off day times).
    """
    service = engine.service
    times: dict[bool, list[float]] = {True: [], False: []}
    # The per-day batch dicts churn the allocator enough to trigger
    # cyclic-GC passes mid-window; those pauses land on whichever
    # mode's day is running and swing individual ratios 3x.  Collect
    # once up front, then keep the collector out of the timed region.
    gc.collect()
    gc.disable()
    try:
        for row, day_values in enumerate(values):
            journaled = row % 2 == 0
            service.journal = journal if journaled else None
            batch = dict(zip(ids, day_values))
            started = time.perf_counter()
            engine.ingest_day(batch, day=start_day + row)
            times[journaled].append(time.perf_counter() - started)
    finally:
        gc.enable()
    service.journal = None
    return times[True], times[False]


def measure_checkpoint(
    service: MaintenancePredictionService, root: Path, reps: int
) -> tuple[float, int]:
    """Stop-the-world checkpoint cost: best of ``reps`` snapshots."""
    manager = CheckpointManager(root, keep=2)
    best = float("inf")
    size = 0
    for rep in range(reps):
        started = time.perf_counter()
        path = manager.save(service.state_dict(), seq=rep + 1)
        best = min(best, time.perf_counter() - started)
        size = path.stat().st_size
    return best, size


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--vehicles",
        type=int,
        default=1024,
        help="fleet width; the bulk day record carries a ~20 us fixed "
        "framing/CRC cost that amortizes below the 10%% budget only at "
        "realistic fleet scale (the paper's deployment is thousands of "
        "vehicles)",
    )
    parser.add_argument(
        "--days",
        type=int,
        default=32,
        help="days ingested per measurement window",
    )
    parser.add_argument(
        "--pairs", type=int, default=4, help="journal on/off window pairs"
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
        n_vehicles, days, pairs = 1024, 16, 2

    rng = np.random.default_rng(0)
    engine, ids = build_engine(n_vehicles)
    service = engine.service
    on_times: list[float] = []
    off_times: list[float] = []
    day = 0
    with tempfile.TemporaryDirectory() as tmp:
        journal = WriteAheadJournal(Path(tmp) / "journal")

        def window(record: bool) -> None:
            nonlocal day
            values = rng.uniform(
                10_000, 28_000, size=(days, len(ids))
            )
            on, off = paired_window(engine, journal, ids, values, day)
            day += days
            if record:
                on_times.extend(on)
                off_times.extend(off)

        window(record=False)  # warm-up: caches, page cache, turbo
        for _ in range(pairs):
            window(record=True)
        stats = journal.stats()
        journal.close()

        checkpoint_s, checkpoint_bytes = measure_checkpoint(
            service, Path(tmp) / "checkpoints", reps=3
        )

    # Gate on the mean of each mode's fastest-quartile days — the
    # ``bench_gateway.py`` best-of-K idiom widened to a quartile.  A
    # mean or per-window aggregate lets a single co-tenancy stall
    # that lands on one mode's day swing the verdict by more than the
    # overhead being measured, while the single fastest day converges
    # too slowly (best-of-64 at ~1 ms/day still spreads ±5% run to
    # run); averaging the clean fastest quarter of each mode is
    # stable at ±2-3%.  The per-adjacent-day-pair ratio quartiles are
    # reported alongside as a noise diagnostic.
    def fast_quartile(times: list[float]) -> float:
        fastest = sorted(times)[: max(1, len(times) // 4)]
        return sum(fastest) / len(fastest)

    ratios = sorted(on / off for on, off in zip(on_times, off_times))
    regression = fast_quartile(on_times) / fast_quartile(off_times) - 1.0
    on_rate = n_vehicles / fast_quartile(on_times)
    off_rate = n_vehicles / fast_quartile(off_times)
    appends = stats["records_appended"]
    lines = [
        "Durability overhead benchmark",
        "",
        f"{n_vehicles} vehicles x {days} days per window, "
        f"{pairs} windows of alternating journal-on/off days, "
        "one fsync per journaled day",
        "",
        f"journal off : {off_rate:10.0f} readings/s (fastest-quartile)",
        f"journal on  : {on_rate:10.0f} readings/s (fastest-quartile)",
        "per-day-pair ratio quartiles: "
        + ", ".join(
            f"{ratios[i]:.3f}"
            for i in (0, len(ratios) // 4, len(ratios) // 2,
                      3 * len(ratios) // 4, len(ratios) - 1)
        )
        + " (min/q1/median/q3/max)",
        f"fastest-quartile regression: {regression * 100:+.1f}%",
        "",
        f"journal     : {appends} records appended, {stats['fsyncs']} "
        "fsyncs",
        f"checkpoint  : {checkpoint_s * 1000:.1f} ms stop-the-world, "
        f"{checkpoint_bytes} bytes "
        f"({n_vehicles} vehicles, {day} days of state)",
    ]
    text = "\n".join(lines)
    print(text)
    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "durability.txt").write_text(text + "\n")
        print(f"wrote {RESULTS_DIR / 'durability.txt'}")
    if regression >= 0.10 and not args.no_enforce:
        print(
            f"FAIL: journaling costs {regression * 100:.1f}% ingest "
            "throughput (the budget is < 10%)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
