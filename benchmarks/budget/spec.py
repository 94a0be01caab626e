"""What the latency-budget benchmark runs and what it reports.

Plain data, importable without the program under test: ``run.py``
executes it, ``compare.py`` reads the metric directions and bounds, and
``test_spec.py`` checks that ``BENCHMARK.json`` says the same thing.

Rates and phase lengths are sized so that one run of a workload — five
server set-ups, the measured phases and the correctness check — fits
about half a minute on a 2-core host: a full benchmark sweep runs each
workload more than twenty times.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Phase",
    "Workload",
    "WORKLOADS",
    "Metric",
    "END_TO_END",
    "REPORTED",
    "LayerMetric",
    "LAYER_METRICS",
    "SETUPS_PER_RUN",
    "DEFAULT_SECONDS",
    "SMOKE_SECONDS",
    "CONNECTIONS",
    "PROBE_INTERVAL_S",
    "DEPOT_SIZE",
]

#: Seconds of measured traffic per run: ``BENCHMARK.json``'s
#: ``run_seconds``, the only value ``--seconds`` accepts.  The inputs
#: depend on it (fleet days streamed, cycle completions), so runs of
#: one length compare only with runs of the same length.
DEFAULT_SECONDS = 12

#: Seconds of measured traffic per workload with ``--smoke``.
SMOKE_SECONDS = 4

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 5

#: Keep-alive connections of the load generator.  Fixed, whatever the
#: host's core count, so runs on different hosts offer the same load.
CONNECTIONS = 2

#: Interval of the champion probes in ``cycle-rollover``.
PROBE_INTERVAL_S = 0.05

#: Vehicles per depot, the unit of a ``predict:batch`` read.
DEPOT_SIZE = 24


@dataclass(frozen=True)
class Phase:
    """One stretch of open-loop reads at a fixed mean rate.

    ``share`` is the phase's part of ``--seconds``.  ``kind`` is
    ``steady`` (the end-to-end read metrics), ``peak`` or ``ladder``
    (a capacity rung; the ladder stops at the first rung that misses
    the SLO).
    """

    kind: str
    rate: float
    share: float


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one generated fleet."""

    name: str
    why: str
    n_vehicles: int
    t_v: float
    preload_days: int
    read: str  # "one": GET /v1/predict/{id}; "depot": POST /v1/predict:batch
    phases: tuple[Phase, ...]
    slo_percentile: float
    slo_limit_ms: float
    durable: bool = False
    store: bool = False
    # Ingest stream on its own connection: ``ingest_rate`` posts per
    # second (0: a read-only workload), each carrying
    # ``readings_per_post`` readings (0: one whole fleet day).
    ingest_rate: float = 0.0
    readings_per_post: int = 0
    # Exact OLD / SEMI-NEW / NEW counts at the end of the preload, made
    # by cutting each generated history inside the cycle that gives its
    # category (``preload_days`` is then the generated length); ``None``
    # preloads every vehicle for ``preload_days``.
    mix: tuple[int, int, int] | None = None
    max_old_at_end: int | None = None
    # Cycle completions the stream carries per measured second, exactly;
    # each is timed by a probe read (``cycle_to_champion_p50_s``).
    completions_per_s: float = 0.0
    # Usage archetype of every vehicle (``repro.fleet.profiles``);
    # ``None`` mixes all of them round-robin.
    archetype: str | None = None

    @property
    def has_ingest(self) -> bool:
        return self.ingest_rate > 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="predict-one",
            why=(
                "single GETs of random vehicles: gateway admission, the 5 ms "
                "batch window and the per-batch refresh scan; one kernel row "
                "per call, nothing written"
            ),
            n_vehicles=24,
            t_v=2.0e5,
            preload_days=90,
            read="one",
            phases=(
                Phase("steady", 60.0, 0.46),
                Phase("peak", 120.0, 0.24),
                Phase("ladder", 180.0, 0.16),
                Phase("ladder", 240.0, 0.14),
            ),
            slo_percentile=99.0,
            slo_limit_ms=50.0,
            mix=(20, 4, 0),
        ),
        Workload(
            name="predict-fleet",
            why=(
                "24-vehicle depot batches over a mixed fleet: Section-4 "
                "routing, donor scans for SEMI-NEW, Model_Uni for NEW, "
                "model-grouped kernel calls and encoding"
            ),
            n_vehicles=96,
            t_v=3.5e5,
            preload_days=90,
            read="depot",
            phases=(
                Phase("steady", 10.0, 0.53),
                Phase("peak", 20.0, 0.20),
                Phase("ladder", 40.0, 0.10),
                Phase("ladder", 80.0, 0.09),
                Phase("ladder", 120.0, 0.08),
            ),
            slo_percentile=95.0,
            slo_limit_ms=150.0,
            mix=(6, 45, 45),
        ),
        Workload(
            name="ingest-backfill",
            why=(
                "durable 16-reading ingest posts beside GETs on one engine "
                "thread: journal appends, group commit and checkpoints; no "
                "model is trained"
            ),
            n_vehicles=512,
            t_v=2.0e6,
            preload_days=20,
            read="one",
            phases=(Phase("steady", 30.0, 1.0),),
            slo_percentile=99.0,
            slo_limit_ms=50.0,
            durable=True,
            ingest_rate=32.0,
            readings_per_post=16,
            max_old_at_end=0,
        ),
        Workload(
            name="cycle-rollover",
            why=(
                "streamed fleet days close a maintenance cycle every 1.5 s and "
                "the next read retrains and stores that champion: the "
                "completed-cycle to retrained-champion path"
            ),
            n_vehicles=8,
            t_v=3.5e5,
            preload_days=60,
            read="one",
            phases=(Phase("steady", 40.0, 1.0),),
            slo_percentile=99.0,
            slo_limit_ms=50.0,
            durable=True,
            store=True,
            ingest_rate=1.0,
            mix=(8, 0, 0),
            completions_per_s=2 / 3,
            archetype="steady_worker",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric: what a fleet operator sees."""

    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Gated by ``BENCHMARK.json``: defined and never 0 in every workload.
#: On a shared 2-vCPU host the CPU speed drifts by about a third over
#: minutes, so metrics that scale with CPU speed — CPU per op, tails —
#: are reported and compared below instead.  ``setup_s`` is CPU-bound
#: too, but a set-up time must be gated: it has the largest bound.
END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "server spawn to the 200 of the first whole-fleet forecast "
        "(CSV load, preload ingest, recovery and its first checkpoint, "
        "lazy training); median of the run's set-ups",
    ),
    Metric(
        "read_p50_ms", "ms", "lower", 0.25,
        "median read latency, from due time, at the steady rate",
    ),
    Metric(
        "rss_peak_mb", "MB", "lower", 0.1,
        "server VmHWM just before shutdown",
    ),
)


_ALL = tuple(WORKLOADS)
_PREDICT = ("predict-one", "predict-fleet")
_INGEST = ("ingest-backfill", "cycle-rollover")

#: Reported by ``run.py`` and compared by ``compare.py`` for the
#: workloads that have them, not gated: ``(metric, workloads)``.
REPORTED: tuple[tuple[Metric, tuple[str, ...]], ...] = (
    (
        Metric(
            "read_tail_ms", "ms", "lower", 0.25,
            "read latency at the steady rate at the highest percentile (at "
            "most p99) with at least 10 reads beyond it",
        ),
        _ALL,
    ),
    (
        Metric(
            "cpu_ms_per_op", "ms", "lower", 0.25,
            "server utime+stime over the measured phases per read or ingest "
            "post served (cost per core)",
        ),
        _ALL,
    ),
    (
        Metric(
            "peak_read_p50_ms", "ms", "lower", 0.2,
            "median read latency at the peak rate",
        ),
        _PREDICT,
    ),
    (
        Metric(
            "read_max_rate_rps", "req/s", "higher", 0.25,
            "highest rate of the steady, peak, ladder sequence with zero "
            "failures that meets the SLO (p99 <= 50 ms single reads, "
            "p95 <= 150 ms depot reads)",
        ),
        _PREDICT,
    ),
    (
        Metric(
            "ingest_ack_p50_ms", "ms", "lower", 0.25,
            "median due time to the 200 of /v1/ingest",
        ),
        _INGEST,
    ),
    (
        Metric(
            "ingest_ack_tail_ms", "ms", "lower", 0.25,
            "ingest ack latency at the tail percentile",
        ),
        ("ingest-backfill",),
    ),
    (
        Metric(
            "cycle_to_champion_p50_s", "s", "lower", 0.25,
            "due time of the ingest closing a cycle to the first GET of that "
            "vehicle serving a newer model_version",
        ),
        ("cycle-rollover",),
    ),
    (
        Metric(
            "failed_share", "ratio", "lower", 0.0,
            "failed ops (non-2xx, connection errors, forecast mismatches) "
            "over attempted ops",
        ),
        _ALL,
    ),
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric of the traced run.

    ``moves`` is the end-to-end metric it should move; ``works_in`` and
    ``idle_in`` name the workloads where the layer does most of its work
    and where it should not matter.  ``every_workload`` marks the
    metrics defined in every workload: the traced run's JSON result line
    carries those.  Timings of layers idle in some workload appear only in
    the printed table.
    """

    name: str
    unit: str
    better: str
    moves: str
    works_in: str
    idle_in: str
    every_workload: bool = True


def _layer(name, unit, better, moves, works_in, idle_in="-", every_workload=True):
    return LayerMetric(name, unit, better, moves, works_in, idle_in, every_workload)


_EVERY = "all"
_READS = "predict-one, predict-fleet"
_WRITES = "ingest-backfill, cycle-rollover"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _layer("loadgen.send_lag_p99_ms", "ms", "lower", "sanity", _EVERY),
    _layer("transport.residual_p50_ms", "ms", "lower", "sanity", _EVERY),
    _layer("gateway.request_p50_ms", "ms", "lower", "read_p50_ms", _READS),
    _layer("gateway.self_p50_ms", "ms", "lower", "read_p50_ms", _READS),
    _layer("gateway.self_p99_ms", "ms", "lower", "read_max_rate_rps", _READS),
    _layer("gateway.coalesced_per_batch", "count", "higher", "read_max_rate_rps", _READS),
    _layer("gateway.to_dict_p50_us", "us", "lower", "read_p50_ms", "predict-fleet"),
    _layer("gateway.encode_p50_us", "us", "lower", "read_p50_ms", "predict-fleet"),
    _layer("engine.predict_many_calls", "count", "lower", "read_max_rate_rps", _EVERY),
    _layer("engine.predict_many_p50_ms", "ms", "lower", "read_p50_ms", _EVERY),
    _layer("engine.refresh_p50_ms", "ms", "lower", "read_tail_ms", "cycle-rollover, ingest-backfill", "predict-fleet"),
    _layer("engine.refresh_max_ms", "ms", "lower", "cycle_to_champion_p50_s", "cycle-rollover", "predict-fleet"),
    _layer("engine.ingest_busy_pct", "%", "lower", "ingest_ack_p50_ms", _WRITES, _READS),
    _layer("engine.ingest_records_p50_ms", "ms", "lower", "ingest_ack_p50_ms", _WRITES, _READS, False),
    _layer("engine.ingest_records_p99_ms", "ms", "lower", "ingest_ack_tail_ms", _WRITES, _READS, False),
    _layer("service.predict_batch_p50_ms", "ms", "lower", "read_p50_ms", "predict-fleet", "predict-one"),
    _layer("service.route_us_per_vehicle", "us", "lower", "read_p50_ms", "predict-fleet", "predict-one"),
    _layer("service.ingests", "count", "lower", "ingest_ack_p50_ms", _WRITES, _READS),
    _layer("service.ingest_p50_us", "us", "lower", "ingest_ack_p50_ms", _WRITES, _READS, False),
    _layer("kernel.calls_per_batch", "count", "lower", "read_p50_ms", "predict-fleet", "predict-one"),
    _layer("kernel.rows_per_call", "rows/call", "higher", "peak_read_p50_ms", "predict-fleet", "predict-one"),
    _layer("kernel.busy_pct", "%", "lower", "read_p50_ms", _READS, "ingest-backfill"),
    _layer("kernel.us_per_row", "us", "lower", "read_p50_ms", _READS, "ingest-backfill", False),
    _layer("train.fits", "count", "lower", "read_tail_ms", "cycle-rollover", _READS),
    _layer("train.fits_on_read_path", "count", "lower", "cycle_to_champion_p50_s", "cycle-rollover", _READS),
    _layer("train.busy_pct", "%", "lower", "read_tail_ms", "cycle-rollover", _READS),
    _layer("train.fit_p50_ms", "ms", "lower", "cycle_to_champion_p50_s", "cycle-rollover", _READS, False),
    _layer("store.saves", "count", "lower", "cycle_to_champion_p50_s", "cycle-rollover", "others"),
    _layer("store.loads_on_read_path", "count", "lower", "read_tail_ms", "cycle-rollover", "others"),
    _layer("store.busy_pct", "%", "lower", "cycle_to_champion_p50_s", "cycle-rollover", "others"),
    _layer("store.save_p50_ms", "ms", "lower", "cycle_to_champion_p50_s", "cycle-rollover", "others", False),
    _layer("journal.appends", "count", "lower", "ingest_ack_p50_ms", "ingest-backfill", _READS),
    _layer("journal.fsyncs", "count", "lower", "ingest_ack_tail_ms", "ingest-backfill", _READS),
    _layer("journal.undurable_at_ack_max", "count", "lower", "ingest_ack_p50_ms", "ingest-backfill", _READS),
    _layer("journal.busy_pct", "%", "lower", "ingest_ack_p50_ms", "ingest-backfill", _READS),
    _layer("journal.append_p50_us", "us", "lower", "ingest_ack_p50_ms", "ingest-backfill", _READS, False),
    _layer("journal.append_p99_us", "us", "lower", "ingest_ack_tail_ms", "ingest-backfill", _READS, False),
    _layer("checkpoint.count", "count", "lower", "read_tail_ms", "ingest-backfill", _READS),
    _layer("checkpoint.bytes", "bytes", "lower", "read_tail_ms", "ingest-backfill", _READS),
    _layer("checkpoint.busy_pct", "%", "lower", "read_tail_ms", "ingest-backfill", _READS),
    _layer("checkpoint.p50_ms", "ms", "lower", "read_tail_ms", "ingest-backfill", _READS, False),
    _layer("checkpoint.max_ms", "ms", "lower", "read_tail_ms", "ingest-backfill", _READS, False),
)
