"""Thread-safe metrics primitives shared across the serving stack.

Before this module existed the repo had four disconnected telemetry
surfaces (gateway counters, fleet-health counters, drift alerts,
experiment timings), each with its own ad-hoc storage and no
thread-safety story.  :class:`MetricsRegistry` is the single
instrumentation layer they are rewired onto:

* **counters** — monotonically increasing integers (requests served,
  readings rejected, residuals resolved);
* **gauges** — last-value or high-water-mark numbers (queue depth);
* **histograms** — streaming summaries with exact count/mean/max and
  percentile estimates from a bounded reservoir (latency, batch sizes,
  per-stage durations).

Every metric is identified by a name plus an optional label set
(``registry.counter("gateway.requests", endpoint="predict")``), and all
mutation and snapshotting happens under one registry-wide re-entrant
lock, so a :meth:`MetricsRegistry.snapshot` taken mid-storm is a
consistent point-in-time view — a counter can never appear to lose an
increment, and a high-water gauge can never read below a depth that was
recorded before the snapshot began.

Subsystems that keep their own state (fleet health, drift monitor,
kernel cache) plug in as *collectors*: callables invoked at snapshot
time whose dict result appears as a named section of the snapshot.
Stdlib-only; no numpy.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = [
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Snapshot keys reserved for the registry's own metric kinds —
#: collectors may not shadow them.
_RESERVED_SECTIONS = ("counters", "gauges", "histograms")


def percentile(ordered: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending-sorted sample.

    This is the estimator the gateway has always served (previously the
    private ``gateway._percentile``): index ``round(q*n + 0.5) - 1``
    clamped into the sample, i.e. nearest-rank with Python's
    round-half-even tie handling.  The result is always an element of
    ``ordered``, so it is bounded by ``min``/``max`` and monotone in
    ``q`` (the property suite pins both).

    Raises ``ValueError`` on an empty sample — there is no percentile
    of nothing (callers with a zero count short-circuit before here).
    """
    if not ordered:
        raise ValueError("percentile() of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}.")
    index = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[index]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock | None = None):
        self._lock = lock or threading.RLock()
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"Counters only go up; got increment {n}.")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time number; supports plain set and high-water max."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock | None = None):
        self._lock = lock or threading.RLock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def update_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark.

        The compare-and-set runs under the lock, so concurrent callers
        can never regress the mark (the race the old event-loop-only
        ``GatewayMetrics.note_queue_depth`` had when called off-loop).
        """
        with self._lock:
            if value > self.value:
                self.value = value


class Histogram:
    """Streaming summary: exact count/mean/max, percentile estimates
    from a bounded reservoir of the most recent samples.

    The summary shape (``count``/``mean``/``max``/``p50``/``p95``/
    ``p99``) is what ``/v1/metrics`` has always served for latency and
    batch-size distributions.
    """

    __slots__ = ("_lock", "count", "total", "peak", "_samples")

    def __init__(
        self,
        sample_cap: int = 8192,
        lock: threading.RLock | None = None,
    ):
        if sample_cap < 1:
            raise ValueError(f"sample_cap must be >= 1, got {sample_cap}.")
        self._lock = lock or threading.RLock()
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._samples: deque[float] = deque(maxlen=sample_cap)

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.peak:
                self.peak = value
            self._samples.append(value)

    def summary(self) -> dict:
        with self._lock:
            if not self.count:
                return {"count": 0}
            ordered = sorted(self._samples)
            return {
                "count": self.count,
                "mean": self.total / self.count,
                "max": self.peak,
                "p50": percentile(ordered, 0.50),
                "p95": percentile(ordered, 0.95),
                "p99": percentile(ordered, 0.99),
            }


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_name(name: str, key: tuple) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """The consolidated, thread-safe metrics surface.

    Metric handles are created on demand and cached by (name, labels);
    repeated lookups return the same object, so hot paths can either
    hold the handle or re-resolve it — both are safe from any thread.
    All metrics share the registry's single re-entrant lock, which also
    guards :meth:`snapshot`, making snapshots internally consistent.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._counters: dict[str, dict[tuple, Counter]] = {}
        self._gauges: dict[str, dict[tuple, Gauge]] = {}
        self._histograms: dict[str, dict[tuple, Histogram]] = {}
        self._collectors: dict[str, object] = {}

    # -- handle factories --------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(self._histograms, Histogram, name, labels)

    def _get_or_create(self, table: dict, factory, name: str, labels: dict):
        key = _labels_key(labels)
        with self.lock:
            series = table.setdefault(name, {})
            metric = series.get(key)
            if metric is None:
                metric = series[key] = factory(lock=self.lock)
            return metric

    # -- label-series views ------------------------------------------------

    def labeled(self, name: str) -> list[tuple[dict, object]]:
        """All (labels, metric) pairs stored under ``name``, any kind."""
        with self.lock:
            out = []
            for table in (self._counters, self._gauges, self._histograms):
                for key, metric in table.get(name, {}).items():
                    out.append((dict(key), metric))
            return out

    # -- collectors --------------------------------------------------------

    def register_collector(
        self, name: str, fn, *, replace: bool = False
    ) -> None:
        """Attach a callable whose dict result becomes a snapshot section.

        Collectors are how stateful subsystems (fleet health, drift
        monitor, kernel cache) surface their counters without being
        polled by every mutation.
        """
        if name in _RESERVED_SECTIONS:
            raise ValueError(
                f"Collector name {name!r} shadows a reserved section."
            )
        with self.lock:
            if name in self._collectors and not replace:
                raise ValueError(f"Collector {name!r} already registered.")
            self._collectors[name] = fn

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict:
        """One consistent, JSON-ready view of every metric and collector.

        Shape::

            {
              "counters":   {"name{label=v}": int, ...},
              "gauges":     {...},
              "histograms": {"name{label=v}": {count, mean, max, p50, p95, p99}},
              "<collector>": {...},   # one section per registered collector
            }
        """
        with self.lock:
            out: dict = {
                "counters": {
                    _render_name(name, key): metric.value
                    for name, series in sorted(self._counters.items())
                    for key, metric in sorted(series.items())
                },
                "gauges": {
                    _render_name(name, key): metric.value
                    for name, series in sorted(self._gauges.items())
                    for key, metric in sorted(series.items())
                },
                "histograms": {
                    _render_name(name, key): metric.summary()
                    for name, series in sorted(self._histograms.items())
                    for key, metric in sorted(series.items())
                },
            }
            for name, fn in sorted(self._collectors.items()):
                out[name] = fn()
            return out
