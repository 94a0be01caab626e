"""Unified observability for the serving stack (``repro.obs``).

One stdlib-only subsystem replacing the four disconnected telemetry
surfaces the repo grew across PRs 1–3:

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe counters,
  gauges and histograms (with the exact-quantile summary formerly
  private to the gateway), plus collector hooks through which fleet
  health, drift and kernel-cache statistics join the consolidated
  ``/v1/metrics`` snapshot;
* :class:`~repro.obs.tracing.Tracer` — per-request structured trace
  spans propagated from the gateway's HTTP handler through the
  micro-batch dispatcher, ``FleetEngine.predict_many``, the Section-4
  strategy ladder and ``ModelStore`` reads, served by
  ``GET /v1/trace/{request_id}``;
* :class:`~repro.obs.events.EventLog` — a bounded ring of structured
  records exported as JSON lines (``repro obs`` CLI subcommand);
* :class:`Observability` — the facade bundling the three, with
  :meth:`Observability.stage` as the per-stage profiling hook
  (ingest / feature-build / train / predict).

Everything no-ops cheaply when not attached: services take
``obs=None`` by default and tracing hooks return immediately without
an active span.  The gateway head-samples anonymous traffic (1-in-N;
client-identified requests always traced) and the gateway bench pins
the overhead of that default at under 5 % of throughput, with
forecasts bit-identical whether tracing records or not.
"""

from __future__ import annotations

import time

from . import tracing
from .events import EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from .tracing import Span, Tracer, activate, add_event, current_span, span

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_STAGE",
    "Observability",
    "Span",
    "Tracer",
    "activate",
    "add_event",
    "current_span",
    "percentile",
    "span",
    "tracing",
]

#: Histogram name under which stage durations land in the registry
#: (labelled by stage, e.g. ``stage_seconds{stage=train}``).
STAGE_HISTOGRAM = "stage_seconds"


class _NullStage:
    """Do-nothing stage timer for the ``obs is None`` fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


#: Shared no-op stage: ``with (obs.stage(...) if obs else NULL_STAGE):``
NULL_STAGE = _NullStage()


class _StageTimer:
    """Times one pipeline stage; records on exit.

    On exit it (1) records the duration into the registry's
    ``stage_seconds{stage=...}`` histogram, (2) emits one ``stage``
    record to the event log, and (3) stamps a ``stage_ms:<name>``
    attribute onto the active trace span, if any.  An attribute, not a
    span event: stage timers sit on the per-prediction hot path, and a
    dict store is several times cheaper than allocating an event
    record (the gateway bench holds tracing to < 5% throughput).
    """

    __slots__ = ("_obs", "_name", "_fields", "_t0")

    def __init__(self, obs: "Observability", name: str, fields: dict):
        self._obs = obs
        self._name = name
        self._fields = fields

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._t0
        obs = self._obs
        ms = round(elapsed * 1e3, 3)
        obs.registry.histogram(STAGE_HISTOGRAM, stage=self._name).record(
            elapsed
        )
        obs.events.emit("stage", stage=self._name, ms=ms, **self._fields)
        span = tracing.current_span()
        if span is not None:
            span.set_attribute(f"stage_ms:{self._name}", ms)
        return False


class Observability:
    """Facade bundling the metrics registry, tracer and event log.

    One instance is shared by a gateway, its engine and the service
    underneath, so every layer writes into the same registry and the
    same trace store.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ):
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer()
        self.events = events or EventLog()
        self.registry.register_collector(
            "tracing", self.tracer.stats, replace=True
        )
        self.registry.register_collector(
            "events", self.events.stats, replace=True
        )

    def stage(self, name: str, **fields):
        """Context manager timing one pipeline stage.

        The canonical stages are ``ingest``, ``feature-build``,
        ``train`` and ``predict``; extra keyword fields (vehicle id,
        batch size) are carried on the event-log record only, not as
        histogram labels.
        """
        return _StageTimer(self, name, fields)

    def stage_summaries(self) -> dict[str, dict]:
        """Per-stage duration summaries from the registry histograms."""
        return {
            labels["stage"]: histogram.summary()
            for labels, histogram in self.registry.labeled(STAGE_HISTOGRAM)
            if "stage" in labels
        }
