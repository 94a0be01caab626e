"""Async HTTP gateway: the network entry point of the fleet service.

The paper's deployment serves per-vehicle ``D̂_v(t)`` forecasts to
operators every day; until now the reproduction could only do that
in-process.  :class:`FleetGateway` puts a stdlib-only asyncio
JSON-over-HTTP front end on :class:`~repro.serving.engine.FleetEngine`:

``POST /v1/ingest``
    One day of utilization, single reading or batch.  On a durable
    engine the reply (200 or 422) leaves only once every reading it
    applied is fsynced.
``GET /v1/predict/{vehicle_id}``
    Forecast for one vehicle (``?deadline_ms=`` overrides the default
    per-request deadline).
``POST /v1/predict:batch``
    Forecasts for many vehicles in one request.
``GET /v1/health``
    The engine's :class:`~repro.serving.reliability.FleetHealth`
    report with the gateway's own counters attached.
``GET /v1/metrics``
    The consolidated :class:`~repro.obs.MetricsRegistry` snapshot:
    gateway request/error/queue/batch/latency counters plus the fleet
    health, drift, kernel, tracing and profiling sections.
``GET /v1/trace/{request_id}``
    The recorded trace (spans + events) of one earlier request.
``GET /v1/lifecycle``
    The lifecycle controller's admin view: policy, counters,
    per-vehicle versions/pins/drift, recent decisions (503 when no
    :class:`~repro.lifecycle.LifecycleController` is attached).
``POST /v1/lifecycle/run``
    One lifecycle sweep: evaluate every due candidate now.
``POST /v1/lifecycle/{vehicle_id}/{promote|rollback|pin|unpin}``
    Operator actions.  ``promote`` forces one evaluation-gated
    challenger run; ``rollback`` reverts to a prior stored version
    (newest-prior default, optional ``{"version": n, "quarantine":
    true}`` body); ``pin`` requires ``{"version": n}``; all accept an
    optional ``"reason"``.

Three serving-layer mechanisms make it production-shaped:

* **Micro-batching** — the dispatcher is work-conserving: it never
  waits for company.  It takes the first queued predict request plus
  whatever else is already queued (up to ``max_batch_size``) and
  hands them to one
  :meth:`~repro.serving.engine.FleetEngine.predict_many` call at once;
  requests that arrive while the engine thread runs that call form
  the next batch.  So an idle gateway answers a lone read with no
  added wait, and a loaded one batches as deeply as its backlog.  A
  ``predict:batch`` request is admitted in one pass: its ids queue in
  order without an await between them (no task per vehicle), so the
  depot read lands in one call, and each refused id is answered in
  its own slot.  ``max_queue`` still bounds vehicles, not requests.  A
  single dispatcher drains the queue, so forecasts stay bit-identical
  to serial :meth:`~repro.serving.service.MaintenancePredictionService.
  predict` calls (the gateway test suite pins this with exact
  equality); batching only amortizes the per-request dispatch cost.
* **Admission control** — the request queue is bounded: when full, the
  gateway answers ``429`` with ``Retry-After`` instead of queueing
  unboundedly.  Every predict request carries a deadline; a request
  whose deadline passed while queued is answered ``504`` at dispatch
  time and never occupies a batch slot.
* **Graceful drain** — shutdown stops accepting work (``503``),
  flushes queued and in-flight batches, then waits for
  :meth:`FleetEngine.drain`.

All engine state mutations (ingest and predict batches) run on one
dedicated worker thread, so HTTP concurrency can never interleave with
the engine's single-threaded correctness contract.

**Sharded serving** — in front of a :class:`~repro.serving.sharding.
ShardedFleetEngine` the gateway runs one *lane* per shard: a private
micro-batch queue, dispatcher task and engine thread, so a slow shard
head-of-line-blocks only its own vehicles.  Predict requests route to
their vehicle's lane by the engine's consistent-hash router and are
validated against the parent's routing bookkeeping (no cross-process
round trip before admission); fleet-wide endpoints (``/v1/health`` —
also reachable as ``/v1/fleet/health`` — ``/v1/metrics`` and the
lifecycle admin surface) scatter-gather over every shard.  Batch and
queue metrics then carry a ``shard`` label and predict spans a
``shard`` attribute.  With a plain :class:`FleetEngine` there is
exactly one lane and behavior is unchanged.

Every request is assigned a request id (client-supplied via the
``X-Repro-Request-Id`` header, else generated) that is echoed on the
response and — when tracing is enabled — keys a structured trace
spanning the whole serving path, down to the strategy ladder and model
store.  Tracing only records; forecasts are bit-identical with it on
or off, and the load bench pins its overhead below 5 %.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import random
import re
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from urllib.parse import parse_qs, unquote, urlsplit

from ..obs import MetricsRegistry, Observability, tracing
from .engine import FleetEngine
from .service import Forecast

__all__ = [
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayResponse",
    "FleetGateway",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header flagging a degraded (ladder-fallback) forecast in the body.
DEGRADED_HEADER = "X-Repro-Degraded"

#: Header carrying the request id; echoed on every response, accepted
#: from the client to correlate traces across systems.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Accepted shape of a client-supplied request id.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs of the gateway.

    Attributes
    ----------
    host / port:
        Bind address for :meth:`FleetGateway.serve` (port 0 picks a
        free one).
    max_batch_size:
        Hard cap on requests per ``predict_many`` call.  ``1``
        dispatches each predict request alone (the no-batching
        reference schedule).
    max_queue:
        Bound on queued predict requests; beyond it the gateway
        answers ``429``.
    retry_after_max_s:
        Upper bound (seconds) of the jittered ``Retry-After`` value on
        ``429`` responses — each rejection draws uniformly from
        ``[1, retry_after_max_s]`` so a burst of rejected clients does
        not retry in one synchronized thundering herd.
    default_deadline_s:
        Per-request deadline when the client sends none.
    auto_register:
        Register unknown vehicles on first ingest instead of ``404``.
    drain_timeout_s:
        How long :meth:`FleetGateway.shutdown` waits for queued and
        in-flight work before failing the remainder with ``503``.
    max_body_bytes:
        Request body cap (``413`` beyond it).
    tracing:
        Record structured traces (served by
        ``/v1/trace/{request_id}``).  Request ids are assigned and
        echoed either way; only span recording is gated.
    trace_sample_every:
        Head-sampling rate for *anonymous* requests: one in every N is
        traced.  A request that supplies its own well-formed
        ``X-Repro-Request-Id`` is **always** traced — the client that
        names a request is the client that will fetch its trace — so
        tests and debugging sessions get full fidelity while steady-
        state anonymous traffic pays the span machinery only 1-in-N
        times.  ``1`` traces everything.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch_size: int = 64
    max_queue: int = 256
    retry_after_max_s: int = 3
    default_deadline_s: float = 5.0
    auto_register: bool = True
    drain_timeout_s: float = 5.0
    max_body_bytes: int = 1_048_576
    tracing: bool = True
    trace_sample_every: int = 8

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}."
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}.")
        if self.retry_after_max_s < 1:
            raise ValueError(
                f"retry_after_max_s must be >= 1, "
                f"got {self.retry_after_max_s}."
            )
        if self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}."
            )
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}."
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}."
            )
        if self.trace_sample_every < 1:
            raise ValueError(
                f"trace_sample_every must be >= 1, "
                f"got {self.trace_sample_every}."
            )


class GatewayMetrics:
    """The gateway's operational counters, rewired onto a registry.

    Every counter, gauge and histogram lives in a shared
    :class:`~repro.obs.MetricsRegistry` under ``gateway.*`` names, so
    recording is thread-safe (the registry's lock guards each
    mutation) and :meth:`snapshot` is a consistent point-in-time view.
    The snapshot keeps the shape ``/v1/metrics`` has always served for
    the gateway section, and is what
    :class:`~repro.serving.reliability.FleetHealth` carries as its
    ``gateway`` field.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self.batch_sizes = self.registry.histogram("gateway.batch_size")
        self.batch_exec = self.registry.histogram("gateway.batch_exec_s")
        self._queue_high_water = self.registry.gauge(
            "gateway.queue_high_water"
        )
        self._queue_rejections = self.registry.counter(
            "gateway.queue_rejections"
        )
        self._deadline_expirations = self.registry.counter(
            "gateway.deadline_expirations"
        )

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        registry = self.registry
        with registry.lock:
            registry.counter("gateway.requests", endpoint=endpoint).inc()
            if status >= 400:
                registry.counter("gateway.errors", endpoint=endpoint).inc()
            registry.counter(
                "gateway.responses", endpoint=endpoint, status=str(status)
            ).inc()
            registry.histogram(
                "gateway.latency_s", endpoint=endpoint
            ).record(seconds)

    def observe_batch(
        self, size: int, seconds: float, *, shard: int | None = None
    ) -> None:
        self.batch_sizes.record(size)
        self.batch_exec.record(seconds)
        if shard is not None:
            label = str(shard)
            self.registry.histogram(
                "gateway.shard_batch_size", shard=label
            ).record(size)
            self.registry.histogram(
                "gateway.shard_batch_exec_s", shard=label
            ).record(seconds)

    def note_queue_depth(self, depth: int, *, shard: int | None = None) -> None:
        self._queue_high_water.update_max(depth)
        if shard is not None:
            self.registry.gauge(
                "gateway.shard_queue_high_water", shard=str(shard)
            ).update_max(depth)

    def note_queue_rejection(self, *, shard: int | None = None) -> None:
        self._queue_rejections.inc()
        if shard is not None:
            self.registry.counter(
                "gateway.shard_queue_rejections", shard=str(shard)
            ).inc()

    def note_deadline_expiration(self) -> None:
        self._deadline_expirations.inc()

    # Former plain-attribute counters, kept readable for tests/tools.

    @property
    def queue_high_water(self) -> int:
        return int(self._queue_high_water.value)

    @property
    def queue_rejections(self) -> int:
        return self._queue_rejections.value

    @property
    def deadline_expirations(self) -> int:
        return self._deadline_expirations.value

    def snapshot(self) -> dict:
        registry = self.registry
        with registry.lock:
            requests = {
                labels["endpoint"]: counter.value
                for labels, counter in registry.labeled("gateway.requests")
            }
            errors = {
                labels["endpoint"]: counter.value
                for labels, counter in registry.labeled("gateway.errors")
            }
            responses: dict[str, dict[str, int]] = {}
            for labels, counter in registry.labeled("gateway.responses"):
                responses.setdefault(labels["endpoint"], {})[
                    labels["status"]
                ] = counter.value
            latency = {
                labels["endpoint"]: histogram.summary()
                for labels, histogram in registry.labeled("gateway.latency_s")
            }
            return {
                "requests": dict(sorted(requests.items())),
                "errors": dict(sorted(errors.items())),
                "responses": {
                    endpoint: dict(sorted(codes.items()))
                    for endpoint, codes in sorted(responses.items())
                },
                "latency_s": dict(sorted(latency.items())),
                "batch": {
                    "sizes": self.batch_sizes.summary(),
                    "exec_s": self.batch_exec.summary(),
                },
                "queue_high_water": self.queue_high_water,
                "queue_rejections": self.queue_rejections,
                "deadline_expirations": self.deadline_expirations,
                **self._shard_section(),
            }

    def _shard_section(self) -> dict:
        """Per-shard lane counters; empty (key omitted) when unsharded."""
        registry = self.registry
        shards: dict[str, dict] = {}
        for labels, histogram in registry.labeled("gateway.shard_batch_size"):
            shards.setdefault(labels["shard"], {})["batch_sizes"] = (
                histogram.summary()
            )
        for labels, histogram in registry.labeled(
            "gateway.shard_batch_exec_s"
        ):
            shards.setdefault(labels["shard"], {})["batch_exec_s"] = (
                histogram.summary()
            )
        for labels, gauge in registry.labeled("gateway.shard_queue_high_water"):
            shards.setdefault(labels["shard"], {})["queue_high_water"] = int(
                gauge.value
            )
        for labels, counter in registry.labeled(
            "gateway.shard_queue_rejections"
        ):
            shards.setdefault(labels["shard"], {})["queue_rejections"] = (
                counter.value
            )
        if not shards:
            return {}
        return {"shards": dict(sorted(shards.items(), key=lambda i: int(i[0])))}


@dataclass
class GatewayResponse:
    """One JSON response: status, payload, extra headers."""

    status: int
    payload: dict
    headers: dict[str, str] = field(default_factory=dict)

    def body(self) -> bytes:
        return json.dumps(self.payload).encode("utf-8")

    def encode(self, *, keep_alive: bool = True) -> bytes:
        body = self.body()
        reason = _REASONS.get(self.status, "Unknown")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
            **self.headers,
        }
        head = f"HTTP/1.1 {self.status} {reason}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        return (head + "\r\n").encode("latin-1") + body


class _RequestError(Exception):
    """An HTTP error outcome raised inside a handler."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}

    def response(self) -> GatewayResponse:
        return GatewayResponse(
            self.status, {"error": self.message}, dict(self.headers)
        )


@dataclass
class _PendingPredict:
    """A queued predict request awaiting its micro-batch."""

    vehicle_id: str
    future: asyncio.Future
    deadline: float  # loop.time() value
    span: tracing.Span | None = None  # the enqueuing request's root span


@dataclass
class _Lane:
    """One shard's serving lane: queue + dispatcher + engine thread.

    A plain (unsharded) engine gets exactly one lane, so the historic
    single-queue/single-worker schedule is the one-lane special case.
    Each lane owns a private micro-batch queue and a one-thread pool,
    so one slow shard delays only the vehicles it owns.
    """

    shard: int
    queue: asyncio.Queue
    pool: ThreadPoolExecutor
    dispatcher: asyncio.Task | None = None
    inflight: list = field(default_factory=list)


def _endpoint_label(method: str, path: str) -> str:
    if path.startswith("/v1/predict/"):
        return "predict"
    if path == "/v1/predict:batch":
        return "predict:batch"
    if path == "/v1/ingest":
        return "ingest"
    if path in ("/v1/health", "/v1/fleet/health"):
        return "health"
    if path == "/v1/metrics":
        return "metrics"
    if path.startswith("/v1/trace/"):
        return "trace"
    if path == "/v1/lifecycle" or path.startswith("/v1/lifecycle/"):
        return "lifecycle"
    return "other"


class FleetGateway:
    """Asyncio JSON-over-HTTP gateway in front of a :class:`FleetEngine`.

    Use :meth:`handle_request` directly (no sockets needed — the test
    suite and embedding applications drive it this way), or
    :meth:`serve` to bind a real listening socket.  Either way call
    :meth:`start` first and :meth:`shutdown` when done.
    """

    def __init__(
        self,
        engine: FleetEngine,
        config: GatewayConfig | None = None,
        obs: Observability | None = None,
    ):
        self.engine = engine
        self.config = config or GatewayConfig()
        # One Observability instance spans gateway, engine and service:
        # reuse whatever the engine already carries, else attach ours.
        self.obs = obs or getattr(engine, "obs", None) or Observability()
        self.obs.tracer.enabled = self.config.tracing
        engine.attach_observability(self.obs)
        self.metrics = GatewayMetrics(self.obs.registry)
        self.obs.registry.register_collector(
            "gateway", self.metrics.snapshot, replace=True
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        # One lane per shard; a plain engine is the one-lane case.
        # ``n_shards``/``shard_for`` duck-type the sharded facade so the
        # gateway works with any engine exposing the routing surface.
        self._n_shards = int(getattr(engine, "n_shards", 1))
        self._shard_for = getattr(engine, "shard_for", lambda vehicle_id: 0)
        self._lanes: list[_Lane] = []
        self._draining = False
        self._started = False
        # Head-sampling tick for anonymous requests (GIL-atomic).
        self._trace_tick = itertools.count()
        # Seeded jitter stream for 429 Retry-After values: spreads
        # rejected clients' retries without breaking reproducibility.
        self._retry_rng = random.Random(0x52455052)
        self.address: tuple[str, int] | None = None

    def _retry_after(self) -> dict[str, str]:
        """A jittered ``Retry-After`` header for back-pressure replies."""
        return {
            "Retry-After": str(
                self._retry_rng.randint(1, self.config.retry_after_max_s)
            )
        }

    def _check_ready(self) -> None:
        """503 while the engine's durability layer is still recovering."""
        durability = getattr(self.engine, "durability", None)
        if durability is not None and not durability.ready:
            raise _RequestError(
                503,
                "service is recovering; journal replay in progress",
                {"Retry-After": "1"},
            )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, dispatch: bool = True) -> None:
        """Create the queue and worker; optionally start dispatching.

        ``dispatch=False`` leaves the micro-batch dispatcher stopped
        (requests queue up but are not executed) — the admission /
        deadline tests rely on this; call :meth:`start_dispatcher` to
        begin draining.
        """
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        # ``max_queue`` bounds each lane: admission control is per
        # shard, so one hot shard back-pressures only its own vehicles.
        self._lanes = [
            _Lane(
                shard=shard,
                queue=asyncio.Queue(maxsize=self.config.max_queue),
                pool=ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"gateway-engine-{shard}",
                ),
            )
            for shard in range(self._n_shards)
        ]
        self._draining = False
        self._started = True
        if dispatch:
            self.start_dispatcher()

    def start_dispatcher(self) -> None:
        if not self._started:
            raise RuntimeError("start() the gateway first.")
        for lane in self._lanes:
            if lane.dispatcher is None or lane.dispatcher.done():
                lane.dispatcher = self._loop.create_task(
                    self._dispatch_loop(lane)
                )

    async def serve(
        self, *, host: str | None = None, port: int | None = None
    ) -> tuple[str, int]:
        """Bind the listening socket; returns the bound (host, port)."""
        await self.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host if host is not None else self.config.host,
            self.config.port if port is None else port,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def run(self) -> None:
        """Serve until cancelled, then drain gracefully (CLI entry)."""
        await self.serve()
        await self.run_until_closed()

    async def run_until_closed(self) -> None:
        """Block on the already-bound socket until cancelled, then drain."""
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally flush queued + in-flight work.

        After the drain timeout (or with ``drain=False``) any still
        unanswered predict request fails with ``503``.
        """
        if not self._started:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            with suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        if drain:
            deadline = self._loop.time() + self.config.drain_timeout_s
            while (
                any(
                    not lane.queue.empty() or lane.inflight
                    for lane in self._lanes
                )
                and self._loop.time() < deadline
            ):
                await asyncio.sleep(0.002)
        for lane in self._lanes:
            if lane.dispatcher is not None:
                lane.dispatcher.cancel()
                with suppress(asyncio.CancelledError):
                    await lane.dispatcher
                lane.dispatcher = None
        leftovers: list[_PendingPredict] = []
        for lane in self._lanes:
            leftovers.extend(lane.inflight)
            while not lane.queue.empty():
                leftovers.append(lane.queue.get_nowait())
            lane.inflight = []
        for request in leftovers:
            if not request.future.done():
                request.future.set_exception(
                    _RequestError(503, "gateway shut down")
                )
        await self._loop.run_in_executor(
            self._lanes[0].pool, self.engine.drain
        )
        for lane in self._lanes:
            lane.pool.shutdown(wait=True)
        self._lanes = []
        self._started = False

    @property
    def draining(self) -> bool:
        return self._draining

    async def _engine_call(self, fn, *args):
        """Run an engine/service call off the event loop.

        Unsharded, everything runs on lane 0's single worker thread —
        serializing *every* state-touching call through one thread is
        what keeps HTTP concurrency equivalent to a serial schedule.
        Sharded, lane 0 hosts only the facade's scatter-gather calls
        (each worker process serializes its own RPCs), so admin reads
        never block a predict lane.  The caller's :mod:`contextvars`
        context (which carries the active trace span) crosses into the
        worker with the call.
        """
        ctx = contextvars.copy_context()
        return await self._loop.run_in_executor(
            self._lanes[0].pool, partial(ctx.run, fn, *args)
        )

    # -- engine-shape helpers (plain vs sharded) --------------------------

    def _has_vehicle(self, vehicle_id: str) -> bool:
        if self._n_shards > 1:
            return self.engine.has_vehicle(vehicle_id)
        return self.engine.service.has_vehicle(vehicle_id)

    def _observed_days(self, vehicle_id: str) -> int:
        if self._n_shards > 1:
            return self.engine.n_days(vehicle_id)
        return self.engine.service.n_days(vehicle_id)

    @property
    def _window(self) -> int:
        if self._n_shards > 1:
            return self.engine.window
        return self.engine.service.window

    # -- micro-batching dispatcher ----------------------------------------

    async def _dispatch_loop(self, lane: _Lane) -> None:
        queue, cap = lane.queue, self.config.max_batch_size
        while True:
            # Work-conserving: block for the first request only, then
            # take what is already queued and dispatch at once.  Requests
            # that arrive while the engine thread runs this batch form
            # the next one.  Track the batch from the instant it leaves
            # the queue so a concurrent drain waits for it.
            lane.inflight = batch = [await queue.get()]
            try:
                while len(batch) < cap and not queue.empty():
                    batch.append(queue.get_nowait())
                await self._execute_batch(lane, batch)
            except asyncio.CancelledError:
                for queued in batch:
                    if not queued.future.done():
                        queued.future.set_exception(
                            _RequestError(503, "gateway shut down mid-batch")
                        )
                raise
            finally:
                lane.inflight = []

    async def _execute_batch(
        self, lane: _Lane, batch: list[_PendingPredict]
    ) -> None:
        now = self._loop.time()
        live: list[_PendingPredict] = []
        for request in batch:
            if request.future.done():
                continue  # client went away
            if request.deadline <= now:
                # Expired while queued: answer 504 without ever
                # occupying a slot in the predict_many call.
                self.metrics.note_deadline_expiration()
                if request.span is not None:
                    request.span.event(
                        "deadline-expired", vehicle_id=request.vehicle_id
                    )
                request.future.set_exception(
                    _RequestError(504, "deadline exceeded while queued")
                )
                continue
            live.append(request)
        if not live:
            return
        # predict_many serves sorted(vehicle_ids); sorting the requests
        # the same way (stably) aligns results with their futures even
        # when one vehicle appears several times in a batch.
        live.sort(key=lambda r: r.vehicle_id)
        ids = [r.vehicle_id for r in live]
        started = self._loop.time()
        sharded = self._n_shards > 1
        if sharded:
            # Span objects never cross the process boundary; the lane
            # records one shard-labeled ``engine.predict`` child per
            # traced request from the batch timings afterwards.
            call = partial(
                self.engine.call_shard, lane.shard, "predict_many", ids
            )
        else:
            spans = [r.span for r in live]
            call = partial(self.engine.predict_many, ids, spans=spans)
        try:
            forecasts = await self._loop.run_in_executor(lane.pool, call)
        except asyncio.CancelledError:
            raise  # the dispatch loop answers the batch with 503
        except Exception as exc:
            for request in live:
                if not request.future.done():
                    request.future.set_exception(
                        _RequestError(
                            500, f"batch failed: {type(exc).__name__}: {exc}"
                        )
                    )
        else:
            finished = self._loop.time()
            self.metrics.observe_batch(
                len(live),
                finished - started,
                shard=lane.shard if sharded else None,
            )
            for request, forecast in zip(live, forecasts):
                if sharded and request.span is not None:
                    request.span.tracer.record_span(
                        "engine.predict",
                        request.span,
                        started,
                        finished,
                        vehicle_id=request.vehicle_id,
                        shard=lane.shard,
                    )
                if not request.future.done():
                    request.future.set_result(forecast)

    def _admit_predict(
        self, vehicle_id: str, deadline_s: float
    ) -> tuple[asyncio.Future, _Lane]:
        """Queue one predict request and return its future and lane;
        raises :class:`_RequestError` when it is refused.  Nothing here
        awaits, so a depot read admits all its ids in one pass."""
        if self._draining:
            raise _RequestError(
                503, "gateway is draining", {"Retry-After": "1"}
            )
        self._check_ready()
        if not self._has_vehicle(vehicle_id):
            raise _RequestError(404, f"unknown vehicle {vehicle_id!r}")
        n_days = self._observed_days(vehicle_id)
        window = self._window
        if n_days <= window:
            raise _RequestError(
                422,
                f"vehicle {vehicle_id!r} has {n_days} observed days; "
                f"window={window} needs at least "
                f"{window + 1}.",
            )
        lane = self._lanes[self._shard_for(vehicle_id)]
        future = self._loop.create_future()
        request = _PendingPredict(
            vehicle_id=vehicle_id,
            future=future,
            deadline=self._loop.time() + deadline_s,
            span=tracing.current_span(),
        )
        try:
            lane.queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.note_queue_rejection(
                shard=lane.shard if self._n_shards > 1 else None
            )
            tracing.add_event("queue-rejected", vehicle_id=vehicle_id)
            raise _RequestError(
                429, "request queue full", self._retry_after()
            ) from None
        return future, lane

    def _note_admitted(self, lane: _Lane) -> None:
        """Record ``lane``'s queue depth after an admission pass (the
        high-water gauge only needs the depth once the pass is done)."""
        depth = lane.queue.qsize()
        shard_label = lane.shard if self._n_shards > 1 else None
        self.metrics.note_queue_depth(depth, shard=shard_label)
        # Queue depth at admission rides as a span attribute rather
        # than an event: an attribute write is a dict store, an event
        # is an allocation, and this runs on every predict request.
        span = tracing.current_span()
        if span is not None:
            span.set_attribute("queue_depth", depth)
            if shard_label is not None:
                span.set_attribute("shard", shard_label)

    # -- routing -----------------------------------------------------------

    async def handle_request(
        self,
        method: str,
        target: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> GatewayResponse:
        """Route one request; the socket layer and tests both call this.

        Every response — including 429/504/degraded outcomes — carries
        the request id (client-supplied ``X-Repro-Request-Id`` when
        well-formed, else generated) so callers can fetch the matching
        trace from ``/v1/trace/{request_id}``.
        """
        if not self._started:
            raise RuntimeError("start() the gateway before handling requests.")
        method = method.upper()
        parts = urlsplit(target)
        endpoint = _endpoint_label(method, parts.path)
        request_id, supplied = self._request_id(headers)
        root = None
        if self.config.tracing and (
            supplied
            or next(self._trace_tick) % self.config.trace_sample_every == 0
        ):
            root = self.obs.tracer.start_trace(
                request_id,
                f"{method} {parts.path}",
                endpoint=endpoint,
                method=method,
            )
        started = self._loop.time()
        with tracing.activate(root):
            try:
                response = await self._route(
                    method, parts.path, parse_qs(parts.query), body or b""
                )
            except _RequestError as exc:
                response = exc.response()
            except Exception as exc:  # a handler bug must not kill the server
                response = GatewayResponse(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        self.metrics.observe(
            endpoint, response.status, self._loop.time() - started
        )
        response.headers.setdefault(REQUEST_ID_HEADER, request_id)
        if root is not None:
            root.set_attribute("status", response.status)
            root.finish("ok" if response.status < 400 else f"http-{response.status}")
        return response

    @staticmethod
    def _request_id(headers: dict[str, str] | None) -> tuple[str, bool]:
        """The request's id, plus whether the client supplied it.

        A well-formed client-supplied id forces tracing for that
        request (sampling only thins *anonymous* traffic).
        """
        supplied = (headers or {}).get(REQUEST_ID_HEADER.lower(), "")
        if supplied and _REQUEST_ID_RE.match(supplied):
            return supplied, True
        return uuid.uuid4().hex[:16], False

    async def _route(
        self, method: str, path: str, query: dict, body: bytes
    ) -> GatewayResponse:
        if path in ("/v1/health", "/v1/fleet/health"):
            self._require_method(method, "GET")
            return await self._handle_health()
        if path == "/v1/metrics":
            self._require_method(method, "GET")
            # Collectors read engine/service state, so take the
            # snapshot on the engine thread like any other state read.
            # Sharded, the registry holds only gateway-local sections;
            # the engine-owned ones are scatter-gathered per shard.
            snapshot = await self._engine_call(self._metrics_snapshot)
            return GatewayResponse(200, snapshot)
        if path.startswith("/v1/trace/"):
            self._require_method(method, "GET")
            return self._handle_trace(path)
        if path == "/v1/ingest":
            self._require_method(method, "POST")
            return await self._handle_ingest(body)
        if path == "/v1/lifecycle" or path.startswith("/v1/lifecycle/"):
            return await self._handle_lifecycle(method, path, body)
        if path == "/v1/predict:batch":
            self._require_method(method, "POST")
            return await self._handle_predict_batch(body)
        if path.startswith("/v1/predict/"):
            self._require_method(method, "GET")
            return await self._handle_predict(path, query)
        raise _RequestError(404, f"no route for {path}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _RequestError(
                405, f"method {method} not allowed; use {expected}",
                {"Allow": expected},
            )

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "JSON body must be an object")
        return payload

    def _deadline_s(self, raw: str | None) -> float:
        if raw is None:
            return self.config.default_deadline_s
        try:
            deadline_ms = float(raw)
        except ValueError:
            raise _RequestError(
                400, f"deadline_ms must be a number, got {raw!r}"
            ) from None
        if deadline_ms <= 0:
            raise _RequestError(400, "deadline_ms must be > 0")
        return deadline_ms / 1000.0

    # -- endpoint handlers -------------------------------------------------

    def _handle_trace(self, path: str) -> GatewayResponse:
        request_id = unquote(path[len("/v1/trace/"):])
        if not request_id or "/" in request_id:
            raise _RequestError(404, f"bad trace path {path!r}")
        trace = self.obs.tracer.export(request_id)
        if trace is None:
            raise _RequestError(
                404, f"no trace recorded for request {request_id!r}"
            )
        return GatewayResponse(200, trace)

    async def _handle_health(self) -> GatewayResponse:
        health, readiness = await self._engine_call(self._health_snapshot)
        health = replace(health, gateway=self.metrics.snapshot())
        payload = {
            "status": "draining" if self._draining else "ok",
            "readiness": readiness,
            **health.as_dict(),
        }
        if self._n_shards > 1:
            payload["shards"] = self._n_shards
        return GatewayResponse(200, payload)

    def _health_snapshot(self):
        # Sharded, both calls scatter-gather across every worker and
        # merge (shards own disjoint fleets, so the union is exact).
        return self.engine.health(), self.engine.readiness()

    def _metrics_snapshot(self) -> dict:
        snapshot = self.obs.registry.snapshot()
        if self._n_shards <= 1:
            return snapshot
        sections = self.engine.metrics_sections()
        merged: dict[str, dict] = {}
        for section in sections:
            for name in ("fleet", "drift"):
                part = section.get(name) or {}
                bucket = merged.setdefault(name, {})
                for key, value in part.items():
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0) + value
        snapshot.update(merged)
        snapshot["shard_sections"] = {
            str(index): section for index, section in enumerate(sections)
        }
        return snapshot

    async def _handle_predict(
        self, path: str, query: dict
    ) -> GatewayResponse:
        vehicle_id = unquote(path[len("/v1/predict/"):])
        if not vehicle_id or "/" in vehicle_id:
            raise _RequestError(404, f"bad vehicle path {path!r}")
        deadline_s = self._deadline_s(
            query.get("deadline_ms", [None])[0]
        )
        future, lane = self._admit_predict(vehicle_id, deadline_s)
        self._note_admitted(lane)
        forecast = await future
        headers = {DEGRADED_HEADER: "true"} if forecast.degraded else {}
        return GatewayResponse(200, forecast.to_dict(), headers)

    async def _handle_predict_batch(self, body: bytes) -> GatewayResponse:
        payload = self._parse_json(body)
        vehicle_ids = payload.get("vehicle_ids")
        if not isinstance(vehicle_ids, list) or not all(
            isinstance(v, str) for v in vehicle_ids
        ):
            raise _RequestError(
                400, "body must carry 'vehicle_ids': [str, ...]"
            )
        if not vehicle_ids:
            raise _RequestError(400, "'vehicle_ids' must not be empty")
        deadline_raw = payload.get("deadline_ms")
        deadline_s = self._deadline_s(
            None if deadline_raw is None else str(deadline_raw)
        )
        # One admission pass, in order and without an await, so the
        # whole request lands in one predict_many call (up to
        # max_batch_size).  A refused id answers in its own slot.
        futures = []
        lanes = {}
        for vehicle_id in vehicle_ids:
            try:
                future, lane = self._admit_predict(vehicle_id, deadline_s)
            except _RequestError as exc:
                future = self._loop.create_future()
                future.set_exception(exc)
            else:
                lanes[lane.shard] = lane
            futures.append(future)
        for lane in lanes.values():
            self._note_admitted(lane)
        # gather() of plain futures wraps none of them in a Task.
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        forecasts: list[dict] = []
        errors = 0
        any_degraded = False
        for vehicle_id, outcome in zip(vehicle_ids, outcomes):
            if isinstance(outcome, Forecast):
                forecasts.append(outcome.to_dict())
                any_degraded = any_degraded or outcome.degraded
            elif isinstance(outcome, _RequestError):
                errors += 1
                forecasts.append(
                    {
                        "vehicle_id": vehicle_id,
                        "error": outcome.message,
                        "status": outcome.status,
                    }
                )
            else:
                raise outcome
        headers = {DEGRADED_HEADER: "true"} if any_degraded else {}
        return GatewayResponse(
            200, {"forecasts": forecasts, "errors": errors}, headers
        )

    async def _handle_lifecycle(
        self, method: str, path: str, body: bytes
    ) -> GatewayResponse:
        """Admin surface of the lifecycle controller.

        Every action runs on the engine thread like any other state
        mutation, so an operator rollback can never interleave with an
        in-flight predict batch.
        """
        controller = getattr(self.engine, "lifecycle", None)
        if controller is None:
            raise _RequestError(
                503, "no lifecycle controller attached to this engine"
            )
        if path == "/v1/lifecycle":
            self._require_method(method, "GET")
            return GatewayResponse(
                200, await self._engine_call(controller.status)
            )
        self._require_method(method, "POST")
        self._check_ready()
        if path == "/v1/lifecycle/run":
            entries = await self._engine_call(controller.run_once)
            return GatewayResponse(200, {"evaluated": entries})
        rest = unquote(path[len("/v1/lifecycle/"):])
        vehicle_id, _, action = rest.rpartition("/")
        if not vehicle_id or action not in (
            "promote", "rollback", "pin", "unpin"
        ):
            raise _RequestError(404, f"no lifecycle route for {path!r}")
        if not self._has_vehicle(vehicle_id):
            raise _RequestError(404, f"unknown vehicle {vehicle_id!r}")
        payload = self._parse_json(body) if body else {}
        version = payload.get("version")
        if version is not None and (
            isinstance(version, bool) or not isinstance(version, int)
        ):
            raise _RequestError(400, "'version' must be an integer")
        reason = payload.get("reason")
        if reason is not None and not isinstance(reason, str):
            raise _RequestError(400, "'reason' must be a string")
        try:
            if action == "promote":
                entry = await self._engine_call(
                    partial(
                        controller.evaluate_vehicle,
                        vehicle_id,
                        reason or "operator request",
                    )
                )
            elif action == "rollback":
                entry = await self._engine_call(
                    partial(
                        controller.rollback,
                        vehicle_id,
                        version,
                        quarantine_current=bool(
                            payload.get("quarantine", False)
                        ),
                        reason=reason,
                    )
                )
            elif action == "pin":
                if version is None:
                    raise _RequestError(400, "pin requires 'version'")
                entry = await self._engine_call(
                    partial(controller.pin, vehicle_id, version, reason=reason)
                )
            else:
                entry = await self._engine_call(
                    partial(controller.unpin, vehicle_id, reason=reason)
                )
        except KeyError as exc:  # unknown stored version
            raise _RequestError(404, str(exc)) from None
        except ValueError as exc:  # no store / no prior version / corrupt
            raise _RequestError(422, str(exc)) from None
        return GatewayResponse(200, entry)

    async def _handle_ingest(self, body: bytes) -> GatewayResponse:
        if self._draining:
            raise _RequestError(
                503, "gateway is draining", {"Retry-After": "1"}
            )
        self._check_ready()
        payload = self._parse_json(body)
        if "readings" in payload:
            raw_records = payload["readings"]
            if not isinstance(raw_records, list) or not raw_records:
                raise _RequestError(
                    400, "'readings' must be a non-empty list"
                )
        else:
            raw_records = [payload]
        records = [self._parse_reading(record) for record in raw_records]
        ingested, error = await self._engine_call(self._ingest_records, records)
        if error is not None:
            return GatewayResponse(
                422, {"error": error, "ingested": ingested}
            )
        return GatewayResponse(200, {"ingested": ingested})

    @staticmethod
    def _parse_reading(record) -> tuple[str, float, int | None]:
        if not isinstance(record, dict):
            raise _RequestError(400, "each reading must be an object")
        vehicle_id = record.get("vehicle_id")
        if not isinstance(vehicle_id, str) or not vehicle_id:
            raise _RequestError(
                400, "each reading needs a non-empty 'vehicle_id'"
            )
        seconds = record.get("seconds")
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise _RequestError(
                400, f"reading for {vehicle_id!r} needs numeric 'seconds'"
            )
        day = record.get("day")
        if day is not None and not isinstance(day, int):
            raise _RequestError(
                400, f"reading for {vehicle_id!r}: 'day' must be an integer"
            )
        return vehicle_id, float(seconds), day

    def _ingest_records(
        self, records: list[tuple[str, float, int | None]]
    ) -> tuple[int, str | None]:
        """Runs on the engine thread; returns (ingested, error).

        The batch-application loop lives on the engine
        (:meth:`FleetEngine.ingest_records`) so the in-process lane and
        the sharded worker processes apply records identically; the
        sharded facade partitions the batch by owning shard first.
        """
        return self.engine.ingest_records(
            records, auto_register=self.config.auto_register
        )

    # -- HTTP socket layer -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_http_request(reader)
                except _RequestError as exc:
                    writer.write(exc.response().encode(keep_alive=False))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                response = await self.handle_request(
                    method, target, body, headers
                )
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            with suppress(Exception):
                await writer.wait_closed()

    async def _read_http_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _RequestError(400, "request line too long") from None
        if not line:
            return None
        fields = line.decode("latin-1").strip().split(" ")
        if len(fields) != 3:
            raise _RequestError(400, "malformed request line")
        method, target, _version = fields
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _RequestError(400, "header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0") or "0"
        try:
            length = int(length_raw)
        except ValueError:
            raise _RequestError(
                400, f"bad Content-Length {length_raw!r}"
            ) from None
        if length < 0:
            raise _RequestError(400, f"bad Content-Length {length_raw!r}")
        if length > self.config.max_body_bytes:
            raise _RequestError(
                413,
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte cap",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method, target, headers, body
