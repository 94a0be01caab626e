"""Shared-nothing shard pool: partition the fleet across N engines.

Every serving layer so far — batch engine, gateway, durability,
lifecycle — funnels through a *single* :class:`~repro.serving.engine.
FleetEngine` with one dispatcher queue and one journal: the remaining
vertical-scale ceiling.  The paper's methodology makes horizontal
partitioning natural: OLD vehicles serve **per-vehicle** models, so a
vehicle's forecast depends only on that vehicle's own history — a
fleet split by vehicle hash is genuinely shared-nothing.

:class:`ShardedFleetEngine` runs N engines, one per **worker
process**, each owning an exclusive slice of the fleet:

* **routing** — :class:`ShardRouter` maps ``vehicle_id -> shard`` with
  a consistent-hash ring built from :mod:`hashlib` (BLAKE2), so the
  mapping is total, deterministic across interpreter restarts and
  ``PYTHONHASHSEED`` values, and stable for a fixed shard count;
  growing the ring moves only the keys claimed by the new shard.
* **shared-nothing state** — each worker holds its own service,
  drift monitor, model store partition, journal + checkpoint
  directory (``shard-00/ …``) and lifecycle controller.  Workers
  recover their journal partitions in parallel at startup (all
  processes replay concurrently; the parent waits for every ready
  handshake).
* **process isolation** — per-vehicle prediction is CPU-bound Python
  that barely releases the GIL, so thread-based shards cannot scale
  it.  Worker processes can: ``benchmarks/bench_shard.py`` gates
  multi-shard throughput against the single-shard path and pins the
  forecasts bit-identical.

The parent process keeps only routing metadata (which vehicles exist,
how many days each has observed) — authoritative values returned by
every mutating RPC — so the gateway can validate requests without a
cross-process round trip on the hot path.

Cold-start semantics under sharding: SEMI-NEW/NEW vehicles use donor
models built from *old* vehicles, and a shard only sees its own slice
of the fleet, so donor pools are shard-local.  Forecast bit-identity
with the unsharded path therefore holds for OLD vehicles (per-vehicle
models — the steady-state fleet); cold-start vehicles get forecasts
built from their shard's donors.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import threading
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from .engine import FleetEngine
from .reliability import FleetHealth
from .service import Forecast

__all__ = [
    "ShardRouter",
    "ShardWorker",
    "ShardedFleetEngine",
    "build_shard_engine",
    "merge_fleet_health",
]


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash (BLAKE2b) — independent of PYTHONHASHSEED."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class ShardRouter:
    """Deterministic consistent-hash ring: ``vehicle_id -> shard``.

    Each shard contributes ``replicas`` points on a 64-bit ring; a
    vehicle lands on the shard owning the first point clockwise of its
    own hash.  Keyed entirely by :func:`hashlib.blake2b`, so the map is
    identical across processes, platforms and hash seeds.  Adding a
    shard reclaims only the keys whose successor point belongs to the
    new shard (~1/N of them) — every other assignment is untouched.
    """

    def __init__(self, n_shards: int, *, replicas: int = 64):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}.")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}.")
        self.n_shards = n_shards
        self.replicas = replicas
        ring = []
        for shard in range(n_shards):
            for replica in range(replicas):
                point = _hash64(f"shard-{shard}/{replica}".encode("utf-8"))
                ring.append((point, shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    def shard_for(self, vehicle_id: str) -> int:
        """The owning shard of ``vehicle_id``; total over all strings."""
        point = _hash64(vehicle_id.encode("utf-8"))
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):  # wrap past the last ring point
            index = 0
        return self._owners[index]

    def partition(self, vehicle_ids: Iterable[str]) -> dict[int, list[str]]:
        """Group ids by owning shard, preserving input order per shard."""
        groups: dict[int, list[str]] = {}
        for vehicle_id in vehicle_ids:
            groups.setdefault(self.shard_for(vehicle_id), []).append(
                vehicle_id
            )
        return groups


def merge_fleet_health(reports: list[FleetHealth]) -> FleetHealth:
    """Union of per-shard health reports (shards own disjoint fleets)."""
    vehicles: dict = {}
    persist_failures = 0
    dead_letter_overflow = 0
    for report in reports:
        vehicles.update(report.vehicles)
        persist_failures += report.persist_failures
        dead_letter_overflow += report.dead_letter_overflow
    return FleetHealth(
        vehicles=vehicles,
        persist_failures=persist_failures,
        dead_letter_overflow=dead_letter_overflow,
    )


def build_shard_engine(
    shard_index: int,
    *,
    store_dir: str | None = None,
    resilient: bool = False,
    monitor: bool = True,
    service_kwargs: dict | None = None,
) -> FleetEngine:
    """Default per-shard engine factory (module-level, picklable).

    ``store_dir`` gets a ``shard-XX`` partition so artifact versions
    never collide across shards; ``resilient`` attaches the guard /
    breaker / retry stack; ``monitor`` attaches a per-shard
    :class:`~repro.serving.monitoring.DriftMonitor` so drift sweeps are
    shard-local.
    """
    kwargs = dict(service_kwargs or {})
    if monitor and "monitor" not in kwargs:
        from .monitoring import DriftMonitor

        kwargs["monitor"] = DriftMonitor()
    if resilient:
        from .reliability import CircuitBreaker, IngestionGuard, RetryPolicy

        kwargs.setdefault("guard", IngestionGuard())
        kwargs.setdefault("breaker", CircuitBreaker())
        kwargs.setdefault("retry", RetryPolicy())
    if store_dir is not None:
        from .persistence import ModelStore

        partition = Path(store_dir) / f"shard-{shard_index:02d}"
        partition.mkdir(parents=True, exist_ok=True)
        kwargs["store"] = ModelStore(partition)
    return FleetEngine(**kwargs)


# -- worker process ---------------------------------------------------------


def _shard_worker_main(conn, shard_index: int, factory, options: dict) -> None:
    """Command loop of one shard worker process.

    Builds the shard's engine, recovers its durability partition (if
    any), attaches a lifecycle controller (if asked), sends the ready
    handshake with its bootstrap metadata, then serves RPCs until
    ``__shutdown__`` or EOF.
    """
    engine = factory(shard_index)
    bootstrap: dict = {"shard": shard_index}
    manager = None
    if options.get("durable_dir"):
        from ..durability import RecoveryManager

        manager = RecoveryManager(options["durable_dir"], engine.service)
        report = manager.recover()
        engine.attach_durability(manager)
        bootstrap["recovery"] = report.as_dict()
    if options.get("lifecycle"):
        from ..lifecycle import LifecycleController

        LifecycleController(engine)  # registers itself on the engine
    service = engine.service
    bootstrap["window"] = service.window
    bootstrap["t_v"] = service.t_v
    bootstrap["guarded"] = service.guard is not None
    bootstrap["n_days"] = {
        vehicle_id: service.n_days(vehicle_id)
        for vehicle_id in service.vehicle_ids
    }

    def _n_days(vehicle_ids) -> dict[str, int]:
        return {
            vehicle_id: service.n_days(vehicle_id)
            for vehicle_id in vehicle_ids
        }

    def do_register(vehicle_ids):
        for vehicle_id in sorted(vehicle_ids):
            service.register_vehicle(vehicle_id)
        return _n_days(vehicle_ids)

    def do_ingest_history(vehicle_id, usage):
        engine.ingest_history(vehicle_id, usage)
        return service.n_days(vehicle_id)

    def do_ingest_day(usage_by_vehicle, day=None):
        engine.ingest_day(usage_by_vehicle, day=day)
        return _n_days(usage_by_vehicle)

    def do_ingest_records(records, auto_register=True):
        ingested, error = engine.ingest_records(
            records, auto_register=auto_register
        )
        touched = {vehicle_id for vehicle_id, _s, _d in records}
        return ingested, error, _n_days(
            [v for v in touched if service.has_vehicle(v)]
        )

    def do_lifecycle(action, *args, **kwargs):
        controller = engine.lifecycle
        if controller is None:
            raise ValueError("no lifecycle controller attached to this shard")
        return getattr(controller, action)(*args, **kwargs)

    def do_checkpoint():
        return None if manager is None else manager.checkpoint()

    def do_durability_status():
        return None if manager is None else manager.status()

    handlers = {
        "register": do_register,
        "ingest_history": do_ingest_history,
        "ingest_day": do_ingest_day,
        "ingest_records": do_ingest_records,
        "predict_many": lambda ids: engine.predict_many(ids),
        "predict_all": lambda **kw: engine.predict_all(**kw),
        "health": engine.health,
        "readiness": engine.readiness,
        "metrics_section": engine.metrics_section,
        "drain": engine.drain,
        "lifecycle": do_lifecycle,
        "checkpoint": do_checkpoint,
        "durability_status": do_durability_status,
    }
    conn.send(("ready", bootstrap))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            method, args, kwargs = message
            if method == "__shutdown__":
                if manager is not None:
                    manager.close()
                conn.send(("ok", None))
                break
            try:
                result = handlers[method](*args, **kwargs)
            except Exception as exc:
                try:
                    conn.send(("err", exc))
                except Exception:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", result))
    finally:
        conn.close()


class ShardWorker:
    """Parent-side handle of one shard worker process.

    One request/response RPC at a time per worker (an internal lock
    serializes callers), mirroring the engine's single-threaded
    correctness contract inside the worker.
    """

    def __init__(
        self,
        shard_index: int,
        factory,
        *,
        options: dict | None = None,
        context=None,
    ):
        ctx = context or multiprocessing.get_context("fork")
        self.shard_index = shard_index
        self._conn, child_conn = ctx.Pipe()
        self._lock = threading.Lock()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard_index, factory, options or {}),
            daemon=True,
            name=f"repro-shard-{shard_index:02d}",
        )
        self.process.start()
        child_conn.close()
        self.bootstrap: dict | None = None  # filled by await_ready()

    def await_ready(self) -> dict:
        """Block for the worker's ready handshake; returns bootstrap."""
        if self.bootstrap is None:
            kind, payload = self._conn.recv()
            if kind != "ready":
                raise RuntimeError(
                    f"shard {self.shard_index} failed to start: {payload}"
                )
            self.bootstrap = payload
        return self.bootstrap

    def call(self, method: str, *args, **kwargs):
        """One blocking RPC round trip to the worker."""
        with self._lock:
            self._conn.send((method, args, kwargs))
            kind, payload = self._conn.recv()
        if kind == "err":
            if isinstance(payload, BaseException):
                raise payload
            raise RuntimeError(payload)
        return payload

    def close(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown (checkpoints durability); then terminate."""
        if self.process.is_alive():
            try:
                with self._lock:
                    self._conn.send(("__shutdown__", (), {}))
                    self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self._conn.close()


class ShardedFleetEngine:
    """N shared-nothing :class:`FleetEngine` shards behind one facade.

    Parameters
    ----------
    n_shards:
        Number of worker processes (>= 1).
    engine_factory:
        ``factory(shard_index) -> FleetEngine`` run *inside* each
        worker.  Defaults to :func:`build_shard_engine` over
        ``service_kwargs``.  Worker processes are forked, so the
        factory may close over in-memory state (a preloaded fleet)
        without pickling it.
    router:
        Routing override; defaults to ``ShardRouter(n_shards)``.
    lifecycle:
        Attach a per-shard lifecycle controller in every worker and
        expose the scatter-gather :attr:`lifecycle` admin facade.
    durable_dir:
        Base state directory; each worker recovers and journals its own
        ``shard-XX`` partition.  Recovery runs in parallel: all workers
        replay concurrently before the first RPC is accepted.
    service_kwargs:
        Forwarded to the default factory (``t_v=…``, ``window=…``,
        ``algorithm=…``); invalid with an explicit ``engine_factory``.
    """

    def __init__(
        self,
        n_shards: int,
        engine_factory=None,
        *,
        router: ShardRouter | None = None,
        lifecycle: bool = False,
        durable_dir=None,
        store_dir=None,
        resilient: bool = False,
        monitor: bool = True,
        **service_kwargs,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}.")
        if engine_factory is not None and service_kwargs:
            raise ValueError(
                "Pass service_kwargs only when the pool builds the "
                "engines itself."
            )
        self.n_shards = n_shards
        self.router = router or ShardRouter(n_shards)
        if self.router.n_shards != n_shards:
            raise ValueError(
                f"router covers {self.router.n_shards} shards, "
                f"pool has {n_shards}."
            )
        if engine_factory is None:
            engine_factory = partial(
                build_shard_engine,
                store_dir=None if store_dir is None else str(store_dir),
                resilient=resilient,
                monitor=monitor,
                service_kwargs=service_kwargs,
            )
        self._base_durable_dir = (
            None if durable_dir is None else Path(durable_dir)
        )
        self.workers: list[ShardWorker] = []
        for index in range(n_shards):
            options: dict = {"lifecycle": lifecycle}
            if self._base_durable_dir is not None:
                options["durable_dir"] = str(
                    self._base_durable_dir / f"shard-{index:02d}"
                )
            self.workers.append(
                ShardWorker(index, engine_factory, options=options)
            )
        # All workers are live before any handshake is consumed, so
        # per-shard journal replay happens concurrently.
        self.bootstraps = [worker.await_ready() for worker in self.workers]
        self.window = self.bootstraps[0].get("window")
        self.t_v = self.bootstraps[0].get("t_v")
        self._guarded = [b.get("guarded") for b in self.bootstraps]
        self._n_days: dict[str, int] = {}
        for bootstrap in self.bootstraps:
            self._n_days.update(bootstrap.get("n_days", {}))
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=n_shards, thread_name_prefix="shard-rpc"
        )
        self.obs = None
        self.lifecycle = ShardedLifecycle(self) if lifecycle else None
        self.durability = (
            ShardedDurability(self)
            if self._base_durable_dir is not None
            else None
        )
        self._closed = False

    # -- plumbing ----------------------------------------------------------

    def shard_for(self, vehicle_id: str) -> int:
        return self.router.shard_for(vehicle_id)

    def call_shard(self, shard_index: int, method: str, *args, **kwargs):
        return self.workers[shard_index].call(method, *args, **kwargs)

    def scatter(self, method: str, *args, **kwargs) -> list:
        """Run one RPC on every shard concurrently; results by shard."""
        return list(
            self._scatter_pool.map(
                lambda worker: worker.call(method, *args, **kwargs),
                self.workers,
            )
        )

    def attach_observability(self, obs) -> None:
        """Remember the gateway's observability handle.

        Shard state lives in other processes, so no registry collectors
        are installed here — the gateway scatter-gathers each shard's
        :meth:`FleetEngine.metrics_section` at snapshot time instead.
        """
        self.obs = obs

    # -- fleet state -------------------------------------------------------

    @property
    def vehicle_ids(self) -> list[str]:
        return sorted(self._n_days)

    def has_vehicle(self, vehicle_id: str) -> bool:
        return vehicle_id in self._n_days

    def n_days(self, vehicle_id: str) -> int:
        return self._n_days[vehicle_id]

    def register_fleet(self, vehicle_ids: Iterable[str]) -> None:
        groups = self.router.partition(vehicle_ids)
        for shard_index, futures in self._scatter_groups(
            groups, "register"
        ):
            self._n_days.update(futures)

    def _scatter_groups(self, groups: dict[int, list], method: str, **kwargs):
        """Run ``method(group)`` on each owning shard concurrently."""
        items = sorted(groups.items())
        results = list(
            self._scatter_pool.map(
                lambda item: self.workers[item[0]].call(
                    method, item[1], **kwargs
                ),
                items,
            )
        )
        return [(shard, result) for (shard, _), result in zip(items, results)]

    def ingest_history(self, vehicle_id: str, usage) -> None:
        shard = self.shard_for(vehicle_id)
        if vehicle_id not in self._n_days:
            self._n_days.update(
                self.workers[shard].call("register", [vehicle_id])
            )
        self._n_days[vehicle_id] = self.workers[shard].call(
            "ingest_history", vehicle_id, usage
        )

    def ingest_day(
        self, usage_by_vehicle: Mapping[str, float], *, day: int | None = None
    ) -> None:
        groups = self.router.partition(sorted(usage_by_vehicle))
        shard_batches = {
            shard: {v: float(usage_by_vehicle[v]) for v in ids}
            for shard, ids in groups.items()
        }
        for _shard, n_days in self._scatter_groups(
            {s: b for s, b in shard_batches.items()}, "ingest_day", day=day
        ):
            self._n_days.update(n_days)

    def ingest_records(
        self,
        records: list[tuple[str, float, int | None]],
        *,
        auto_register: bool = True,
    ) -> tuple[int, str | None]:
        """Scatter gateway-shaped records to their owning shards.

        As :meth:`FleetEngine.ingest_records`, ``ingested`` counts a
        prefix: the request is cut after its first record that will
        fail (an unknown vehicle without ``auto_register``, or a dirty
        reading for an unguarded shard, per its ``ready`` bootstrap)
        before it is scattered.
        """
        groups: dict[int, list] = {}
        for record in records:
            vehicle_id, seconds = record[0], record[1]
            shard = self.shard_for(vehicle_id)
            groups.setdefault(shard, []).append(record)
            if (not auto_register and vehicle_id not in self._n_days) or (
                not self._guarded[shard] and not 0 <= seconds <= 86_400
            ):
                break
        ingested = 0
        error = None
        for _shard, (count, shard_error, n_days) in self._scatter_groups(
            groups, "ingest_records", auto_register=auto_register
        ):
            ingested += count
            self._n_days.update(n_days)
            if shard_error is not None and error is None:
                error = shard_error
        return ingested, error

    # -- prediction --------------------------------------------------------

    def predict_many(self, vehicle_ids: Iterable[str]) -> list[Forecast]:
        """Scatter a batch to its shards; results in sorted-id order."""
        ids = list(vehicle_ids)
        groups = self.router.partition(ids)
        forecasts: list[Forecast] = []
        for _shard, result in self._scatter_groups(groups, "predict_many"):
            forecasts.extend(result)
        forecasts.sort(key=lambda forecast: forecast.vehicle_id)
        return forecasts

    def predict_all(self, *, skip_unready: bool = True) -> list[Forecast]:
        forecasts = [
            forecast
            for shard_result in self.scatter(
                "predict_all", skip_unready=skip_unready
            )
            for forecast in shard_result
        ]
        forecasts.sort(key=lambda forecast: forecast.vehicle_id)
        return forecasts

    # -- observability / health -------------------------------------------

    def health(self) -> FleetHealth:
        return merge_fleet_health(self.scatter("health"))

    def readiness(self) -> dict:
        per_shard = self.scatter("readiness")
        merged = {
            "vehicles": sum(r["vehicles"] for r in per_shard),
            "ready": sum(r["ready"] for r in per_shard),
            "inflight": sum(r["inflight"] for r in per_shard),
            "shards": {
                str(index): report for index, report in enumerate(per_shard)
            },
        }
        return merged

    @staticmethod
    def _merge_counter_dicts(dicts: list) -> dict | None:
        present = [d for d in dicts if d]
        if not present:
            return None
        merged: dict = {}
        for entry in present:
            for key, value in entry.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def metrics_sections(self) -> list[dict]:
        """Per-shard engine metric sections, gathered concurrently."""
        return self.scatter("metrics_section")

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        return all(self.scatter("drain", timeout))

    def close(self) -> None:
        """Shut every worker down (checkpointing durable shards)."""
        if self._closed:
            return
        self._closed = True
        list(
            self._scatter_pool.map(
                lambda worker: worker.close(), self.workers
            )
        )
        self._scatter_pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedFleetEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedLifecycle:
    """Scatter-gather admin facade over the per-shard controllers.

    Implements the :class:`~repro.lifecycle.LifecycleController` admin
    surface the gateway expects: per-vehicle actions route to the
    owning shard; ``status``/``run_once``/``counters`` fan out to every
    shard and merge.
    """

    def __init__(self, pool: ShardedFleetEngine):
        self.pool = pool

    def _route(self, vehicle_id: str, action: str, *args, **kwargs):
        shard = self.pool.shard_for(vehicle_id)
        return self.pool.call_shard(
            shard, "lifecycle", action, vehicle_id, *args, **kwargs
        )

    def evaluate_vehicle(self, vehicle_id: str, reason: str = "manual"):
        return self._route(vehicle_id, "evaluate_vehicle", reason)

    def rollback(self, vehicle_id: str, version=None, **kwargs):
        return self._route(vehicle_id, "rollback", version, **kwargs)

    def pin(self, vehicle_id: str, version: int, **kwargs):
        return self._route(vehicle_id, "pin", version, **kwargs)

    def unpin(self, vehicle_id: str, **kwargs):
        return self._route(vehicle_id, "unpin", **kwargs)

    def run_once(self) -> list[dict]:
        entries = [
            entry
            for shard_entries in self.pool.scatter("lifecycle", "run_once")
            for entry in shard_entries
        ]
        entries.sort(key=lambda entry: entry.get("vehicle_id", ""))
        return entries

    def counters(self) -> dict:
        merged = ShardedFleetEngine._merge_counter_dicts(
            self.pool.scatter("lifecycle", "counters")
        )
        return merged or {}

    def status(self) -> dict:
        per_shard = self.pool.scatter("lifecycle", "status")
        vehicles: dict = {}
        history: list = []
        log: list = []
        for report in per_shard:
            vehicles.update(report.get("vehicles", {}))
            history.extend(report.get("history", []))
            log.extend(report.get("log", []))
        return {
            "policy": per_shard[0].get("policy", {}),
            "counters": self.counters(),
            "vehicles": vehicles,
            "history": history[-32:],
            "log": log[-32:],
            "shards": {
                str(index): {
                    "vehicles": len(report.get("vehicles", {})),
                    "counters": report.get("counters", {}),
                }
                for index, report in enumerate(per_shard)
            },
        }


class ShardedDurability:
    """Aggregate durability view over the shard partitions.

    Workers finish journal replay before their ready handshake, so a
    constructed pool is always ``ready`` — the flag exists because the
    gateway gates requests on ``engine.durability.ready``.
    """

    ready = True

    def __init__(self, pool: ShardedFleetEngine):
        self.pool = pool

    def status(self) -> dict:
        per_shard = self.pool.scatter("durability_status")
        return {
            "ready": True,
            "shards": {
                str(index): status
                for index, status in enumerate(per_shard)
            },
        }

    def checkpoint(self) -> list:
        return self.pool.scatter("checkpoint")
