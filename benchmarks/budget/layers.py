"""Per-layer metrics and the median request split of a traced run.

Input: the spans ``server.py --trace-out`` wrote (``[name, start, end,
parent index, attrs]``) and the load generator's requests.  Server and
client both stamp ``time.perf_counter``, which on Linux reads the same
system-wide monotonic clock in every process, so client and server
times compare directly.

Links the span tree cannot carry are made here:

* a predict batch runs in the engine thread without its requests'
  context, so a request's batches are the ``engine.predict_many`` spans
  that lie inside the request span and serve one of its vehicles;
* refresh training runs in pool threads, so a ``train.fit`` span
  without a parent belongs to the ``engine.predict_many`` span that
  contains it.
"""

from __future__ import annotations

import bisect
import statistics

import stats

__all__ = ["LAYER_OF_SPAN", "analyse"]

#: The budget layer each span's self time is charged to.
LAYER_OF_SPAN = {
    "gateway.request": "gateway",
    "gateway.to_dict": "gateway.to_dict",
    "gateway.encode": "gateway.encode",
    "engine.predict_many": "engine.refresh",
    "engine.ingest_records": "engine.ingest",
    "service.predict_batch": "service.route",
    "service.ingest": "service.ingest",
    "kernel.predict": "kernel",
    "train.fit": "train",
    "store.save": "store",
    "store.load": "store",
    "journal.append": "journal",
    "checkpoint": "checkpoint",
    "checkpoint.save": "checkpoint",
}


class _Span:
    __slots__ = ("index", "name", "start", "end", "parent", "attrs")

    def __init__(self, index, row):
        self.index = index
        self.name, self.start, self.end, self.parent, attrs = row
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _p(values, q):
    return stats.percentile(values, q) if values else None


def _ms(value):
    return None if value is None else value * 1e3


def _us(value):
    return None if value is None else value * 1e6


def analyse(rows: list, ops: list, window: tuple[float, float], steady_phase: int):
    """``(metrics, split)`` of one traced run.

    ``metrics`` maps every per-layer metric name to its value (``None``
    for a timing of a layer that did no work); ``split`` holds the
    median read's — and, with ingest, the median ingest's — latency
    split across layers.
    """
    t0, t1 = window
    wall = t1 - t0
    spans = [_Span(i, row) for i, row in enumerate(rows)]
    before = [s for s in spans if s.end <= t0 and s.end >= s.start]
    live = [s for s in spans if s.start >= t0 and s.start <= s.end <= t1]
    by_name: dict[str, list[_Span]] = {}
    for s in live:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    batches = sorted(named("engine.predict_many"), key=lambda s: s.start)
    batch_starts = [b.start for b in batches]

    def containing_batch(span):
        i = bisect.bisect_right(batch_starts, span.start) - 1
        while i >= 0 and batches[i].start <= span.start:
            if span.end <= batches[i].end:
                return batches[i]
            i -= 1
        return None

    parent_of = {s.index: s.parent for s in live}
    for fit in named("train.fit"):
        if fit.parent is None:
            batch = containing_batch(fit)
            if batch is not None:
                parent_of[fit.index] = batch.index
    children: dict[int, list[_Span]] = {}
    for s in live:
        parent = parent_of[s.index]
        if parent is not None:
            children.setdefault(parent, []).append(s)
    global_self = stats.self_times(
        {s.index: (parent_of[s.index], s.start, s.end) for s in live}
    )
    on_read_path = [s for s in named("train.fit") if containing_batch(s)]
    loads_on_read_path = [s for s in named("store.load") if containing_batch(s)]

    requests = {s.attrs.get("rid"): s for s in named("gateway.request")}
    encodes = {s.attrs.get("rid"): s for s in named("gateway.encode")}

    def request_batches(request, vehicles):
        i = bisect.bisect_left(batch_starts, request.start)
        out = []
        while i < len(batches) and batches[i].start <= request.end:
            b = batches[i]
            if b.end <= request.end and not vehicles.isdisjoint(b.attrs.get("ids", ())):
                out.append(b)
            i += 1
        return out

    def subtree(request, vehicles):
        """``{index: (parent, start, end)}`` of the work one request waited on."""
        tree = {request.index: (None, request.start, request.end)}
        stack = [(c, request.index) for c in children.get(request.index, ())]
        stack += [(b, request.index) for b in request_batches(request, vehicles)]
        names = {request.index: request.name}
        while stack:
            span, parent = stack.pop()
            if span.index in tree:
                continue
            tree[span.index] = (parent, span.start, span.end)
            names[span.index] = span.name
            stack.extend((c, span.index) for c in children.get(span.index, ()))
        return tree, names

    def split_of(op):
        request = requests.get(op.request_id)
        if request is None or not op.ok:
            return None
        encode = encodes.get(op.request_id)
        encode_s = encode.duration if encode is not None else 0.0
        tree, names = subtree(request, set(op.vehicles))
        parts = {
            "loadgen": op.sent - op.due,
            # Pipelined behind earlier requests on the same connection.
            "connection": request.start - op.sent,
            "gateway.encode": encode_s,
            "transport": op.done - request.end - encode_s,
        }
        for index, own in stats.self_times(tree).items():
            layer = LAYER_OF_SPAN.get(names[index], names[index])
            parts[layer] = parts.get(layer, 0.0) + own
        return op.done - op.due, parts

    joined_reads = [
        (op, requests[op.request_id])
        for op in ops
        if op.kind == "read" and op.ok and op.request_id in requests
    ]
    read_self = []
    for op, req in joined_reads:
        tree, _ = subtree(req, set(op.vehicles))
        read_self.append(stats.self_times(tree)[req.index])

    refresh = []
    for b in batches:
        inner = sum(c.duration for c in children.get(b.index, ()) if c.name == "service.predict_batch")
        refresh.append(b.duration - inner)

    route_self = sum(global_self[s.index] for s in named("service.predict_batch"))
    routed = sum(s.attrs.get("n", 0) for s in named("service.predict_batch"))
    kernel_calls = named("kernel.predict")
    kernel_rows = sum(s.attrs.get("rows", 0) for s in kernel_calls)
    kernel_time = sum(s.duration for s in kernel_calls)

    def busy_pct(spans):
        return 100.0 * stats.covered(((s.start, s.end) for s in spans), t0, t1) / wall

    def fsync_count():
        def value(s):
            return s.attrs.get("fsyncs", 0)

        marks = named("journal.append") + named("checkpoint")
        if not marks:
            return 0
        earlier = [value(s) for s in before if s.name in ("journal.append", "checkpoint")]
        return max(value(s) for s in marks) - max(earlier, default=0)

    ingest_acks = [s.attrs.get("undurable") for s in named("engine.ingest_records")]
    checkpoint_bytes = [s.attrs.get("bytes", 0) for s in named("checkpoint.save")]

    sends = [op.sent - op.due for op in ops if op.sent is not None]
    residual = [
        (op.done - op.sent) - req.duration for op, req in joined_reads
    ]
    metrics = {
        "loadgen.send_lag_p99_ms": _ms(_p(sends, 99)),
        "transport.residual_p50_ms": _ms(_p(residual, 50)),
        "gateway.request_p50_ms": _ms(_p([r.duration for _, r in joined_reads], 50)),
        "gateway.self_p50_ms": _ms(_p(read_self, 50)),
        "gateway.self_p99_ms": _ms(_p(read_self, 99)),
        "gateway.coalesced_per_batch": (
            statistics.fmean(len(b.attrs.get("ids", ())) for b in batches) if batches else 0.0
        ),
        "gateway.to_dict_p50_us": _us(_p([s.duration for s in named("gateway.to_dict")], 50)),
        "gateway.encode_p50_us": _us(_p([s.duration for s in named("gateway.encode")], 50)),
        "engine.predict_many_calls": len(batches),
        "engine.predict_many_p50_ms": _ms(_p([b.duration for b in batches], 50)),
        "engine.refresh_p50_ms": _ms(_p(refresh, 50)),
        "engine.refresh_max_ms": _ms(max(refresh, default=None)),
        "engine.ingest_busy_pct": busy_pct(named("engine.ingest_records")),
        "engine.ingest_records_p50_ms": _ms(_p([s.duration for s in named("engine.ingest_records")], 50)),
        "engine.ingest_records_p99_ms": _ms(_p([s.duration for s in named("engine.ingest_records")], 99)),
        "service.predict_batch_p50_ms": _ms(_p([s.duration for s in named("service.predict_batch")], 50)),
        "service.route_us_per_vehicle": _us(route_self / routed) if routed else None,
        "service.ingests": len(named("service.ingest")),
        "service.ingest_p50_us": _us(_p([s.duration for s in named("service.ingest")], 50)),
        "kernel.calls_per_batch": (
            len(kernel_calls) / len(named("service.predict_batch")) if named("service.predict_batch") else 0.0
        ),
        "kernel.rows_per_call": kernel_rows / len(kernel_calls) if kernel_calls else 0.0,
        "kernel.busy_pct": busy_pct(kernel_calls),
        "kernel.us_per_row": _us(kernel_time / kernel_rows) if kernel_rows else None,
        "train.fits": len(named("train.fit")),
        "train.fits_on_read_path": len(on_read_path),
        "train.busy_pct": busy_pct(named("train.fit")),
        "train.fit_p50_ms": _ms(_p([s.duration for s in named("train.fit")], 50)),
        "store.saves": len(named("store.save")),
        "store.loads_on_read_path": len(loads_on_read_path),
        "store.busy_pct": busy_pct(named("store.save") + named("store.load")),
        "store.save_p50_ms": _ms(_p([s.duration for s in named("store.save")], 50)),
        "journal.appends": len(named("journal.append")),
        "journal.fsyncs": fsync_count(),
        "journal.undurable_at_ack_max": max((u for u in ingest_acks if u is not None), default=0),
        "journal.busy_pct": busy_pct(named("journal.append")),
        "journal.append_p50_us": _us(_p([s.duration for s in named("journal.append")], 50)),
        "journal.append_p99_us": _us(_p([s.duration for s in named("journal.append")], 99)),
        "checkpoint.count": len(named("checkpoint")),
        "checkpoint.bytes": statistics.median(checkpoint_bytes) if checkpoint_bytes else 0,
        "checkpoint.busy_pct": busy_pct(named("checkpoint")),
        "checkpoint.p50_ms": _ms(_p([s.duration for s in named("checkpoint")], 50)),
        "checkpoint.max_ms": _ms(max((s.duration for s in named("checkpoint")), default=None)),
    }

    split = {}
    for kind in ("read", "ingest"):
        chosen = [op for op in ops if op.kind == kind and (kind != "read" or op.phase == steady_phase)]
        split_rows = [row for row in map(split_of, chosen) if row is not None]
        if split_rows:
            split[kind] = median_split(split_rows)
    return metrics, split


def median_split(rows: list[tuple[float, dict]]) -> dict:
    """Mean layer split of the requests between the 40th and 60th
    latency percentiles: the split of a median request, smoothed."""
    latencies = sorted(latency for latency, _ in rows)
    lo = stats.percentile(latencies, 40)
    hi = stats.percentile(latencies, 60)
    middle = [(lat, parts) for lat, parts in rows if lo <= lat <= hi]
    layers: dict[str, float] = {}
    for _, parts in middle:
        for layer, seconds in parts.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    n = len(middle)
    latency = statistics.fmean(lat for lat, _ in middle)
    return {
        "requests": len(rows),
        "latency_ms": latency * 1e3,
        "layers_ms": {k: v / n * 1e3 for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
    }
