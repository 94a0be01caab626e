"""Start the fleet gateway the way operators run it: ``repro serve``.

Usage::

    python benchmarks/budget/server.py [--trace-out FILE] SERVE-ARGS...

SERVE-ARGS go unchanged to ``repro.cli.main(["serve", ...])``, so the
server runs with the CLI's defaults (5 ms batch window, batches of at
most 64, request tracing sampled 1 in 8).

With ``--trace-out``, the public calls of each layer are wrapped before
the server starts and every call becomes one span — ``perf_counter``
start and end, the span that caused it, a few attributes — held in
memory and written to FILE as JSON when the server exits.  The wrappers
only record; they never change an argument or a result.  Spans link to
their cause through a context variable: the gateway copies its context
into the engine thread for ingest, and nested calls on one thread see
their caller.  Predict batches run in the engine thread without the
caller's context, so ``run.py`` links them to requests by time and
vehicle id.
"""

from __future__ import annotations

import contextvars
import functools
import json
import signal
import sys
import time

_parent: contextvars.ContextVar = contextvars.ContextVar("budget_span", default=None)


class SpanRecorder:
    """In-memory spans of the wrapped layer calls.

    A span is the list ``[name, start, end, parent span or None, attrs]``;
    ``list.append`` keeps recording safe from any thread.
    """

    def __init__(self):
        self.spans: list[list] = []

    def _open(self, name: str) -> tuple[list, contextvars.Token]:
        span = [name, time.perf_counter(), 0.0, _parent.get(), None]
        self.spans.append(span)
        return span, _parent.set(span)

    @staticmethod
    def _close(span: list, token: contextvars.Token) -> None:
        span[2] = time.perf_counter()
        _parent.reset(token)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``attrs(args, result)`` returns the span's attributes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, token = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span, token)
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_async(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span, token = self._open(name)
            try:
                result = await original(*args, **kwargs)
            finally:
                self._close(span, token)
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public call of every layer the benchmark budgets."""
        from repro.core.predictors import RegressionPredictor
        from repro.durability.checkpoint import CheckpointManager
        from repro.durability.journal import WriteAheadJournal
        from repro.durability.recovery import RecoveryManager
        from repro.serving.engine import FleetEngine
        from repro.serving.gateway import (
            REQUEST_ID_HEADER,
            FleetGateway,
            GatewayResponse,
        )
        from repro.serving.kernel_cache import CompiledModelCache
        from repro.serving.persistence import ModelStore
        from repro.serving.service import Forecast, MaintenancePredictionService

        self.wrap_async(
            FleetGateway,
            "handle_request",
            "gateway.request",
            lambda args, response: {
                "rid": response.headers.get(REQUEST_ID_HEADER),
                "status": response.status,
            },
        )
        self.wrap(Forecast, "to_dict", "gateway.to_dict")
        self.wrap(
            GatewayResponse,
            "encode",
            "gateway.encode",
            lambda args, _: {"rid": args[0].headers.get(REQUEST_ID_HEADER)},
        )
        self.wrap(
            FleetEngine,
            "predict_many",
            "engine.predict_many",
            lambda args, _: {"ids": list(args[1])},
        )

        def undurable(args, _):
            manager = args[0].durability
            journal = None if manager is None else manager.journal
            if journal is None:
                return None
            return {"undurable": journal.last_seq - journal.durable_seq}

        self.wrap(FleetEngine, "ingest_records", "engine.ingest_records", undurable)
        self.wrap(
            MaintenancePredictionService,
            "predict_batch",
            "service.predict_batch",
            lambda args, _: {"n": len(args[1])},
        )
        self.wrap(MaintenancePredictionService, "ingest", "service.ingest")
        self._wrap_kernels(CompiledModelCache)
        self.wrap(RegressionPredictor, "fit", "train.fit")
        self.wrap(ModelStore, "save", "store.save")
        self.wrap(ModelStore, "load", "store.load")
        self.wrap(
            WriteAheadJournal,
            "append",
            "journal.append",
            lambda args, _: {"fsyncs": args[0].fsyncs},
        )
        self.wrap(
            RecoveryManager,
            "checkpoint",
            "checkpoint",
            lambda args, _: {"fsyncs": args[0].journal.fsyncs},
        )
        self.wrap(
            CheckpointManager,
            "save",
            "checkpoint.save",
            lambda args, path: {"bytes": path.stat().st_size},
        )

    def _wrap_kernels(self, cache_class) -> None:
        """Trace ``.predict`` of every kernel the cache hands out."""
        recorder = self
        original = cache_class.get

        class TracedKernel:
            __slots__ = ("_kernel", "batch_safe")

            def __init__(self, kernel):
                self._kernel = kernel
                self.batch_safe = kernel.batch_safe

            def predict(self, X):
                span, token = recorder._open("kernel.predict")
                try:
                    return self._kernel.predict(X)
                finally:
                    recorder._close(span, token)
                    span[4] = {"rows": len(X)}

        @functools.wraps(original)
        def get(self, scope, model, version):
            kernel = original(self, scope, model, version)
            return None if kernel is None else TracedKernel(kernel)

        cache_class.get = get

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, None if parent is None else index[id(parent)], attrs]
            for name, start, end, parent, attrs in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import cli

    if trace_out is None:
        return cli.main(["serve", *argv])
    recorder = SpanRecorder()
    recorder.install()
    try:
        return cli.main(["serve", *argv])
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
