"""Scope-keyed cache of compiled inference kernels for the serving layer.

The service's Section-4 routing serves a handful of *shared* model
identities — each old vehicle's champion, the fleet-wide ``Model_Uni``,
one ``Model_Sim`` per similarity donor.  Flattening an ensemble into its
:mod:`repro.learn.compiled` kernel costs a few milliseconds, so the
predict path caches one compiled artifact per serving scope.  Each
entry holds a *weak reference* to the model it was compiled from and
hits only while that reference still resolves to the very object being
looked up (and the scope's version token matches).  A retrained,
promoted, rolled-back or restored model is a different object, so the
lookup misses and recompiles — even when the new model lives at a
freed model's address (CPython reuses addresses, so ``id()`` alone
cannot tell the two apart).  :meth:`CompiledModelCache.invalidate`
only releases memory early; correctness never depends on it.

All counters mutate under one lock; :meth:`stats` is the
consolidated-metrics ``kernel`` section: compile count/time, hit rate,
and a rows-per-batch histogram in power-of-two buckets.
"""

from __future__ import annotations

import threading
import time
import weakref

from ..learn.compiled import try_compile

__all__ = ["CompiledModelCache"]


class CompiledModelCache:
    """Compiled-kernel cache keyed by serving scope."""

    def __init__(self):
        self._lock = threading.Lock()
        # scope -> (weakref to the model, version token, compiled
        # kernel | None).  ``None`` kernels are cached too: an
        # uncompilable model should not re-attempt compilation on
        # every batch.
        self._entries: dict[
            str, tuple[weakref.ref, object, object | None]
        ] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._compile_count = 0
        self._compile_seconds = 0.0
        self._batches = 0
        self._batched_rows = 0
        self._max_rows = 0
        self._row_buckets: dict[str, int] = {}

    def get(self, scope: str, model, version):
        """The compiled kernel for ``model`` serving under ``scope``.

        ``version`` is the scope's freshness token (any equality-
        comparable value).  Returns ``None`` when the model cannot be
        compiled — callers fall back to the model's own ``predict``.
        """
        with self._lock:
            entry = self._entries.get(scope)
            if (
                entry is not None
                and entry[0]() is model
                and entry[1] == version
            ):
                self._hits += 1
                return entry[2]
        started = time.perf_counter()
        compiled = try_compile(model)
        elapsed = time.perf_counter() - started
        with self._lock:
            self._misses += 1
            self._compile_count += 1
            self._compile_seconds += elapsed
            self._entries[scope] = (weakref.ref(model), version, compiled)
        return compiled

    def invalidate(self, scope: str | None = None) -> int:
        """Drop one scope's compiled kernel (or all of them)."""
        with self._lock:
            if scope is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                dropped = 1 if self._entries.pop(scope, None) is not None else 0
            self._invalidations += dropped
            return dropped

    def record_batch(self, rows: int) -> None:
        """Account one kernel call covering ``rows`` stacked vehicles."""
        bucket = 1
        while bucket < rows:
            bucket *= 2
        label = f"<={bucket}"
        with self._lock:
            self._batches += 1
            self._batched_rows += rows
            if rows > self._max_rows:
                self._max_rows = rows
            self._row_buckets[label] = self._row_buckets.get(label, 0) + 1

    def stats(self) -> dict:
        """JSON-ready snapshot for the ``kernel`` metrics section."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "invalidations": self._invalidations,
                "compile_count": self._compile_count,
                "compile_seconds": self._compile_seconds,
                "entries": len(self._entries),
                "batches": self._batches,
                "batched_rows": self._batched_rows,
                "mean_rows_per_batch": (
                    self._batched_rows / self._batches if self._batches else 0.0
                ),
                "max_rows_per_batch": self._max_rows,
                "batch_rows": dict(
                    sorted(
                        self._row_buckets.items(),
                        key=lambda kv: int(kv[0][2:]),
                    )
                ),
            }
