"""The serving layer's kernel lookup and batch-shape accounting.

Compiled kernels live in one cache, :mod:`repro.learn.compiled`'s,
keyed weakly on the fitted model and tokened on its fitted state.  A
retrained, promoted, rolled-back or restored model is a different
object with its own entry, so nothing here is invalidated and no stale
kernel can serve.  What is left is the predict path's one kernel
lookup, :meth:`CompiledModelCache.get`, and the rows-per-call
histogram of the consolidated-metrics ``kernel`` section.
"""

from __future__ import annotations

import threading

from ..learn.compiled import try_compile

__all__ = ["CompiledModelCache"]


class CompiledModelCache:
    """Kernel lookup plus per-call batch-shape counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._batches = 0
        self._batched_rows = 0
        self._max_rows = 0
        self._row_buckets: dict[str, int] = {}

    def get(self, scope: str, model, version):
        """The compiled kernel for ``model``, or ``None`` when it has
        none (callers fall back to the model's own ``predict``).

        ``scope`` and ``version`` name the model-table row being served;
        the kernel depends on ``model`` alone.
        """
        return try_compile(model)

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
            return {
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
