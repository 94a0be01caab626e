"""Pure statistics for the latency-budget benchmark.

Nothing here imports the program under test, so ``pytest
benchmarks/budget`` checks these rules without a server.  The rules:

* percentiles are nearest-rank (an observed sample, never an
  interpolation), and the reported tail is the highest percentile that
  still has at least ten samples beyond it;
* open-loop latency runs from a request's *due* time, so a stall also
  charges every request that was due behind it; a failed request has
  infinite latency and so misses any limit;
* read arrivals are a Poisson process with a fixed count: given ``n``
  arrivals in a window, their times are ``n`` sorted uniform draws;
* a ladder rung passes when nothing failed and its tail meets the limit,
  and the ladder stops at the first rung that does not;
* a span's self time is its duration minus the part of its interval its
  children cover;
* a change's verdict against its parent follows the paired-run rule of
  the benchmark's README.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

__all__ = [
    "TAIL_BEYOND",
    "percentile",
    "tail_percentile",
    "tail",
    "due_latencies",
    "poisson_arrivals",
    "rung_passes",
    "ladder_max_rate",
    "covered",
    "self_times",
    "quartiles",
    "spread",
    "verdict",
]

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND, cap: float = 99.0) -> float:
    """Highest percentile, in steps of 0.1 and at most ``cap``, that
    leaves at least ``beyond`` of ``n`` samples above its nearest rank."""
    if n <= beyond:
        raise ValueError(
            f"{n} samples cannot leave {beyond} beyond any percentile"
        )
    p = math.floor(1000.0 * (n - beyond) / n) / 10.0
    return min(p, cap)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(p, value)``: the tail percentile of ``values`` and its sample."""
    p = tail_percentile(len(values), beyond)
    return p, percentile(values, p)


def due_latencies(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float]:
    """Latency of each request from its due time; ``None`` (failed) is
    infinite, so it misses every limit and sorts last."""
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [math.inf if d is None else d - t for t, d in zip(due, done)]


def poisson_arrivals(rng, rate: float, duration: float, start: float = 0.0) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` over a window.

    The count is fixed at ``round(rate * duration)`` and the times are
    that many sorted uniform draws — the Poisson process conditioned on
    its count — so every seed yields the same sample size and the tail
    rule picks the same percentile.  ``rng`` is a
    :class:`numpy.random.Generator`.
    """
    if rate < 0 or duration < 0:
        raise ValueError("rate and duration must be >= 0")
    n = int(round(rate * duration))
    return sorted(start + duration * float(u) for u in rng.random(n))


def rung_passes(latencies: Sequence[float], p: float, limit: float) -> bool:
    """Whether one ladder rung met its SLO: every request succeeded
    (a failure is an infinite latency) and the ``p``-th percentile is
    within ``limit``."""
    if not latencies or any(math.isinf(x) for x in latencies):
        return False
    return percentile(latencies, p) <= limit


def ladder_max_rate(rungs: Iterable[tuple[float, bool]]) -> float | None:
    """Highest rate of the passing prefix of ``(rate, passed)`` rungs,
    in the order they ran; ``None`` when the first rung failed."""
    best = None
    for rate, passed in rungs:
        if not passed:
            break
        best = rate
    return best


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: dict) -> dict:
    """Self time of every span in ``{id: (parent_id, start, end)}``.

    A span's self time is its duration minus the part of its interval
    covered by its children (the spans naming it as parent).
    """
    children: dict = {}
    for span_id, (parent, start, end) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start)
        - covered(children.get(span_id, ()), start, end)
        for span_id, (parent, start, end) in spans.items()
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: interquartile distance over the median (0 for
    identical runs, even at a median of 0)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2) if q2 else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> tuple[str, float]:
    """``(verdict, win_share)`` of a change's runs against its parent's.

    Runs pair up in the order given (the sides ran alternately); the
    change wins a pair when it reads better, and ties count for neither.
    The verdict is, in order:

    * ``improved`` — the change won at least nine tenths of the pairs
      and its median is better than the parent's by more than the
      parent's interquartile distance;
    * ``unresolved`` — either side's run-to-run spread exceeds
      ``bound``, unless the sides do not overlap (every change run reads
      better, or every one worse, than every parent run): noise that
      wide cannot show a regression within the bound;
    * ``regressed`` — the change's median is worse than the parent's by
      more than ``bound`` times the parent's median;
    * ``no worse`` — otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("need at least one run on each side")
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (pm - cm)  # > 0 when the change reads better
    if share >= 0.9 and gain > p3 - p1:
        return "improved", share
    separated = all(sign * (a - b) > 0 for a in parent for b in change) or all(
        sign * (a - b) < 0 for a in parent for b in change
    )
    if max(spread(parent), spread(change)) > bound and not separated:
        return "unresolved", share
    if -gain > bound * abs(pm):
        return "regressed", share
    return "no worse", share
