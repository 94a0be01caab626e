"""Maintenance-cycle segmentation and the derived series of Section 2.

A *cycle* is "the period from one maintenance operation to the next one".
Maintenance is due once cumulative utilization since the last maintenance
reaches the allowed budget ``T_v`` ("After a fixed time amount of usage
(we have considered T_v = 2 000 000 seconds), every vehicle needs to go
under maintenance").

Given a daily utilization series ``U_v(t)`` this module derives the three
series that drive the prediction problem:

* ``C_v(t)`` — days already passed since the last maintenance;
* ``L_v(t)`` — utilization seconds left before the next maintenance at
  the *start* of day ``t`` (Eq. 1);
* ``D_v(t)`` — the target: days left until the next maintenance (0 on
  the day the budget is exhausted; NaN inside an incomplete final cycle,
  where the ground truth is not yet known).

The segmentation accepts an arbitrary accumulation start day, which is
what the paper's time-shift re-sampling augmentation exploits ("we can
shift the time reference, i.e., changing the first starting day t = 0,
without introducing errors").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cycle",
    "SeriesBundle",
    "segment_cycles",
    "derive_series",
    "IncrementalSeriesState",
]


@dataclass(frozen=True)
class Cycle:
    """One maintenance cycle.

    Attributes
    ----------
    start:
        First day index of the cycle.
    end:
        Last day index (inclusive).  For a completed cycle this is the
        day the usage budget was exhausted (the maintenance day); for
        the trailing incomplete cycle it is the last observed day.
    completed:
        Whether the budget was exhausted within the observed data.
    total_usage:
        Seconds of utilization accumulated over the cycle's days.
    """

    start: int
    end: int
    completed: bool
    total_usage: float

    @property
    def n_days(self) -> int:
        """Cycle length in days (inclusive of both endpoints)."""
        return self.end - self.start + 1


def _validate_usage(usage) -> np.ndarray:
    usage = np.asarray(usage, dtype=np.float64)
    if usage.ndim != 1:
        raise ValueError(f"usage must be 1-D, got shape {usage.shape}.")
    if not np.isfinite(usage).all():
        raise ValueError(
            "usage contains NaN/inf; run repro.dataprep.cleaning first."
        )
    if usage.size and usage.min() < 0:
        raise ValueError("usage must be non-negative.")
    return usage


def segment_cycles(usage, t_v: float, start: int = 0) -> list[Cycle]:
    """Split a utilization series into maintenance cycles.

    Parameters
    ----------
    usage:
        Daily utilization seconds, 1-D.
    t_v:
        Usage budget per cycle, seconds.
    start:
        Day index where budget accumulation begins (days before ``start``
        belong to no cycle).  This is the shifted time reference of the
        augmentation strategy in Section 4.

    Returns
    -------
    list of :class:`Cycle`, in chronological order.  The last cycle has
    ``completed=False`` if the data ends before its budget is exhausted;
    a trailing cycle is only emitted if at least one day belongs to it.
    """
    usage = _validate_usage(usage)
    if t_v <= 0:
        raise ValueError(f"t_v must be positive, got {t_v}.")
    n = usage.size
    if not 0 <= start <= n:
        raise ValueError(f"start={start} outside [0, {n}].")

    cycles: list[Cycle] = []
    cycle_start = start
    accumulated = 0.0
    for day in range(start, n):
        accumulated += usage[day]
        if accumulated >= t_v:
            cycles.append(
                Cycle(
                    start=cycle_start,
                    end=day,
                    completed=True,
                    total_usage=accumulated,
                )
            )
            cycle_start = day + 1
            accumulated = 0.0
    if cycle_start < n:
        cycles.append(
            Cycle(
                start=cycle_start,
                end=n - 1,
                completed=False,
                total_usage=accumulated,
            )
        )
    return cycles


@dataclass(frozen=True)
class SeriesBundle:
    """The derived series ``C``, ``L``, ``D`` aligned with ``usage``.

    Days outside any cycle (before the accumulation start) hold NaN in
    all three arrays; days inside the trailing incomplete cycle hold NaN
    in ``D`` only (the label does not exist yet) but valid ``C``/``L``.
    """

    usage: np.ndarray
    t_v: float
    start: int
    cycles: tuple[Cycle, ...]
    days_since_maintenance: np.ndarray  # C_v(t)
    usage_left: np.ndarray  # L_v(t)
    days_to_maintenance: np.ndarray  # D_v(t)

    @property
    def n_days(self) -> int:
        return int(self.usage.size)

    @property
    def completed_cycles(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if c.completed)

    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask of days with a defined target ``D_v(t)``."""
        return np.isfinite(self.days_to_maintenance)


def derive_series(usage, t_v: float, start: int = 0) -> SeriesBundle:
    """Compute ``C_v``, ``L_v`` (Eq. 1) and the target ``D_v``.

    ``L_v(t)`` is the budget minus usage accumulated on days *before*
    ``t`` within the current cycle, exactly Eq. 1 of the paper:
    ``L_v(t) = T_v - sum_{i=t-C_v(t)}^{t-1} U_v(i)``.
    """
    usage = _validate_usage(usage)
    cycles = segment_cycles(usage, t_v, start=start)
    n = usage.size
    c_series = np.full(n, np.nan)
    l_series = np.full(n, np.nan)
    d_series = np.full(n, np.nan)

    for cycle in cycles:
        days = np.arange(cycle.start, cycle.end + 1)
        c_series[days] = days - cycle.start
        cumulative_before = np.concatenate(
            [[0.0], np.cumsum(usage[cycle.start : cycle.end])]
        )
        l_series[days] = t_v - cumulative_before
        if cycle.completed:
            d_series[days] = cycle.end - days

    return SeriesBundle(
        usage=usage,
        t_v=float(t_v),
        start=start,
        cycles=tuple(cycles),
        days_since_maintenance=c_series,
        usage_left=l_series,
        days_to_maintenance=d_series,
    )


class IncrementalSeriesState:
    """Incremental counterpart of :func:`derive_series`.

    Appending one day of utilization updates ``C``, ``L`` and the open
    cycle in O(1) (amortized); completing a cycle back-fills that
    cycle's ``D`` labels, which is O(cycle length) exactly once per
    cycle — so ingesting an ``n``-day history costs O(n) total instead
    of the O(n^2) of re-deriving from scratch after every day.

    The arithmetic mirrors the batch path operation-for-operation (the
    same sequential accumulation order), so :meth:`bundle` is
    bit-identical to ``derive_series(usage, t_v, start)`` on the same
    history — the property suite pins this equivalence exactly.
    """

    def __init__(self, t_v: float, start: int = 0):
        if t_v <= 0:
            raise ValueError(f"t_v must be positive, got {t_v}.")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}.")
        self.t_v = float(t_v)
        self.start = int(start)
        self._n = 0
        self._usage = np.empty(16, dtype=np.float64)
        self._c = np.empty(16, dtype=np.float64)
        self._l = np.empty(16, dtype=np.float64)
        self._d = np.empty(16, dtype=np.float64)
        self._completed: list[Cycle] = []
        self._cycle_start = self.start
        self._accumulated = 0.0

    @classmethod
    def from_usage(cls, usage, t_v: float, start: int = 0) -> "IncrementalSeriesState":
        """Build the state from an existing history in one pass."""
        usage = _validate_usage(usage)
        if start > usage.size:
            raise ValueError(f"start={start} outside [0, {usage.size}].")
        state = cls(t_v, start=start)
        state.extend(usage)
        return state

    @property
    def n_days(self) -> int:
        return self._n

    @property
    def completed_cycles(self) -> tuple[Cycle, ...]:
        return tuple(self._completed)

    @property
    def usage(self) -> np.ndarray:
        """The observed utilization series (read-only view)."""
        return self._usage[: self._n]

    @property
    def usage_left(self) -> np.ndarray:
        """``L_v(t)`` as of the latest appended day (read-only view)."""
        return self._l[: self._n]

    def _grow(self) -> None:
        if self._n < self._usage.size:
            return
        capacity = max(16, 2 * self._usage.size)
        for name in ("_usage", "_c", "_l", "_d"):
            fresh = np.empty(capacity, dtype=np.float64)
            fresh[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, fresh)

    def append(self, value: float) -> None:
        """Ingest one day of utilization."""
        value = float(value)
        if not np.isfinite(value) or value < 0:
            raise ValueError(
                f"usage must be finite and non-negative, got {value}."
            )
        self._grow()
        day = self._n
        if day < self.start:
            self._c[day] = np.nan
            self._l[day] = np.nan
            self._d[day] = np.nan
        else:
            self._c[day] = day - self._cycle_start
            self._l[day] = self.t_v - self._accumulated
            self._d[day] = np.nan
            self._accumulated += value
            if self._accumulated >= self.t_v:
                self._completed.append(
                    Cycle(
                        start=self._cycle_start,
                        end=day,
                        completed=True,
                        total_usage=self._accumulated,
                    )
                )
                days = np.arange(self._cycle_start, day + 1)
                self._d[days] = day - days
                self._cycle_start = day + 1
                self._accumulated = 0.0
        self._usage[day] = value
        self._n += 1

    def extend(self, usage) -> None:
        """Ingest several days in order."""
        for value in np.asarray(usage, dtype=np.float64):
            self.append(value)

    def bundle(self) -> SeriesBundle:
        """Snapshot of the derived series as of the latest appended day.

        ``usage``/``C``/``L`` are zero-copy views (their past entries are
        never rewritten); ``D`` is copied because a later cycle
        completion back-fills labels inside the currently open cycle.
        """
        n = self._n
        cycles = list(self._completed)
        if self._cycle_start < n:
            cycles.append(
                Cycle(
                    start=self._cycle_start,
                    end=n - 1,
                    completed=False,
                    total_usage=self._accumulated,
                )
            )
        return SeriesBundle(
            usage=self._usage[:n],
            t_v=self.t_v,
            start=self.start,
            cycles=tuple(cycles),
            days_since_maintenance=self._c[:n],
            usage_left=self._l[:n],
            days_to_maintenance=self._d[:n].copy(),
        )
