"""Deterministic fault-injection harness for chaos testing the service.

Reliability code is only trustworthy if its failure paths are exercised,
and failure paths are only testable if the failures replay exactly.
This module injects seeded faults at the seams the resilience layer
guards:

* :class:`FaultInjector` — the seeded scheduler.  Each injection *site*
  (a string like ``"store.save"`` or ``"train"``) gets its own
  deterministic random stream derived from ``(seed, crc32(site))``, so
  whether the N-th call at a site fires depends only on the seed and N —
  not on interleaving with other sites.  Every decision is counted
  (``injector.injected``), which lets chaos tests assert that
  :class:`~repro.serving.reliability.FleetHealth` counters match the
  injected fault counts *exactly*.
* :class:`FaultyStore` — wraps a :class:`~repro.serving.persistence.
  ModelStore` to raise transient ``OSError`` on save/load and to corrupt
  saved payload bytes (checksum verification catches these on load).
* :func:`faulty_predictor_factory` — wraps the algorithm registry so
  ``fit``/``predict`` raise :exc:`InjectedFault` on schedule (plug into
  ``MaintenancePredictionService(predictor_factory=...)``).
* :func:`corrupt_readings` — turns a clean usage array into a dirty
  telemetry feed (non-finite, negative, over-ceiling, duplicated and
  out-of-order reports), with the injector recording exactly what was
  corrupted.
* :class:`FaultyJournal` — wraps a :class:`~repro.durability.journal.
  WriteAheadJournal` with torn-write and partial-fsync injection; the
  standalone :func:`tear_journal_tail` and :func:`plant_stale_lock`
  damage a *closed* state directory the way a crash would.

All sites default to rate 0.0 — an injector with no rates is a no-op,
which is how the clean-path equivalence suite runs the full harness.
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Iterator, Mapping

import numpy as np

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "FaultyStore",
    "FaultyJournal",
    "faulty_predictor_factory",
    "corrupt_readings",
    "plant_stale_lock",
    "tear_journal_tail",
    "READING_SITES",
]


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


#: Sites used by :func:`corrupt_readings`, mapping to the guard's
#: anomaly classes.
READING_SITES: tuple[str, ...] = (
    "reading.non_finite",
    "reading.negative",
    "reading.too_large",
    "reading.duplicate",
    "reading.out_of_order",
)


class FaultInjector:
    """Seeded, per-site deterministic fault scheduler.

    Parameters
    ----------
    seed:
        Master seed; combined with a stable per-site hash so each site
        has an independent, reproducible stream.
    rates:
        ``{site: probability}``; unlisted sites never fire.
    """

    def __init__(self, seed: int = 0, rates: Mapping[str, float] | None = None):
        self.seed = int(seed)
        self.rates = dict(rates or {})
        for site, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"Rate for {site!r} must be in [0, 1], got {rate}.")
        self.calls: Counter = Counter()
        self.injected: Counter = Counter()
        self._rngs: dict[str, np.random.Generator] = {}

    def _rng(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(
                (self.seed, zlib.crc32(site.encode("utf-8")))
            )
            self._rngs[site] = rng
        return rng

    def fires(self, site: str) -> bool:
        """Whether this call at ``site`` injects a fault (and count it)."""
        self.calls[site] += 1
        rate = self.rates.get(site, 0.0)
        if rate > 0.0 and float(self._rng(site).random()) < rate:
            self.injected[site] += 1
            return True
        return False

    def maybe_raise(self, site: str, exc_type=InjectedFault) -> None:
        if self.fires(site):
            raise exc_type(f"injected fault at {site!r} (seed {self.seed})")

    def summary(self) -> dict[str, dict[str, int]]:
        """``{site: {calls, injected}}`` for every site seen."""
        return {
            site: {
                "calls": self.calls[site],
                "injected": self.injected[site],
            }
            for site in sorted(self.calls)
        }


class FaultyStore:
    """A :class:`ModelStore` wrapper with injected storage failures.

    Sites:

    * ``store.save`` — raise ``OSError`` before the underlying save
      (transient from the caller's perspective: a retry re-rolls);
    * ``store.corrupt`` — after a successful save, flip bytes in the
      stored payload (detected by the checksum on load);
    * ``store.load`` — raise ``OSError`` before the underlying load.
    """

    def __init__(self, store, injector: FaultInjector):
        self.store = store
        self.injector = injector

    def save(self, key: str, predictor, metadata: dict | None = None) -> int:
        self.injector.maybe_raise("store.save", OSError)
        version = self.store.save(key, predictor, metadata)
        if self.injector.fires("store.corrupt"):
            pkl_path, _ = self.store._version_paths(key, version)
            payload = bytearray(pkl_path.read_bytes())
            # Truncate and flip the first byte: reliably unreadable and
            # checksum-divergent even for tiny payloads.
            payload = payload[: max(1, len(payload) // 2)]
            payload[0] ^= 0xFF
            pkl_path.write_bytes(bytes(payload))
        return version

    def load(self, key: str, version: int | None = None, **kwargs):
        self.injector.maybe_raise("store.load", OSError)
        return self.store.load(key, version, **kwargs)

    def __getattr__(self, name):
        return getattr(self.store, name)


def faulty_predictor_factory(injector: FaultInjector, base=None):
    """A ``predictor_factory`` whose models fail on the injector's
    schedule — ``fit`` at site ``"train"``, ``predict`` at ``"predict"``.
    """
    if base is None:
        from ..core.registry import make_predictor as base

    def factory(algorithm: str):
        return _FaultyPredictor(base(algorithm), injector)

    return factory


class _FaultyPredictor:
    """Delegating predictor wrapper with injected fit/predict faults."""

    def __init__(self, predictor, injector: FaultInjector):
        self._predictor = predictor
        self._injector = injector

    def fit(self, *args, **kwargs):
        self._injector.maybe_raise("train")
        self._predictor.fit(*args, **kwargs)
        return self

    def predict(self, *args, **kwargs):
        self._injector.maybe_raise("predict")
        return self._predictor.predict(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._predictor, name)


class FaultyJournal:
    """A :class:`~repro.durability.journal.WriteAheadJournal` wrapper
    with injected durability failures.

    Sites:

    * ``journal.append`` — raise ``OSError`` before the append (the
      write never reaches the log);
    * ``journal.torn`` — write only the first half of the framed line
      and raise :exc:`InjectedFault`: exactly the damage a crash mid-
      ``write(2)`` leaves, which reopening must truncate away;
    * ``journal.fsync`` — :meth:`sync` silently skips the fsync (a
      lying disk): ``durable_seq`` stays behind, the acknowledged-write
      guarantee must still hold for what *was* fsynced.
    """

    def __init__(self, journal, injector: FaultInjector):
        self.journal = journal
        self.injector = injector

    def append(self, kind: str, **payload) -> int:
        self.injector.maybe_raise("journal.append", OSError)
        if self.injector.fires("journal.torn"):
            from ..durability.journal import encode_record

            journal = self.journal
            line = encode_record(journal.last_seq + 1, kind, payload)
            # Mirror the real append's rotation, then stop mid-line
            # (private access, like FaultyStore reaching into paths).
            if (
                journal._file is None
                or journal._file_size >= journal.segment_max_bytes
            ):
                journal._rotate(journal.last_seq + 1)
            # Drain buffered whole records first so the torn fragment
            # lands after them, as a crash mid-write(2) would leave it.
            journal.flush()
            journal._file.write(line[: max(1, len(line) // 2)])
            journal._file.flush()
            raise InjectedFault(
                f"injected torn write at seq {journal.last_seq + 1} "
                f"(seed {self.injector.seed})"
            )
        return self.journal.append(kind, **payload)

    def sync(self) -> int:
        if self.injector.fires("journal.fsync"):
            self.journal.flush()  # committed, not durable
            return self.journal.durable_seq
        return self.journal.sync()

    def __getattr__(self, name):
        return getattr(self.journal, name)


def tear_journal_tail(root) -> int:
    """Append a half-written record to the newest journal segment.

    Exactly the artifact a crash mid-``write(2)`` leaves: the next
    record's bytes partially on disk, unterminated, CRC never written.
    Committed records are untouched (a fsynced record cannot be torn by
    a crash), so the acknowledged-write guarantee must survive this —
    reopening truncates only the torn tail.  Returns the number of torn
    bytes planted (0 when the journal directory has no segments).
    """
    from pathlib import Path

    from ..durability.journal import decode_record, encode_record

    segments = sorted(Path(root).glob("seg-*.jrnl"))
    if not segments:
        return 0
    tail = segments[-1]
    last_seq = 0
    for line in tail.read_bytes().splitlines(keepends=True):
        if line.endswith(b"\n"):
            try:
                last_seq = decode_record(line).seq
            except ValueError:
                break
    line = encode_record(last_seq + 1, "ingest", {"v": "torn", "s": 1.0})
    with open(tail, "ab") as fh:
        fh.write(line[: max(1, len(line) // 2)])
        fh.flush()
    return max(1, len(line) // 2)


def plant_stale_lock(state_dir, pid: int | None = None) -> int:
    """Write a lock file naming a dead process into ``state_dir``.

    Simulates the fence a SIGKILLed service leaves behind; recovery
    must detect the pid is gone and steal the lock.  When ``pid`` is
    ``None`` a real just-exited child's pid is used (guaranteed dead,
    never accidentally alive).  Returns the planted pid.
    """
    import subprocess
    import sys
    from pathlib import Path

    from ..durability.recovery import LOCK_FILENAME

    if pid is None:
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        pid = int(probe.stdout.strip())
    path = Path(state_dir) / LOCK_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(str(pid), "ascii")
    return pid


def corrupt_readings(
    injector: FaultInjector, usage
) -> Iterator[tuple[int, float]]:
    """Yield ``(day, value)`` reports from a clean usage array, with
    seeded corruption at the ``reading.*`` sites.

    Value corruptions replace the reading in place; ``duplicate``
    re-sends the current day after it, and ``out_of_order`` re-sends a
    three-days-old report.  ``injector.injected`` counts each corruption
    kind, matching the guard's anomaly counters one-to-one.
    """
    usage = np.asarray(usage, dtype=np.float64)
    for day, value in enumerate(usage):
        value = float(value)
        if injector.fires("reading.non_finite"):
            yield day, float("nan")
        elif injector.fires("reading.negative"):
            yield day, -abs(value) - 1.0
        elif injector.fires("reading.too_large"):
            yield day, 86_400.0 + abs(value) + 1.0
        else:
            yield day, value
        if injector.fires("reading.duplicate"):
            yield day, value
        if day >= 3 and injector.fires("reading.out_of_order"):
            yield day - 3, float(usage[day - 3])
