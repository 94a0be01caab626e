"""Write-ahead ingestion journal: append-only, CRC-framed, crash-safe.

The journal is a directory of JSON-lines *segments*.  Each line frames
one record::

    {"d":12,"k":"day","q":17,"u":"zczMzEzw0EA=","vs":["v03"]} 1a2b3c4d\n

The JSON object carries the record's monotonically increasing sequence
number (``q``), its kind (``k``) and the kind-specific payload; the
trailing hex token is the CRC-32 of the JSON bytes.  A record is only
*committed* once its full line (CRC included) is on disk — a torn
write at a crash leaves an unparseable or checksum-divergent tail,
which :class:`WriteAheadJournal` truncates away when the directory is
reopened.  Corruption *before* the tail is a different animal (bit
rot, not a crash) and raises :exc:`JournalCorruptError` instead of
being silently dropped.

Appends collect in a process buffer; :meth:`WriteAheadJournal.sync`
writes and fsyncs everything pending in one call (group commit), and
``durable_seq`` tracks the last sequence number known to be on stable
storage.  The ingest path
(:meth:`~repro.serving.service.MaintenancePredictionService.ingest_batch`)
syncs each request before its ack, so an acknowledged reading is never
lost; the records appended since the previous sync — auto-registrations
of the same request, lifecycle decisions — ride on that same fsync.
Segment rotation and :meth:`~WriteAheadJournal.close` sync as well.

Ingest records (kind ``day``) carry their float64 readings as base64
of the raw little-endian bytes (:func:`encode_f64`), so replay is
bit-exact — including NaN payloads from dirty telemetry feeds — and
the per-reading encode cost is a few tens of nanoseconds instead of a
``repr`` per float.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "JournalCorruptError",
    "JournalRecord",
    "WriteAheadJournal",
    "decode_f64",
    "decode_record",
    "encode_f64",
    "encode_record",
]

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jrnl"

class JournalCorruptError(ValueError):
    """The journal holds damage that torn-tail repair cannot explain.

    Raised for checksum/parse failures *before* the final record of
    the final segment, non-monotonic sequence numbers, and corrupt
    segment file names — all signs of bit rot or tampering rather
    than a crash mid-append.
    """


@dataclass(frozen=True)
class JournalRecord:
    """One committed journal record: sequence number, kind, payload."""

    seq: int
    kind: str
    payload: dict


def encode_f64(values) -> str:
    """Base64 of the little-endian float64 bytes (bit-exact, NaN-safe)."""
    return base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()
    ).decode("ascii")


def decode_f64(data: str) -> np.ndarray:
    """Inverse of :func:`encode_f64` (returns a fresh writable array)."""
    return np.frombuffer(
        base64.b64decode(data.encode("ascii")), dtype="<f8"
    ).copy()


#: Reused encoder: ``json.dumps`` with non-default kwargs constructs a
#: fresh ``JSONEncoder`` per call, which roughly doubles the framing
#: cost on the append hot path.
_JSON_ENCODE = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, allow_nan=True
).encode


def encode_record(seq: int, kind: str, payload: dict) -> bytes:
    """Frame one record as a CRC-terminated JSON line.

    ``numpy`` float arrays among the payload values are encoded with
    :func:`encode_f64` — the serving layer hands readings over as
    arrays and never needs to import this package; the reader knows
    which fields are arrays from the record kind.
    """
    obj = {"q": seq, "k": kind}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            value = encode_f64(value)
        obj[key] = value
    data = _JSON_ENCODE(obj).encode("utf-8")
    return data + b" %08x\n" % (zlib.crc32(data),)


def decode_record(line: bytes) -> JournalRecord:
    """Parse one framed line; raises ``ValueError`` on any damage.

    The caller decides whether damage means *torn tail* (truncate) or
    *corruption* (raise :exc:`JournalCorruptError`) from the line's
    position in the segment.
    """
    body, _, crc_token = line.rstrip(b"\n").rpartition(b" ")
    if not body:
        raise ValueError("unframed journal line")
    try:
        expected = int(crc_token, 16)
    except ValueError:
        raise ValueError(f"bad CRC token {crc_token!r}") from None
    actual = zlib.crc32(body)
    if actual != expected:
        raise ValueError(
            f"CRC mismatch (stored {expected:08x}, payload {actual:08x})"
        )
    obj = json.loads(body.decode("utf-8"))
    if not isinstance(obj, dict) or "q" not in obj or "k" not in obj:
        raise ValueError("journal record missing 'q'/'k' fields")
    seq = obj.pop("q")
    kind = obj.pop("k")
    if not isinstance(seq, int) or seq < 1:
        raise ValueError(f"bad sequence number {seq!r}")
    return JournalRecord(seq=seq, kind=kind, payload=obj)


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise JournalCorruptError(
            f"unparseable segment name {path.name!r}"
        ) from None


@dataclass
class _ScanResult:
    """What a read-only pass over the segment files found."""

    segments: list[Path] = field(default_factory=list)
    records: int = 0
    first_seq: int | None = None
    last_seq: int = 0
    torn_bytes: int = 0  # trailing bytes a repair pass would drop
    torn_segment: Path | None = None
    torn_offset: int = 0


class WriteAheadJournal:
    """Append-only journal over CRC-framed JSON-lines segments.

    Parameters
    ----------
    root:
        Journal directory (created if missing).  Segments are named by
        the sequence number of their first record, so replay can skip
        whole segments below a checkpoint's high-water mark.
    segment_max_bytes:
        Rotate to a fresh segment beyond this size.
    repair:
        Truncate a torn tail on open (the default).  ``repair=False``
        raises :exc:`JournalCorruptError` if a torn tail is present —
        the read-only posture of ``repro recover --dry-run``.
    """

    def __init__(
        self,
        root,
        *,
        segment_max_bytes: int = 4 * 1024 * 1024,
        repair: bool = True,
    ):
        if segment_max_bytes < 1024:
            raise ValueError(
                f"segment_max_bytes must be >= 1024, got {segment_max_bytes}."
            )
        self.root = Path(root)
        self.segment_max_bytes = segment_max_bytes
        self.root.mkdir(parents=True, exist_ok=True)

        self.records_appended = 0
        #: Readings appended (a record without readings counts one):
        #: the unit :class:`~repro.durability.recovery.RecoveryManager`
        #: spaces checkpoints by, since replay cost grows with readings.
        self.entries_appended = 0
        self.fsyncs = 0
        self.torn_records_dropped = 0

        scan = self._scan(self.root)
        if scan.torn_bytes:
            if not repair:
                raise JournalCorruptError(
                    f"torn tail of {scan.torn_bytes} bytes in "
                    f"{scan.torn_segment.name} (repair disabled)"
                )
            with open(scan.torn_segment, "r+b") as fh:
                fh.truncate(scan.torn_offset)
                fh.flush()
                os.fsync(fh.fileno())
            self.torn_records_dropped += 1

        self._segments = scan.segments
        self._last_seq = scan.last_seq
        self._durable_seq = scan.last_seq  # on-disk state is durable
        self._pending = 0
        self._file = None
        self._file_size = 0
        # Appends accumulate here and reach the OS on flush/fsync/
        # rotation; a BufferedWriter.write per record costs ~2-3 us of
        # lock + memcpy overhead that a bytearray += avoids.
        self._buffer = bytearray()
        if self._segments:
            tail = self._segments[-1]
            size = tail.stat().st_size
            if size < self.segment_max_bytes:
                self._file = open(tail, "ab")
                self._file_size = size

    # -- scanning ----------------------------------------------------------

    @classmethod
    def _scan(cls, root: Path) -> _ScanResult:
        """Read-only integrity pass over every segment.

        Only the *final* record of the *final* segment may be damaged
        (that is what a crash mid-append produces); anything else
        raises :exc:`JournalCorruptError`.
        """
        result = _ScanResult()
        if not root.is_dir():
            return result
        segments = sorted(
            p
            for p in root.iterdir()
            if p.name.startswith(_SEGMENT_PREFIX)
            and p.name.endswith(_SEGMENT_SUFFIX)
        )
        for path in segments:
            _segment_first_seq(path)  # validates the name
        result.segments = segments
        previous: int | None = None
        for index, path in enumerate(segments):
            is_last_segment = index == len(segments) - 1
            data = path.read_bytes()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                complete = newline != -1
                end = (newline + 1) if complete else len(data)
                line = data[offset:end]
                record = None
                if complete:
                    try:
                        record = decode_record(line)
                    except ValueError:
                        record = None
                if record is None:
                    # Damaged (or unterminated) line: legal only as
                    # the very tail of the very last segment.
                    if is_last_segment and end == len(data):
                        result.torn_bytes = len(data) - offset
                        result.torn_segment = path
                        result.torn_offset = offset
                        return result
                    raise JournalCorruptError(
                        f"damaged record before the tail in {path.name} "
                        f"at byte {offset}"
                    )
                if previous is None:
                    # A pruned journal legitimately starts past 1; the
                    # first retained record anchors the gap check.
                    if record.seq != _segment_first_seq(path):
                        raise JournalCorruptError(
                            f"segment {path.name} opens at seq "
                            f"{record.seq}, not its named first seq"
                        )
                    result.first_seq = record.seq
                elif record.seq != previous + 1:
                    raise JournalCorruptError(
                        f"sequence gap in {path.name}: {record.seq} "
                        f"after {previous}"
                    )
                previous = record.seq
                result.records += 1
                result.last_seq = record.seq
                offset = end
        return result

    @classmethod
    def scan(cls, root) -> dict:
        """Read-only integrity report (``repro recover --dry-run``)."""
        result = cls._scan(Path(root))
        return {
            "segments": len(result.segments),
            "records": result.records,
            "first_seq": result.first_seq,
            "last_seq": result.last_seq,
            "torn_tail_bytes": result.torn_bytes,
        }

    # -- appending ---------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record (0 = empty)."""
        return self._last_seq

    @property
    def durable_seq(self) -> int:
        """Newest sequence number known fsynced to stable storage."""
        return self._durable_seq

    @property
    def first_seq(self) -> int | None:
        """First retained sequence number (``None`` for an empty journal)."""
        if not self._segments:
            return None
        first = _segment_first_seq(self._segments[0])
        return first if self._last_seq >= first else None

    def segment_count(self) -> int:
        return len(self._segments)

    def _open_segment(self, first_seq: int) -> None:
        path = self.root / _segment_name(first_seq)
        self._segments.append(path)
        self._file = open(path, "ab")
        self._file_size = 0

    def append(self, kind: str, **payload) -> int:
        """Append one record; returns its sequence number.

        The record waits in the process buffer until the next
        :meth:`sync` (or :meth:`flush`) hands it to the OS; only a
        synced record survives a crash.
        """
        seq = self._last_seq + 1
        line = encode_record(seq, kind, payload)
        if self._file is None or self._file_size >= self.segment_max_bytes:
            self._rotate(seq)
        self._buffer += line
        self._file_size += len(line)
        self._last_seq = seq
        self.records_appended += 1
        readings = payload.get("u")
        self.entries_appended += 1 if readings is None else len(readings)
        self._pending += 1
        return seq

    def _rotate(self, first_seq: int) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
        self._open_segment(first_seq)

    def sync(self) -> int:
        """Write and fsync every pending record in one group commit;
        returns the durable sequence number (no fsync when nothing is
        pending)."""
        if self._file is not None and self._pending:
            self.flush()
            os.fsync(self._file.fileno())
            self._durable_seq = self._last_seq
            self.fsyncs += 1
            self._pending = 0
        return self._durable_seq

    def flush(self) -> None:
        """Push buffered lines to the OS without fsync (commit, not
        durability) — enough for :meth:`replay` to see them."""
        if self._file is not None:
            if self._buffer:
                self._file.write(bytes(self._buffer))
                self._buffer.clear()
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None

    # -- replay ------------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[JournalRecord]:
        """Yield committed records with ``seq > after_seq``, in order.

        Segments wholly below the mark are skipped without reading
        (their name carries their first sequence number).
        """
        self.flush()
        for index, path in enumerate(self._segments):
            nxt = (
                _segment_first_seq(self._segments[index + 1])
                if index + 1 < len(self._segments)
                else None
            )
            if nxt is not None and nxt <= after_seq + 1:
                continue  # the whole segment is at or below the mark
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        break  # torn tail mid-append from this process
                    try:
                        record = decode_record(line)
                    except ValueError:
                        break
                    if record.seq > after_seq:
                        yield record

    # -- pruning -----------------------------------------------------------

    def prune(self, up_to_seq: int) -> int:
        """Drop whole segments whose records all have ``seq <= up_to_seq``.

        Called after a successful checkpoint; the live (open) segment
        is never dropped.  Returns the number of segments removed.
        """
        removed = 0
        while len(self._segments) > 1:
            nxt_first = _segment_first_seq(self._segments[1])
            if nxt_first - 1 > up_to_seq:
                break
            self._segments[0].unlink()
            self._segments.pop(0)
            removed += 1
        return removed

    def stats(self) -> dict:
        """Counter view for the ``durability`` metrics section."""
        return {
            "last_seq": self._last_seq,
            "durable_seq": self._durable_seq,
            "segments": len(self._segments),
            "records_appended": self.records_appended,
            "fsyncs": self.fsyncs,
            "torn_records_dropped": self.torn_records_dropped,
        }

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
