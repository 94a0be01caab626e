"""Unit tests for the write-ahead journal: framing, rotation, repair."""

import numpy as np
import pytest

from repro.durability import (
    JournalCorruptError,
    WriteAheadJournal,
    decode_f64,
    decode_record,
    encode_f64,
    encode_record,
)


class TestFraming:
    def test_round_trip_flat_payload(self):
        line = encode_record(7, "ingest", {"v": "truck-01", "s": 12345, "d": 3})
        record = decode_record(line)
        assert record.seq == 7
        assert record.kind == "ingest"
        assert record.payload == {"v": "truck-01", "s": 12345, "d": 3}

    def test_round_trip_array_payload(self):
        values = np.array([1.5, float("nan"), -0.0, 2e300])
        line = encode_record(1, "day", {"u": values, "d": 9})
        record = decode_record(line)
        restored = decode_f64(record.payload["u"])
        assert restored.tobytes() == values.tobytes()  # bit-exact, NaN-safe

    def test_fast_path_matches_json_encoder(self):
        # The hand-framed fast path must emit byte-identical JSON to the
        # sorted-key encoder, or mixed-version journals would not be
        # comparable line by line.
        import json

        line = encode_record(3, "register", {"v": "v01", "t": 200000})
        body = line.rsplit(b" ", 1)[0]
        assert json.loads(body) == {"q": 3, "k": "register", "v": "v01",
                                    "t": 200000}
        assert body == json.dumps(
            {"q": 3, "k": "register", "v": "v01", "t": 200000},
            separators=(",", ":"),
            sort_keys=True,
        ).encode()

    def test_escape_fallback(self):
        line = encode_record(1, "weird", {"x": 'needs "quotes"', "y": "caffè"})
        record = decode_record(line)
        assert record.payload == {"x": 'needs "quotes"', "y": "caffè"}

    def test_crc_rejects_flipped_byte(self):
        line = bytearray(encode_record(1, "ingest", {"v": "v01", "s": 100}))
        line[5] ^= 0x01
        with pytest.raises(ValueError, match="CRC"):
            decode_record(bytes(line))


class TestAppendReplay:
    def test_reopen_replays_committed_records(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j") as journal:
            for i in range(5):
                journal.append("ingest", v="v01", s=i)
            assert journal.last_seq == 5
        reopened = WriteAheadJournal(tmp_path / "j")
        records = list(reopened.replay())
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert [r.payload["s"] for r in records] == list(range(5))
        reopened.close()

    def test_replay_after_seq(self, tmp_path):
        with WriteAheadJournal(tmp_path / "j") as journal:
            for i in range(4):
                journal.append("ingest", v="v01", s=i)
            assert [r.seq for r in journal.replay(after_seq=2)] == [3, 4]

    def test_group_commit_durable_seq(self, tmp_path):
        journal = WriteAheadJournal(tmp_path / "j")
        journal.append("register", v="v01")
        journal.append("day", vs=["v01"], u=np.array([1.0]))
        journal.append("day", vs=["v01"], u=np.array([2.0]))
        assert journal.durable_seq == 0  # appends alone are not durable
        assert journal.sync() == 3  # one fsync commits all three
        assert journal.fsyncs == 1
        assert journal.sync() == 3  # nothing pending: no second fsync
        assert journal.fsyncs == 1
        assert journal.entries_appended == 3  # two readings + a register
        journal.close()

    def test_segment_rotation(self, tmp_path):
        journal = WriteAheadJournal(
            tmp_path / "j", segment_max_bytes=1024
        )
        for i in range(60):
            journal.append("ingest", v="v01", s=i)
        assert journal.segment_count() > 1
        journal.close()
        reopened = WriteAheadJournal(tmp_path / "j")
        assert [r.seq for r in reopened.replay()] == list(range(1, 61))
        reopened.close()

    def test_prune_drops_old_segments(self, tmp_path):
        journal = WriteAheadJournal(
            tmp_path / "j", segment_max_bytes=1024
        )
        for i in range(100):
            journal.append("ingest", v="v01", s=i)
        before = journal.segment_count()
        assert before > 2
        journal.prune(up_to_seq=80)
        assert journal.segment_count() < before
        # Everything past the prune point must still replay.
        seqs = [r.seq for r in journal.replay(after_seq=80)]
        assert seqs == list(range(81, 101))
        journal.close()


class TestRepair:
    def _journal_with_records(self, root, n=4):
        with WriteAheadJournal(root) as journal:
            for i in range(n):
                journal.append("ingest", v="v01", s=i)

    def test_torn_tail_truncated_on_open(self, tmp_path):
        self._journal_with_records(tmp_path / "j")
        segment = sorted((tmp_path / "j").glob("seg-*.jrnl"))[-1]
        data = segment.read_bytes()
        last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
        torn_at = last_line_start + (len(data) - last_line_start) // 2
        segment.write_bytes(data[:torn_at])

        reopened = WriteAheadJournal(tmp_path / "j")
        assert reopened.last_seq == 3  # final record dropped
        assert [r.seq for r in reopened.replay()] == [1, 2, 3]
        # The torn fragment is physically gone: appends go after seq 3.
        seq = reopened.append("ingest", v="v01", s=99)
        assert seq == 4
        reopened.close()
        final = WriteAheadJournal(tmp_path / "j")
        assert [r.payload["s"] for r in final.replay()] == [0, 1, 2, 99]
        final.close()

    def test_mid_segment_damage_is_corruption(self, tmp_path):
        self._journal_with_records(tmp_path / "j")
        segment = sorted((tmp_path / "j").glob("seg-*.jrnl"))[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]
        segment.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptError):
            WriteAheadJournal(tmp_path / "j")

    def test_scan_reports_torn_bytes(self, tmp_path):
        self._journal_with_records(tmp_path / "j")
        segment = sorted((tmp_path / "j").glob("seg-*.jrnl"))[-1]
        segment.write_bytes(segment.read_bytes()[:-7])
        report = WriteAheadJournal.scan(tmp_path / "j")
        assert report["last_seq"] == 3
        assert report["torn_tail_bytes"] > 0


class TestEncodeF64:
    def test_bit_exact(self):
        values = np.array([0.1, -0.0, float("inf"), float("nan"), 1e-320])
        restored = decode_f64(encode_f64(values))
        assert restored.tobytes() == values.tobytes()

    def test_empty(self):
        assert decode_f64(encode_f64(np.array([]))).size == 0
