"""SIGKILL kill-recovery drill: acknowledged writes must survive."""

import json

from repro.cli import main
from repro.durability.drill import generate_ops, kill_recovery_drill


def dry_run(state_dir, capsys) -> dict:
    """``repro recover --dry-run --json`` report of a state dir."""
    argv = ["recover", "--state", str(state_dir), "--dry-run", "--json"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _dump(ops) -> str:
    # json round-trip: op streams contain NaN, which breaks == directly.
    return json.dumps(ops)


class TestGenerateOps:
    def test_deterministic(self):
        assert _dump(generate_ops(3, 10, seed=7)) == _dump(
            generate_ops(3, 10, seed=7)
        )
        assert _dump(generate_ops(3, 10, seed=7)) != _dump(
            generate_ops(3, 10, seed=8)
        )

    def test_registers_before_ingests(self):
        ops = generate_ops(2, 5, seed=0)
        kinds = [op["op"] for op in ops]
        first_ingest = kinds.index("ingest")
        assert all(k in ("register", "series") for k in kinds[:first_ingest])


class TestKillRecovery:
    def test_clean_kill_recovers_bit_identical(self, tmp_path, capsys):
        report = kill_recovery_drill(
            tmp_path / "drill",
            n_vehicles=3,
            days=12,
            seed=0,
            kill_after=20,
            throttle_ms=0.5,
        )
        assert report["ok"], report
        assert report["killed"]
        assert report["acked_survived"]
        assert report["forecasts_match"]
        assert report["health_match"]
        # Every ack was durable when sent, and recovery kept them all:
        # ops map 1:1 onto journal records here.
        assert report["acks_durable"]
        assert report["applied_acked"] == report["durable_acked"]
        assert report["acked_seq"] == report["applied_acked"]
        assert report["last_seq"] >= report["acked_seq"]
        # The drill recovered a copy: ``state/`` is left as the worker
        # died, with journal records past its last checkpoint.
        dry = dry_run(tmp_path / "drill" / "state", capsys)
        assert dry["replay_needed"] > 0
        assert dry["journal"]["torn_tail_bytes"] == 0

    def test_torn_tail_kill_recovers(self, tmp_path, capsys):
        report = kill_recovery_drill(
            tmp_path / "drill",
            n_vehicles=3,
            days=12,
            seed=1,
            kill_after=18,
            torn_tail=True,
            throttle_ms=0.5,
        )
        assert report["ok"], report
        assert report["torn_tail"]
        assert report["torn_records_dropped"] >= 1
        assert report["applied_acked"] == report["durable_acked"]
        assert report["last_seq"] >= report["acked_seq"]
        assert report["acked_survived"]
        assert report["forecasts_match"]
        dry = dry_run(tmp_path / "drill" / "state", capsys)
        assert dry["replay_needed"] > 0
        assert dry["journal"]["torn_tail_bytes"] > 0
