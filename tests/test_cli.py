"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerateAndCalibrate:
    def test_generate_writes_fleet(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--vehicles",
                "3",
                "--seed",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet_usage.csv" in out
        assert "3 vehicles" in out
        assert (tmp_path / "fleet_usage.csv").exists()
        assert (tmp_path / "fleet_meta.json").exists()

    def test_calibrate_from_saved_fleet(self, tmp_path, capsys):
        main(["generate", "--vehicles", "3", "--output", str(tmp_path)])
        capsys.readouterr()
        code = main(["calibrate", "--input", str(tmp_path)])
        assert code == 0
        assert "working-day mean" in capsys.readouterr().out

    def test_calibrate_without_input_generates(self, capsys):
        code = main(["calibrate", "--vehicles", "3", "--seed", "2"])
        assert code == 0
        assert "3 vehicles" in capsys.readouterr().out


class TestEvaluate:
    def test_table1_small(self, capsys):
        code = main(
            [
                "evaluate",
                "table1",
                "--vehicles",
                "6",
                "--old-vehicles",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "BL" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "table9"])


class TestPredict:
    def test_predict_trained_vehicle(self, tmp_path, capsys):
        main(["generate", "--vehicles", "3", "--output", str(tmp_path)])
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--input",
                str(tmp_path),
                "--vehicle",
                "v01",
                "--algorithm",
                "XGB",
                "--window",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "days to maint." in out
        assert "predicted due" in out

    def test_unknown_vehicle_errors(self, tmp_path, capsys):
        main(["generate", "--vehicles", "2", "--output", str(tmp_path)])
        capsys.readouterr()
        code = main(
            ["predict", "--input", str(tmp_path), "--vehicle", "v99"]
        )
        assert code == 2
        assert "Unknown vehicle" in capsys.readouterr().err


class TestChaos:
    def test_chaos_run_self_verifies(self, capsys):
        code = main(
            ["chaos", "--seed", "7", "--vehicles", "3", "--days", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet health" in out or "readings flagged" in out
        assert "[ok]" in out
        assert "FAIL" not in out

    def test_chaos_is_deterministic(self, capsys):
        argv = ["chaos", "--seed", "11", "--vehicles", "2", "--days", "25"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


    def test_chaos_json_output(self, capsys):
        import json

        code = main(
            [
                "chaos",
                "--seed",
                "7",
                "--vehicles",
                "3",
                "--days",
                "30",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())
        assert payload["forecasts"], "last round of forecasts serialized"
        for forecast in payload["forecasts"]:
            assert {"vehicle_id", "category", "strategy", "degraded"} <= set(
                forecast
            )
        assert "vehicles" in payload["health"]


class TestLifecycle:
    @pytest.mark.parametrize(
        "argv",
        [["status"], ["run-once"], ["watch", "--ticks", "3"]],
        ids=["status", "run-once", "watch"],
    )
    def test_json_output_parses_and_is_deterministic(self, argv, capsys):
        import json

        outputs = []
        for _ in range(2):
            assert main(["lifecycle", *argv, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        json.loads(outputs[0])
        assert outputs[0] == outputs[1]

    def test_run_once_promotes_the_drifted_vehicles(self, capsys):
        import json

        assert main(["lifecycle", "run-once", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        promoted = sorted(
            e["vehicle_id"] for e in entries if e["outcome"] == "promoted"
        )
        assert promoted == ["lc00", "lc01"]  # the default --drifted 2


class TestMaxWorkersValidation:
    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_evaluate_rejects_non_positive(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "table1", "--max-workers", bad])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_evaluate_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "table1", "--max-workers", "two"])
        assert exc.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--max-queue", "--max-batch"]
    )
    def test_serve_rejects_non_positive(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in (
            "generate",
            "calibrate",
            "evaluate",
            "predict",
            "chaos",
            "serve",
        ):
            assert command in out
