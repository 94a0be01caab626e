"""Small-scale tests for the table/figure experiment modules.

These run the full experiment machinery on a reduced setup (few
vehicles, no grid search) so the suite stays fast; the full-scale runs
live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentSetup
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.timing import run_timing


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(fast=True, n_old_vehicles=4)


@pytest.fixture(scope="module")
def table1(setup):
    return run_table1(setup, algorithms=("BL", "LR", "RF"))


@pytest.fixture(scope="module")
def figure4(setup):
    return run_figure4(setup, algorithms=("BL", "LR", "RF"), windows=(0, 6))


class TestTable1:
    def test_rows_per_algorithm(self, table1):
        assert [r.algorithm for r in table1.rows] == ["BL", "LR", "RF"]

    def test_bl_unchanged_by_restriction(self, table1):
        row = table1.row("BL")
        assert row.e_mre_all_data == row.e_mre_restricted
        assert row.reduction_pct == 0.0

    def test_restriction_helps_ml(self, table1):
        for key in ("LR", "RF"):
            row = table1.row(key)
            assert row.e_mre_restricted < row.e_mre_all_data

    def test_render(self, table1):
        text = table1.render()
        assert "Table 1" in text
        assert "BL" in text

    def test_unknown_row(self, table1):
        with pytest.raises(KeyError):
            table1.row("NN")


class TestFigure4:
    def test_curves_cover_windows(self, figure4):
        assert figure4.windows == [0, 6]
        for curve in figure4.e_mre.values():
            assert set(curve) == {0, 6}

    def test_bl_flat(self, figure4):
        curve = figure4.e_mre["BL"]
        assert curve[0] == curve[6]
        assert figure4.improvement()["BL"][6] == 0.0

    def test_improvement_anchored_at_zero(self, figure4):
        for curve in figure4.improvement().values():
            assert curve[0] == 0.0

    def test_best_window_minimizes(self, figure4):
        for algorithm, curve in figure4.e_mre.items():
            best = figure4.best_window(algorithm)
            assert curve[best] == min(curve.values())

    def test_windows_must_include_zero(self, setup):
        with pytest.raises(ValueError, match="include 0"):
            run_figure4(setup, algorithms=("LR",), windows=(3, 6))

    def test_render(self, figure4):
        assert "Figure 4" in figure4.render()


class TestTable2:
    def test_built_from_figure4(self, setup, figure4):
        table2 = run_table2(setup, figure4)
        assert {r.algorithm for r in table2.rows} == set(figure4.e_mre)
        for row in table2.rows:
            assert row.e_mre == figure4.e_mre[row.algorithm][row.best_window]

    def test_render(self, setup, figure4):
        assert "Table 2" in run_table2(setup, figure4).render()


class TestFigure5:
    def test_curves_per_algorithm(self, setup, figure4):
        table2 = run_table2(setup, figure4)
        figure5 = run_figure5(setup, table2, days=(1, 10, 29))
        assert set(figure5.curves) == set(figure4.e_mre)
        for curve in figure5.curves.values():
            assert set(curve) == {1, 10, 29}

    def test_render(self, setup, figure4):
        table2 = run_table2(setup, figure4)
        figure5 = run_figure5(setup, table2, days=(1, 29))
        assert "Figure 5" in figure5.render()


class TestTable3:
    @pytest.fixture(scope="class")
    def table3(self, setup):
        return run_table3(setup, algorithms=("LR", "RF"))

    def test_semi_new_labels(self, table3):
        assert set(table3.semi_new_e_mre) == {
            "BL",
            "LR_Sim",
            "LR_Uni",
            "RF_Sim",
            "RF_Uni",
        }

    def test_new_labels_are_uni_only(self, table3):
        assert set(table3.new_e_global) == {"LR_Uni", "RF_Uni"}

    def test_split_sizes(self, table3, setup):
        assert table3.n_train_vehicles + table3.n_test_vehicles == (
            setup.n_vehicles
        )

    def test_best_helpers(self, table3):
        assert table3.best_semi_new() in table3.semi_new_e_mre
        assert table3.best_new() in table3.new_e_global

    def test_render(self, table3):
        text = table3.render()
        assert "Table 3" in text
        assert "RF_Sim" in text


class TestTiming:
    def test_structure(self, setup):
        timing = run_timing(setup, algorithms=("BL", "LR"), windows=(0,))
        assert set(timing.fit_seconds) == {"BL", "LR"}
        assert all(v >= 0 for v in timing.at_window(0).values())

    def test_render(self, setup):
        timing = run_timing(setup, algorithms=("BL", "LR"), windows=(0, 6))
        text = timing.render()
        assert "Training time" in text


class TestProcessFanOut:
    """``max_workers=2`` fans the per-vehicle runs out over a process
    pool; every number must equal the serial loop's, in input order."""

    def test_table1_matches_serial(self, setup, table1):
        parallel = ExperimentSetup(fast=True, n_old_vehicles=4, max_workers=2)
        fanned = run_table1(parallel, algorithms=("BL", "LR", "RF"))
        assert fanned.rows == table1.rows

    def test_table3_matches_serial(self, setup):
        parallel = ExperimentSetup(fast=True, n_old_vehicles=4, max_workers=2)
        serial = run_table3(setup, algorithms=("LR",))
        fanned = run_table3(parallel, algorithms=("LR",))
        np.testing.assert_equal(fanned.semi_new_e_mre, serial.semi_new_e_mre)
        np.testing.assert_equal(fanned.new_e_global, serial.new_e_global)
        assert fanned.render() == serial.render()
