"""Unit tests for repro.experiments.config."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.config import ExperimentSetup


class TestExperimentSetup:
    def test_fleet_cached(self):
        setup = ExperimentSetup(n_vehicles=4)
        assert setup.fleet is setup.fleet

    def test_fast_mode_subsamples_old_vehicles(self):
        setup = ExperimentSetup(fast=True, n_vehicles=24)
        assert len(setup.old_series) == 8
        assert len(setup.all_series) == 24

    def test_slow_mode_uses_all(self):
        setup = ExperimentSetup(fast=False, n_vehicles=6)
        assert len(setup.old_series) == 6

    def test_explicit_old_vehicle_count(self):
        setup = ExperimentSetup(n_vehicles=10, n_old_vehicles=3)
        assert len(setup.old_series) == 3

    def test_grid_mode(self):
        assert ExperimentSetup(fast=True).grid is None
        assert ExperimentSetup(fast=False).grid == "paper"

    def test_series_match_fleet(self):
        setup = ExperimentSetup(n_vehicles=5)
        assert [s.vehicle_id for s in setup.all_series] == (
            setup.fleet.vehicle_ids
        )

    def test_seed_changes_fleet(self):
        import numpy as np

        a = ExperimentSetup(seed=0, n_vehicles=2)
        b = ExperimentSetup(seed=9, n_vehicles=2)
        assert not np.array_equal(
            a.fleet.vehicles[0].usage, b.fleet.vehicles[0].usage
        )

    def test_pool_is_serial_below_two_workers(self):
        for workers in (None, 1):
            with ExperimentSetup(max_workers=workers).pool() as pool:
                assert pool is None

    def test_pool_is_a_process_pool_shut_down_on_exit(self):
        with ExperimentSetup(max_workers=2).pool() as pool:
            assert isinstance(pool, ProcessPoolExecutor)
            assert list(pool.map(abs, [-1, -2, -3])) == [1, 2, 3]
        with pytest.raises(RuntimeError):
            pool.submit(abs, -1)
