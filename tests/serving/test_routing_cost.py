"""Routing reads the ingest-fed index instead of walking the fleet.

A read with no ingest since the previous one re-categorizes nobody,
searches no donors and snapshots no series (feature rows and the
staleness key come from the cycle state, bit for bit what a series
gives); one appended day costs one re-categorization; an engine read
visits only the vehicles of its batch and trains nothing; and Model_Uni
fits once per donor set, however often the breaker ladder of an OLD
donor steps down to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categorize import VehicleCategory
from repro.core.cycles import IncrementalSeriesState
from repro.core.registry import make_predictor
from repro.core.series import VehicleSeries
from repro.serving import service as service_module
from repro.serving.engine import FleetEngine
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0  # 10 steady days per cycle at 20 000 s/day
WINDOW = 2


def mixed_fleet(service) -> dict[str, VehicleCategory]:
    """Three OLD donors, two SEMI-NEW and two NEW vehicles."""
    plan = {
        "old0": [18_000.0] * 25,
        "old1": [20_000.0] * 25,
        "old2": [24_000.0] * 25,
        "semi0": [19_000.0] * 6,
        "semi1": [23_000.0] * 6,
        "new0": [5_000.0] * 6,
        "new1": [8_000.0] * 6,
    }
    for vid, usage in plan.items():
        service.register_vehicle(vid)
        service.ingest_series(vid, usage)
    return {vid: service.category(vid) for vid in plan}


@pytest.fixture
def counted(monkeypatch):
    """Counts of the service module's categorize and donor-search calls."""
    calls = {"categorize_usage": 0, "most_similar": 0}
    for name in calls:
        original = getattr(service_module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(service_module, name, wrapper)
    return calls


class TestNoFleetScanOnRead:
    def test_warm_read_scans_nothing(self, counted):
        service = MaintenancePredictionService(
            t_v=T_V, window=WINDOW, algorithm="LR"
        )
        categories = mixed_fleet(service)
        cold_start = [
            vid
            for vid, category in categories.items()
            if category is not VehicleCategory.OLD
        ]
        service.predict_batch(cold_start)  # warm-up: fits and first search
        counted.update(categorize_usage=0, most_similar=0)
        for _ in range(3):
            service.predict_batch(cold_start)
        assert counted == {"categorize_usage": 0, "most_similar": 0}

    def test_warm_read_snapshots_no_series(self, monkeypatch):
        service = MaintenancePredictionService(
            t_v=T_V, window=WINDOW, algorithm="LR"
        )
        ids = list(mixed_fleet(service))
        first = service.predict_batch(ids)  # warm-up: fits every row
        calls = []
        bundle = IncrementalSeriesState.bundle

        def counted_bundle(self):
            calls.append(self)
            return bundle(self)

        monkeypatch.setattr(IncrementalSeriesState, "bundle", counted_bundle)
        for _ in range(3):
            assert service.predict_batch(ids) == first
        assert calls == []

    def test_one_append_recategorizes_one_vehicle(self, counted):
        service = MaintenancePredictionService(
            t_v=T_V, window=WINDOW, algorithm="LR"
        )
        mixed_fleet(service)
        ids = ["semi0", "semi1", "new0", "new1"]
        service.predict_batch(ids)
        counted.update(categorize_usage=0, most_similar=0)
        service.ingest("new0", 5_000.0)
        service.predict_batch(ids)
        assert counted["categorize_usage"] == 1
        assert counted["most_similar"] == 0
        # A SEMI-NEW target's own day re-runs only its own donor search.
        service.ingest("semi1", 23_000.0)
        service.predict_batch(ids)
        assert counted == {"categorize_usage": 2, "most_similar": 1}

    def test_engine_read_visits_only_its_batch(self, monkeypatch):
        class Recording(dict):
            def __init__(self, *args):
                super().__init__(*args)
                self.seen = []

            def __getitem__(self, key):
                self.seen.append(key)
                return super().__getitem__(key)

        engine = FleetEngine(
            MaintenancePredictionService(
                t_v=T_V, window=WINDOW, algorithm="LR"
            )
        )
        service = engine.service
        categories = mixed_fleet(service)
        engine.predict_many(list(categories))  # warm-up: trains the OLD
        service._vehicles = Recording(service._vehicles)
        assert engine.predict_many([]) == []
        assert service._vehicles.seen == []
        (forecast,) = engine.predict_many(["old0"])
        assert forecast.strategy == "per-vehicle"
        assert set(service._vehicles.seen) == {"old0"}

        fits = []
        build = service._vehicle_dataset

        def counted_build(vehicle_id):
            fits.append(vehicle_id)
            return build(vehicle_id)

        monkeypatch.setattr(service, "_vehicle_dataset", counted_build)
        cycles = len(service.series("old1").completed_cycles)
        for _ in range(10):  # 200 000 s more: old1 completes a cycle
            service.ingest("old1", 20_000.0)
        assert len(service.series("old1").completed_cycles) == cycles + 1
        assert fits == ["old1"]  # retrained by the ingest that closed it
        engine.predict_many(["old0", "old1"])
        assert fits == ["old1"]


class TestLifecycleEventsMoveNoDonors:
    def test_pin_with_no_new_day_searches_no_donor(self, counted, tmp_path):
        """A lifecycle event changes no usage history: it re-categorizes
        nobody and leaves every donor search answer standing."""
        service = MaintenancePredictionService(
            t_v=T_V, window=WINDOW, algorithm="LR", store=ModelStore(tmp_path)
        )
        ids = list(mixed_fleet(service))
        first = service.predict_batch(ids)
        counted.update(categorize_usage=0, most_similar=0)
        epoch = service._index.epoch
        version = service.champion("old0").version
        service.apply_lifecycle_event("pin", "old0", version=version)
        assert service.predict_batch(ids) == first
        assert counted == {"categorize_usage": 0, "most_similar": 0}
        assert service._index.epoch == epoch


class TestUnnamedSimRowsArePruned:
    def test_donor_change_drops_the_old_row_and_a_flip_back_retrains_it(
        self,
    ):
        service = MaintenancePredictionService(
            t_v=T_V, window=WINDOW, algorithm="RF"
        )
        for vid, rate, days in (
            ("A", 18_000.0, 25), ("C", 24_000.0, 25), ("S", 22_500.0, 6)
        ):
            service.register_vehicle(vid)
            service.ingest_series(vid, [rate] * days)
        (first,) = service.predict_batch(["S"])
        assert (first.strategy, first.donor_id) == ("similarity", "C")
        service._failed["sim:A"] = RuntimeError("a row nothing routes to")
        # B joins the donors closer to S than C is: sim:C is unnamed.
        service.register_vehicle("B")
        service.ingest_series("B", [21_500.0] * 25)
        (moved,) = service.predict_batch(["S"])
        assert moved.donor_id == "B"
        assert sorted(s for s in service._models if s.startswith("sim:")) == [
            "sim:B"
        ]
        assert "sim:A" not in service._failed
        # B's low days move its average away: S matches C again, and
        # the retrained sim:C row serves the first forecast bit for bit.
        service.ingest_series("B", [10_000.0] * 25)
        (back,) = service.predict_batch(["S"])
        assert sorted(s for s in service._models if s.startswith("sim:")) == [
            "sim:C"
        ]
        assert back == first
        assert np.float64(back.days_to_maintenance).tobytes() == (
            np.float64(first.days_to_maintenance).tobytes()
        )


class TestUnifiedModelFitsOncePerDonorSet:
    def test_breaker_ladder_does_not_thrash(self):
        fits = []

        def factory(algorithm):
            predictor = make_predictor(algorithm)
            fit = predictor.fit

            def counted_fit(dataset, **kwargs):
                # Model_Uni is the one rung that fits without a usage
                # history; its record count names the donor set.
                if "usage" not in kwargs:
                    fits.append(dataset.n_records)
                return fit(dataset, **kwargs)

            predictor.fit = counted_fit
            return predictor

        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)
        service = MaintenancePredictionService(
            t_v=T_V,
            window=WINDOW,
            algorithm="LR",
            breaker=breaker,
            predictor_factory=factory,
        )
        for vid, rate in (("A", 18_000.0), ("B", 20_000.0), ("C", 24_000.0)):
            service.register_vehicle(vid)
            service.ingest_series(vid, [rate] * 25)
        service.register_vehicle("N")
        service.ingest_series("N", [5_000.0] * 6)
        breaker.record_failure("A:per-vehicle")
        breaker.record_failure("A:similarity")
        strategies = []
        for _ in range(5):
            a, n = service.predict_batch(["A", "N"])
            strategies.append((a.strategy, n.strategy))
        # Four cooldown batches step A down to the baseline (no ingest
        # trains an OLD vehicle's fallbacks) and serve N from the full
        # pool; the fifth half-opens A's own model.
        assert strategies[:4] == [("baseline", "unified")] * 4
        assert strategies[4][0] == "per-vehicle"
        assert len(fits) == 1


class TestFeatureRowFromCycleState:
    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(min_value=0, max_value=4),
        chunks=st.lists(
            st.lists(
                st.sampled_from([0.0, 9_000.0, 40_000.0, 75_000.0, 86_400.0]),
                max_size=7,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_row_equals_series_row(self, window, chunks):
        """The read path's row, taken from the incremental cycle state
        as days arrive in chunks, equals the row of the vehicle's
        series and of a series derived from scratch, byte for byte;
        too few days raise the same ``ValueError``."""
        service = MaintenancePredictionService(
            t_v=T_V, window=window, algorithm="LR"
        )
        service.register_vehicle("v")
        history = []
        for chunk in chunks:
            service.ingest_series("v", chunk)
            history.extend(chunk)
            sources = [
                service._cycle_state("v"),
                service.series("v"),
                VehicleSeries("v", np.array(history), T_V),
            ]
            if len(history) <= window:
                messages = set()
                for source in sources:
                    with pytest.raises(ValueError) as caught:
                        service._feature_row("v", source)
                    messages.add(str(caught.value))
                assert len(messages) == 1
                continue
            rows = [service._feature_row("v", source) for source in sources]
            for row, usage_left, today in rows:
                assert row.tobytes() == rows[0][0].tobytes()
                assert np.float64(usage_left).tobytes() == (
                    np.float64(rows[0][1]).tobytes()
                )
                assert today == rows[0][2] == len(history) - 1
