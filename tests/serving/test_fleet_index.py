"""The ingest-fed routing index serves exactly what a fresh service would.

The service keeps categories and the Section-4.4 donor pool in an index
that only ingest updates.  These tests drive random interleavings of
registration, ingest, batched prediction and checkpoint round-trips,
and compare every forecast with a fresh serial service fed the same
histories.  Vehicles are registered in sorted id order, the order a
checkpoint restore re-registers them in, so Model_Uni sees the same
donor order on both sides.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categorize import VehicleCategory
from repro.core.predictors import RegressionPredictor
from repro.learn.forest import RandomForestRegressor
from repro.serving.service import MaintenancePredictionService

T_V = 150_000.0
WINDOW = 2
LEVELS = (0.0, 6_000.0, 12_000.0, 20_000.0, 35_000.0)


def small_forest(_algorithm: str) -> RegressionPredictor:
    """A bootstrapped forest small enough to refit per example: unlike a
    linear fit, it changes when Model_Uni's donors arrive in another
    order, so the donor order is checked too."""
    return RegressionPredictor(
        name="RF",
        estimator=RandomForestRegressor(
            n_estimators=3, max_depth=4, random_state=0
        ),
    )


def make_service() -> MaintenancePredictionService:
    return MaintenancePredictionService(
        t_v=T_V, window=WINDOW, predictor_factory=small_forest
    )


def fresh_forecasts(histories: dict[str, list[float]], ids):
    """Serial predictions of a new service fed ``histories``."""
    fresh = make_service()
    for vid, usage in histories.items():
        fresh.register_vehicle(vid)
        fresh.ingest_series(vid, usage)
    return [fresh.predict(vid) for vid in ids]


def expected_category(usage) -> VehicleCategory:
    total = float(np.sum(usage)) if usage else 0.0
    if total >= T_V:
        return VehicleCategory.OLD
    if total >= T_V / 2:
        return VehicleCategory.SEMI_NEW
    return VehicleCategory.NEW


_levels = st.sampled_from(LEVELS)
_ingest = st.tuples(st.just("ingest"), st.integers(0, 7), _levels)
_predict = st.tuples(st.just("predict"), st.integers(1, 255))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register")),
        _ingest,
        _ingest,
        st.tuples(
            st.just("series"),
            st.integers(0, 7),
            st.lists(_levels, min_size=1, max_size=6),
        ),
        _predict,
        _predict,
        st.tuples(st.just("roundtrip")),
    ),
    min_size=5,
    max_size=50,
)
_fleets = st.lists(
    st.lists(_levels, min_size=3, max_size=14), min_size=3, max_size=6
)


class TestIndexMatchesFreshService:
    @settings(max_examples=300, deadline=None)
    @given(fleet=_fleets, ops=_ops)
    def test_interleaved_ops(self, fleet, ops):
        service = make_service()
        histories: dict[str, list[float]] = {}
        for usage in fleet:
            vid = f"v{len(histories):02d}"
            service.register_vehicle(vid)
            service.ingest_series(vid, usage)
            histories[vid] = list(usage)
        for op in ops:
            kind = op[0]
            if kind == "register":
                vid = f"v{len(histories):02d}"
                service.register_vehicle(vid)
                histories[vid] = []
                continue
            ids = list(histories)
            if kind == "ingest":
                vid = ids[op[1] % len(ids)]
                service.ingest(vid, op[2])
                histories[vid].append(op[2])
            elif kind == "series":
                vid = ids[op[1] % len(ids)]
                service.ingest_series(vid, op[2])
                histories[vid].extend(op[2])
            elif kind == "predict":
                ready = [v for v in ids if len(histories[v]) > WINDOW]
                chosen = [
                    v for i, v in enumerate(ready) if op[1] >> (i % 8) & 1
                ]
                if chosen:
                    got = service.predict_batch(chosen)
                    assert got == fresh_forecasts(histories, chosen)
            else:
                service.load_state_dict(service.state_dict())
        # Checked only at the end: a category read drains the index, and
        # the predictions above must also see several ops' appends at once.
        for vid, usage in histories.items():
            assert service.category(vid) is expected_category(usage)

    def test_category_crossings_mid_stream(self):
        service = make_service()
        service.register_vehicle("a")
        seen = []
        for _ in range(8):
            service.ingest("a", T_V / 8)
            seen.append(service.category("a"))
        assert seen[0] is VehicleCategory.NEW
        assert VehicleCategory.SEMI_NEW in seen
        assert seen[-1] is VehicleCategory.OLD

    def test_donor_append_flips_nearest_donor(self):
        histories = {
            "a": [30_000.0] * 5,  # mean 30k
            "b": [45_000.0] * 4,  # mean 45k
            "t": [40_000.0] * 3,  # SEMI-NEW target, nearer b
        }
        service = make_service()
        for vid, usage in histories.items():
            service.register_vehicle(vid)
            service.ingest_series(vid, usage)
        first = service.predict("t")
        assert first.donor_id == "b"
        assert [first] == fresh_forecasts(histories, ["t"])
        # One long day moves a's average usage to 38.3k: a is now nearer.
        service.ingest("a", 80_000.0)
        histories["a"].append(80_000.0)
        second = service.predict("t")
        assert second.donor_id == "a"
        assert [second] == fresh_forecasts(histories, ["t"])


    def test_late_donor_keeps_registration_order(self):
        # v00 is registered first but turns OLD last: Model_Uni must
        # still concatenate its first cycle first, as a fresh service
        # (and a checkpoint restore) would.
        k = 1_000.0
        histories = {
            "v00": [20 * k, 35 * k, 6 * k, 12 * k],
            "v01": [12 * k, 20 * k, 35 * k, 35 * k, 6 * k, 6 * k, 35 * k]
            + [35 * k, 6 * k, 12 * k, 35 * k, 12 * k, 12 * k, 35 * k],
            "v02": [12 * k, 12 * k, 20 * k, 20 * k, 6 * k, 6 * k, 35 * k]
            + [35 * k, 35 * k, 20 * k, 35 * k, 12 * k, 12 * k, 35 * k],
            "n0": [6 * k, 12 * k, 0.0, 20 * k],
            "n1": [35 * k, 0.0, 6 * k],
            "n2": [12 * k, 12 * k, 20 * k, 6 * k],
        }
        service = make_service()
        for vid, usage in histories.items():
            service.register_vehicle(vid)
            service.ingest_series(vid, usage)
        new = ["n0", "n1", "n2"]
        assert service.predict_batch(new) == fresh_forecasts(histories, new)
        for seconds in (35 * k, 35 * k, 20 * k, 35 * k, 20 * k):
            service.ingest("v00", seconds)
            histories["v00"].append(seconds)
        assert service.category("v00") is VehicleCategory.OLD
        assert service.predict_batch(new) == fresh_forecasts(histories, new)
