"""The read path never trains a model and never reads the model store.

Models train where they go stale — at the end of the ingest request
that completes a cycle or moves the donor pool, at the lifecycle event
that installs or releases a champion, and at the end of a restore or
journal replay.  ``predict_batch`` only looks rows up.  One scenario
walks every such event on a durable, store-backed RF service and counts
``fit_predictors``, ``RegressionPredictor.fit`` and ``ModelStore.load``
calls made inside ``predict_batch``: each must stay 0, while every read
equals a serial reference — a plain service fed the same operations and
read one vehicle at a time.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.core import predictors as predictors_module
from repro.core.predictors import RegressionPredictor
from repro.durability import RecoveryManager
from repro.serving import service as service_module
from repro.serving.persistence import ModelStore
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0

HISTORIES = {
    "A": [18_000.0] * 25,  # OLD
    "B": [20_000.0] * 25,  # OLD
    "C": [24_000.0] * 25,  # OLD
    "D": [20_000.0] * 6,  # SEMI-NEW until it closes its first cycle
    "N": [5_000.0] * 6,  # NEW
    "S": [19_000.0] * 6,  # SEMI-NEW
}


@pytest.fixture
def read_path_calls(monkeypatch) -> dict[str, int]:
    """Counts of training and store-load calls made inside
    ``predict_batch`` (``*_outside`` counts the rest)."""
    names = ("fit_predictors", "fit", "load")
    counts = dict.fromkeys(names + tuple(f"{n}_outside" for n in names), 0)
    inside = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name if inside else f"{name}_outside"] += 1
            return original(*args, **kwargs)

        return wrapper

    predict_batch = MaintenancePredictionService.predict_batch

    def reading(self, *args, **kwargs):
        inside.append(True)
        try:
            return predict_batch(self, *args, **kwargs)
        finally:
            inside.pop()

    fit_predictors = counted("fit_predictors", predictors_module.fit_predictors)
    monkeypatch.setattr(MaintenancePredictionService, "predict_batch", reading)
    monkeypatch.setattr(predictors_module, "fit_predictors", fit_predictors)
    monkeypatch.setattr(service_module, "fit_predictors", fit_predictors)
    monkeypatch.setattr(
        RegressionPredictor, "fit", counted("fit", RegressionPredictor.fit)
    )
    monkeypatch.setattr(ModelStore, "load", counted("load", ModelStore.load))
    return counts


def make_service(store_dir) -> MaintenancePredictionService:
    return MaintenancePredictionService(
        t_v=T_V, window=2, algorithm="RF", store=ModelStore(store_dir)
    )


def read(service) -> list:
    return service.predict_batch(service.vehicle_ids)


def serial_read(service) -> list:
    return [service.predict(vid) for vid in service.vehicle_ids]


def promote(service, vehicle_id: str) -> None:
    """Train, persist and promote a challenger, as the controller does."""
    challenger = service._fit_vehicle_model(vehicle_id)
    cycles = len(service.series(vehicle_id).completed_cycles)
    version = service._persist(
        f"{vehicle_id}.per-vehicle",
        challenger,
        strategy="per-vehicle",
        trained_cycles=cycles,
    )
    service.apply_lifecycle_event(
        "promote",
        vehicle_id,
        version=version,
        trained_cycles=cycles,
        predictor=challenger,
    )


#: The scenario before the checkpoint, as (name, operation) steps; a
#: read follows each.
BEFORE_CHECKPOINT = [
    (
        "register and backfill, one request per vehicle",
        lambda s: [
            (s.register_vehicle(v), s.ingest_series(v, HISTORIES[v]))
            for v in sorted(HISTORIES)
        ],
    ),
    (
        "A and C complete a cycle in one fleet day request",
        lambda s: s.ingest_batch(["A", "C"] * 8, [20_000.0] * 16),
    ),
    (
        "D closes its first cycle: the donor pool moves",
        lambda s: s.ingest_series("D", [20_000.0] * 5),
    ),
    ("promote A", lambda s: promote(s, "A")),
    ("pin B to its first version", lambda s: s.apply_lifecycle_event(
        "pin", "B", version=1
    )),
    ("roll C back to its first version", lambda s: s.apply_lifecycle_event(
        "rollback", "C", version=1
    )),
    ("S and N get a day", lambda s: s.ingest_batch(["S", "N"], [21_000.0] * 2)),
]

#: Journaled after the checkpoint: replayed by the recovery.
AFTER_CHECKPOINT = [
    ("unpin B", lambda s: s.apply_lifecycle_event("unpin", "B")),
    (
        "A and B complete a cycle",
        lambda s: s.ingest_batch(["A", "B"] * 8, [21_000.0] * 16),
    ),
    ("promote B", lambda s: promote(s, "B")),
    ("D gets a day", lambda s: s.ingest("D", 20_000.0)),
]


def without_versions(forecasts) -> list:
    """Forecasts minus store version numbers, which a recovery that
    retrains a replayed cycle's champion bumps past the live run's."""
    return [dataclasses.replace(f, model_version=None) for f in forecasts]


def test_reads_only_look_models_up(tmp_path, read_path_calls):
    reference = make_service(tmp_path / "reference-models")
    service = make_service(tmp_path / "models")
    manager = RecoveryManager(tmp_path / "state", service)
    manager.recover()
    strategies = set()
    for _name, operation in BEFORE_CHECKPOINT:
        operation(reference)
        operation(service)
        forecasts = read(service)
        assert forecasts == serial_read(reference), _name
        strategies |= {(f.strategy, f.model_version) for f in forecasts}
    assert {s for s, _ in strategies} == {
        "per-vehicle", "similarity", "unified"
    }
    manager.checkpoint()
    for _name, operation in AFTER_CHECKPOINT:
        operation(reference)
        operation(service)
        assert read(service) == serial_read(reference), _name
    expected = serial_read(reference)
    manager.close(checkpoint=False)  # a crash: the tail is only journaled

    loads_before = read_path_calls["load_outside"]
    fits_before = read_path_calls["fit_predictors_outside"]
    recovered = make_service(tmp_path / "models")
    with contextlib.closing(
        RecoveryManager(tmp_path / "state", recovered)
    ) as manager:
        report = manager.recover()
        assert report.checkpoint_seq > 0 and report.replayed > 0
        # The restore reloaded stored champions, and the end of the
        # replay retrained once: one fused pass for the whole recovery.
        assert read_path_calls["load_outside"] > loads_before
        assert read_path_calls["fit_predictors_outside"] == fits_before + 1
        assert recovered.champion("B").version == reference.champion(
            "B"
        ).version
        got = read(recovered)
        assert without_versions(got) == without_versions(expected)
        assert got == [
            recovered.predict(vid) for vid in recovered.vehicle_ids
        ]

    assert read_path_calls["fit_predictors"] == 0
    assert read_path_calls["fit"] == 0
    assert read_path_calls["load"] == 0
    # The counters see the training and loading that did happen.
    assert read_path_calls["fit_predictors_outside"] > 0
    assert read_path_calls["load_outside"] > 0


def test_serve_preload_trains_in_one_fused_pass(tmp_path, read_path_calls):
    """``repro serve``'s preload of a saved fleet is one ingest request,
    so the models it needs train in one fused pass."""
    from repro import cli
    from repro.serving.engine import FleetEngine

    engine = FleetEngine(t_v=T_V, window=2, algorithm="RF")
    cli._preload(engine, sorted(HISTORIES.items()))
    assert read_path_calls["fit_predictors_outside"] == 1
    # Every vehicle's first rung has its row: the OLD champions, the
    # SEMI-NEW vehicles' Model_Sim and N's Model_Uni.
    forecasts = engine.predict_all()
    assert all(not f.degraded for f in forecasts)
    assert {f.strategy for f in forecasts} == {
        "per-vehicle", "similarity", "unified"
    }
    assert read_path_calls["fit_predictors"] == 0
    service = engine.service
    assert service.vehicle_ids == sorted(HISTORIES)
    assert [service.n_days(v) for v in service.vehicle_ids] == [
        len(HISTORIES[v]) for v in sorted(HISTORIES)
    ]
    assert np.array_equal(
        np.asarray(service._vehicles["S"].usage), HISTORIES["S"]
    )
