"""Shared scenario builder for the lifecycle suite.

``drifted_stack`` replays the drill's drift scenario in miniature: warm
a small fleet until per-vehicle champions are trained and frozen
(``retrain_on_cycle=False``), then shift part of the fleet's usage rate
so the stale champions degrade — the state every lifecycle test starts
from.
"""

import pytest

from repro.lifecycle.drill import (
    _build_stack,
    apply_lifecycle_op,
    generate_lifecycle_ops,
)


def run_scenario(
    store_dir,
    *,
    n_vehicles=4,
    n_drifted=1,
    warm_days=70,
    drift_days=45,
    seed=0,
    drift_factor=2.0,
):
    engine, controller = _build_stack(store_dir=str(store_dir))
    ops = generate_lifecycle_ops(
        n_vehicles,
        seed,
        warm_days=warm_days,
        drift_days=drift_days,
        sweep_days=0,
        n_drifted=n_drifted,
        drift_factor=drift_factor,
    )
    for op in ops:
        apply_lifecycle_op(engine, controller, op)
    return engine, controller, engine.service.vehicle_ids[:n_drifted]


@pytest.fixture
def drifted_stack(tmp_path):
    """(engine, controller, drifted ids) after warm + drift phases."""
    return run_scenario(tmp_path / "models")
