"""repro — reproduction of "Machine Learning Supported Next-Maintenance
Prediction for Industrial Vehicles" (Mishra et al., EDBT/ICDT 2020
workshops).

Subpackages
-----------
``repro.learn``
    From-scratch ML substrate (linear models, linear SVR, CART trees,
    random forests, histogram gradient boosting, CV / grid search).
``repro.telemetry``
    CAN-bus acquisition simulator (frames, on-board controller, cloud).
``repro.fleet``
    Calibrated synthetic fleet usage generator (the proprietary-data
    substitute).
``repro.dataprep``
    The five-step Section-3 preparation pipeline.
``repro.similarity``
    Series similarity measures (point-wise, correlation, DTW).
``repro.core``
    The paper's contribution: problem formalization, error model,
    predictors, old-vehicle and cold-start methodologies, fleet planner.
``repro.experiments``
    One module per table/figure of the evaluation section.
``repro.serving``
    Deployment layer: the prediction service, batch fleet engine, HTTP
    gateway, sharded pool, model store and resilience layer.
``repro.obs``
    Observability: one metrics registry, request tracing, profiling.
``repro.durability``
    Write-ahead journal, checkpoints and crash recovery.
``repro.lifecycle``
    Model lifecycle: drift-triggered shadow retraining,
    champion/challenger promotion, versioned rollback.
``repro.context``
    Contextual enrichment (the paper's future work): site weather,
    weather-derived features, fleet-movement inference.

Quickstart
----------
>>> from repro.fleet import FleetGenerator
>>> from repro.core import VehicleSeries, OldVehicleExperiment, OldVehicleConfig
>>> fleet = FleetGenerator(seed=0).generate()
>>> series = VehicleSeries.from_vehicle(fleet.vehicles[0])
>>> experiment = OldVehicleExperiment(OldVehicleConfig(window=6))
>>> result = experiment.run_vehicle(series, "RF")

Subpackages load on first use (PEP 562): ``import repro`` is cheap,
and ``repro.serving`` imports that subpackage when first touched.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "context",
    "core",
    "dataprep",
    "fleet",
    "learn",
    "serving",
    "similarity",
    "telemetry",
    "__version__",
]

_SUBPACKAGES = frozenset(
    __all__[:-1] + ["durability", "experiments", "lifecycle", "obs"]
)


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
