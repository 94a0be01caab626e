"""Deployment layer: persistence, online service, drift monitoring.

The paper closes with the system "currently under deployment, enabling
further tests and tunings"; this package is that deployment surface —
a stateful prediction service routing each vehicle through the Section-4
methodology matrix, versioned model storage, resolved-residual drift
monitoring, and a resilience layer (ingestion guard, strategy-ladder
degraded serving, hardened persistence, deterministic fault injection)
that keeps the service up on dirty telematics and flaky storage.
"""

from .engine import FleetEngine
from .faults import (
    FaultInjector,
    FaultyJournal,
    FaultyStore,
    InjectedFault,
    corrupt_readings,
    faulty_predictor_factory,
    plant_stale_lock,
    tear_journal_tail,
)
from .gateway import (
    FleetGateway,
    GatewayConfig,
    GatewayMetrics,
    GatewayResponse,
)
from .monitoring import DriftAlert, DriftMonitor, population_stability_index
from .persistence import ArtifactCorruptError, ModelArtifact, ModelStore
from .reliability import (
    AnomalyKind,
    AnomalyPolicy,
    CircuitBreaker,
    DeadLetterRecord,
    FleetHealth,
    GuardPolicies,
    IngestionGuard,
    RetryPolicy,
    VehicleHealth,
)
from .service import Forecast, MaintenancePredictionService
from .sharding import (
    ShardRouter,
    ShardWorker,
    ShardedFleetEngine,
    build_shard_engine,
    merge_fleet_health,
)

__all__ = [
    "ShardRouter",
    "ShardWorker",
    "ShardedFleetEngine",
    "build_shard_engine",
    "merge_fleet_health",
    "FleetEngine",
    "FleetGateway",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayResponse",
    "DriftAlert",
    "DriftMonitor",
    "population_stability_index",
    "ArtifactCorruptError",
    "ModelArtifact",
    "ModelStore",
    "AnomalyKind",
    "AnomalyPolicy",
    "CircuitBreaker",
    "DeadLetterRecord",
    "FleetHealth",
    "GuardPolicies",
    "IngestionGuard",
    "RetryPolicy",
    "VehicleHealth",
    "FaultInjector",
    "FaultyJournal",
    "FaultyStore",
    "InjectedFault",
    "corrupt_readings",
    "faulty_predictor_factory",
    "plant_stale_lock",
    "tear_journal_tail",
    "Forecast",
    "MaintenancePredictionService",
]
