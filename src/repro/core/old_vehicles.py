"""Methodology for old vehicles (Section 4.3).

"Old vehicles are assumed to have a sufficiently large amount of
historical data to train reliable Machine Learning models ... separately
for each vehicle we train the multiple regression models ... Among the
trained models, we select those that minimize the mean residual error
over the last 29 days ... For each vehicle, we consider the first 70% of
their samples as training set, and the remaining part as test set."

This module is the engine behind Tables 1-2 and Figures 4-5:
:class:`OldVehicleExperiment` trains one predictor per (vehicle,
algorithm) under a :class:`OldVehicleConfig` and reports the paper's
error metrics; :func:`select_best_algorithm` is the per-vehicle model
selection rule.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..dataprep.transformation import (
    RelationalDataset,
    augment_with_time_shifts,
    build_relational_dataset,
)
from .errors import (
    DEFAULT_HORIZON,
    global_error,
    mean_residual_error,
    residual_error_by_day,
)
from .registry import make_predictor
from .series import VehicleSeries

__all__ = [
    "OldVehicleConfig",
    "VehicleResult",
    "FleetResult",
    "OldVehicleExperiment",
    "select_best_algorithm",
]


@dataclass(frozen=True)
class OldVehicleConfig:
    """Knobs of the per-vehicle training protocol.

    Attributes
    ----------
    window:
        ``W``: past-usage lags as features (0 = univariate, Eq. 7).
    train_fraction:
        Chronological train share (paper: 0.7).
    restrict_to_horizon:
        Train only on records whose target lies in ``horizon`` — the
        last-29-days restriction whose effect Table 1 measures.
    horizon:
        The evaluation (and optional training) day set ``D~``.
    n_shifts:
        Time-shift augmentation copies (0 disables, Section 4's data
        engineering enables).
    grid:
        ``None`` (registry default hyper-parameters), ``"fast"`` or
        ``"paper"`` (grid search with ``cv_splits``-fold CV).
    cv_splits:
        Folds for grid search (paper: 5).
    seed:
        Seed for the augmentation shift draws.
    """

    window: int = 0
    train_fraction: float = 0.7
    restrict_to_horizon: bool = False
    horizon: tuple[int, ...] = DEFAULT_HORIZON
    n_shifts: int = 0
    grid: str | None = None
    cv_splits: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}.")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}."
            )
        if not self.horizon:
            raise ValueError("horizon must be non-empty.")
        if self.n_shifts < 0:
            raise ValueError(f"n_shifts must be >= 0, got {self.n_shifts}.")


@dataclass
class VehicleResult:
    """One (vehicle, algorithm) evaluation outcome."""

    vehicle_id: str
    algorithm: str
    window: int
    e_mre: float
    e_global: float
    n_train: int
    n_test: int
    fit_seconds: float
    d_true: np.ndarray = field(repr=False)
    d_pred: np.ndarray = field(repr=False)
    t_index: np.ndarray = field(repr=False)


@dataclass
class FleetResult:
    """Per-algorithm aggregation across test vehicles."""

    algorithm: str
    window: int
    results: list[VehicleResult]

    @property
    def e_mre(self) -> float:
        """Fleet ``E_MRE``: mean of per-vehicle MREs (NaN-skipping).

        "E_MRE is the average of the mean residual errors computed over
        all the test vehicles" (Section 5.1).  Vehicles whose test span
        contains no day with a target in the horizon are skipped.
        """
        values = np.asarray([r.e_mre for r in self.results])
        finite = values[np.isfinite(values)]
        return float(finite.mean()) if finite.size else float("nan")

    @property
    def e_global(self) -> float:
        values = np.asarray([r.e_global for r in self.results])
        finite = values[np.isfinite(values)]
        return float(finite.mean()) if finite.size else float("nan")

    @property
    def mean_fit_seconds(self) -> float:
        return float(np.mean([r.fit_seconds for r in self.results]))

    def pooled_predictions(self) -> tuple[np.ndarray, np.ndarray]:
        """All test-day (true, predicted) pairs across vehicles."""
        d_true = np.concatenate([r.d_true for r in self.results])
        d_pred = np.concatenate([r.d_pred for r in self.results])
        return d_true, d_pred

    def error_by_day(
        self, days: Iterable[int] = DEFAULT_HORIZON
    ) -> dict[int, float]:
        """Figure 5's per-day curve, pooled over the fleet's test days."""
        d_true, d_pred = self.pooled_predictions()
        return residual_error_by_day(d_true, d_pred, days)


class OldVehicleExperiment:
    """Train/evaluate per-vehicle predictors under one configuration."""

    def __init__(self, config: OldVehicleConfig | None = None):
        self.config = config or OldVehicleConfig()

    def _train_dataset(self, series: VehicleSeries, cut: int) -> RelationalDataset:
        cfg = self.config
        if cfg.n_shifts > 0:
            dataset = augment_with_time_shifts(
                series.usage,
                series.t_v,
                cfg.window,
                n_shifts=cfg.n_shifts,
                rng=cfg.seed,
                max_shift=cut,
                day_range=(0, cut),
            )
        else:
            dataset = build_relational_dataset(
                series.bundle, cfg.window, day_range=(0, cut)
            )
        if cfg.restrict_to_horizon:
            restricted = dataset.restrict_to_horizon(cfg.horizon)
            # Fall back to the full dataset if the restriction would
            # leave nothing to learn from (degenerate short vehicles).
            if restricted.n_records > 0:
                dataset = restricted
        return dataset

    def run_vehicle(
        self, series: VehicleSeries, algorithm: str
    ) -> VehicleResult:
        """Train on the first 70 % of days, evaluate on the rest."""
        cfg = self.config
        cut = int(round(cfg.train_fraction * series.n_days))
        cut = min(max(cut, cfg.window + 1), series.n_days - 1)

        train = self._train_dataset(series, cut)
        test = build_relational_dataset(
            series.bundle, cfg.window, day_range=(cut, series.n_days)
        )
        if train.n_records == 0 or test.n_records == 0:
            raise ValueError(
                f"Vehicle {series.vehicle_id!r} yields an empty "
                f"{'train' if train.n_records == 0 else 'test'} set under "
                f"window={cfg.window}, train_fraction={cfg.train_fraction}."
            )

        predictor = make_predictor(
            algorithm, grid=cfg.grid, cv_splits=cfg.cv_splits
        )
        start = time.perf_counter()
        predictor.fit(train, usage=series.usage[:cut])
        fit_seconds = time.perf_counter() - start

        d_pred = predictor.predict(test.X)
        return VehicleResult(
            vehicle_id=series.vehicle_id,
            algorithm=algorithm,
            window=cfg.window,
            e_mre=mean_residual_error(test.y, d_pred, cfg.horizon),
            e_global=global_error(test.y, d_pred),
            n_train=train.n_records,
            n_test=test.n_records,
            fit_seconds=fit_seconds,
            d_true=test.y,
            d_pred=d_pred,
            t_index=test.t_index,
        )

    def run_fleet(
        self,
        fleet_series: Sequence[VehicleSeries],
        algorithm: str,
        executor=None,
    ) -> FleetResult:
        """Evaluate one algorithm over every vehicle.

        ``executor`` (any :class:`concurrent.futures.Executor`) fans the
        per-vehicle runs out in parallel; results keep the input
        vehicle order and are identical to the serial loop (training is
        per-vehicle independent and seeded).
        """
        if not fleet_series:
            raise ValueError("fleet_series must be non-empty.")
        task = _RunVehicleTask(config=self.config, algorithm=algorithm)
        fan_out = map if executor is None else executor.map
        results = list(fan_out(task, fleet_series))
        return FleetResult(
            algorithm=algorithm, window=self.config.window, results=results
        )

    def run_matrix(
        self,
        fleet_series: Sequence[VehicleSeries],
        algorithms: Iterable[str],
        executor=None,
    ) -> dict[str, FleetResult]:
        """Evaluate several algorithms; keys follow the input order."""
        return {
            algorithm: self.run_fleet(fleet_series, algorithm, executor)
            for algorithm in algorithms
        }


@dataclass(frozen=True)
class _RunVehicleTask:
    """Picklable (vehicle -> result) job for process-pool fan-out."""

    config: OldVehicleConfig
    algorithm: str

    def __call__(self, series: VehicleSeries) -> VehicleResult:
        return OldVehicleExperiment(self.config).run_vehicle(
            series, self.algorithm
        )


def select_best_algorithm(
    series: VehicleSeries,
    algorithms: Iterable[str],
    config: OldVehicleConfig | None = None,
) -> tuple[str, dict[str, VehicleResult]]:
    """Section 4.3's model selection for one vehicle.

    Trains every candidate and returns the key minimizing
    ``E_MRE(horizon)`` plus all per-algorithm results.  NaN MREs lose
    against any finite one; full-NaN candidates fall back to
    ``E_Global``.
    """
    experiment = OldVehicleExperiment(config)
    results = {
        algorithm: experiment.run_vehicle(series, algorithm)
        for algorithm in algorithms
    }
    if not results:
        raise ValueError("algorithms must be non-empty.")

    def sort_key(item: tuple[str, VehicleResult]):
        _, result = item
        mre = result.e_mre
        if np.isfinite(mre):
            return (0, mre)
        return (1, result.e_global)

    best_key = min(results.items(), key=sort_key)[0]
    return best_key, results
