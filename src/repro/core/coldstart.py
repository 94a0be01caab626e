"""Methodology for new and semi-new vehicles (Section 4.4).

Vehicles without a completed maintenance cycle cannot get a per-vehicle
model.  The paper's remedies, both trained on *first-cycle* data of old
("training") vehicles because "the first maintenance cycle of most
vehicles appears to have peculiar characteristics, with less usage":

* **Model_Uni** — one model over the merged first cycles of the
  training vehicles; the only option for *new* vehicles.
* **Model_Sim** — per test vehicle, train only on the first cycle of
  the most similar training vehicle, where similarity compares the
  utilization series of the *first half* of the first cycle (the data a
  semi-new vehicle has, by definition).
* **Baseline** — ``AVG_v`` computed from the test vehicle's own first
  half of the first cycle (only possible for semi-new vehicles).

Evaluation follows Section 5.2 / Table 3: semi-new vehicles are scored
with ``E_MRE({1..29})`` on the second half of their first cycle; new
vehicles with ``E_Global`` on the first half (near the deadline a
vehicle is no longer new), and only ``Model_Uni`` applies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..dataprep.transformation import (
    RelationalDataset,
    build_relational_dataset,
)
from ..similarity.measures import most_similar
from .errors import DEFAULT_HORIZON, global_error, mean_residual_error
from .predictors import BaselinePredictor
from .registry import make_predictor
from .series import VehicleSeries

__all__ = [
    "ColdStartConfig",
    "ColdStartResult",
    "ColdStartExperiment",
    "first_cycle_dataset",
    "half_cycle_day",
    "aggregate_by_label",
]


def half_cycle_day(series: VehicleSeries) -> int:
    """First day index at which cumulative usage reaches ``T_v / 2``.

    Days ``>= half_cycle_day`` are the vehicle's *semi-new era*; days
    before it are its *new era*.  Raises if the vehicle never reaches
    half a budget (it is still new at the end of its data).
    """
    cumulative = np.cumsum(series.usage)
    reached = np.nonzero(cumulative >= series.t_v / 2.0)[0]
    if reached.size == 0:
        raise ValueError(
            f"Vehicle {series.vehicle_id!r} never reaches T_v/2; it is "
            "still 'new'."
        )
    return int(reached[0]) + 1


def first_cycle_dataset(
    series: VehicleSeries, window: int
) -> RelationalDataset:
    """Labeled windowed records of a vehicle's (completed) first cycle."""
    first = series.first_cycle()
    if not first.completed:
        raise ValueError(
            f"Vehicle {series.vehicle_id!r} has not completed its first "
            "cycle; it has no labeled first-cycle records."
        )
    return build_relational_dataset(
        series.bundle, window, day_range=(first.start, first.end + 1)
    )


@dataclass(frozen=True)
class ColdStartConfig:
    """Protocol knobs for the cold-start experiments.

    Attributes
    ----------
    window:
        Feature lag window ``W``.
    horizon:
        Day set for the semi-new ``E_MRE``.
    grid:
        Hyper-parameter grid choice forwarded to the registry.
    cv_splits:
        Grid-search folds.
    train_fraction:
        Vehicle-level split share (paper: 70 % -> 17 of 24 vehicles).
    seed:
        Seed of the vehicle split.
    similarity_measure:
        Name or callable for ``Model_Sim`` donor selection.  Default
        ``"average_usage"``: the paper describes its measure as the
        point-wise average distance ``AVG_v`` *between the utilization
        series* and interprets the result as "comparing the similarity
        of average usage" (Section 5.2) — i.e. matching vehicles on
        their mean utilization level, which is what carries the burn
        rate a univariate donor model needs.  ``"pointwise"`` (strict
        day-by-day alignment), ``"correlation"``, ``"euclidean"`` and
        ``"dtw"`` are available for the ablation bench.
    """

    window: int = 0
    horizon: tuple[int, ...] = DEFAULT_HORIZON
    grid: str | None = None
    cv_splits: int = 5
    train_fraction: float = 0.7
    seed: int = 0
    similarity_measure: object = "average_usage"

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}.")
        if not self.horizon:
            raise ValueError("horizon must be non-empty.")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}."
            )


@dataclass
class ColdStartResult:
    """One (test vehicle, algorithm, strategy) outcome."""

    vehicle_id: str
    algorithm: str
    strategy: str  # "BL", "Uni" or "Sim"
    e_mre: float
    e_global: float
    n_eval: int
    donor_id: str | None = None
    d_true: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)
    d_pred: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)

    @property
    def label(self) -> str:
        """Table-3 row label, e.g. ``"RF_Sim"`` or ``"BL"``."""
        if self.strategy == "BL":
            return "BL"
        return f"{self.algorithm}_{self.strategy}"


class ColdStartExperiment:
    """Unified / similarity-based cold-start training and evaluation."""

    def __init__(self, config: ColdStartConfig | None = None):
        self.config = config or ColdStartConfig()

    # -- fleet split -------------------------------------------------------

    def split_fleet(
        self, fleet_series: Sequence[VehicleSeries]
    ) -> tuple[list[VehicleSeries], list[VehicleSeries]]:
        """Vehicle-level random split (Section 4.4: 17 train / 7 test)."""
        usable = [
            s for s in fleet_series if s.cycles and s.first_cycle().completed
        ]
        if len(usable) < 2:
            raise ValueError(
                "Need at least 2 vehicles with completed first cycles."
            )
        rng = np.random.default_rng(self.config.seed)
        order = list(usable)
        rng.shuffle(order)
        n_train = int(round(self.config.train_fraction * len(order)))
        n_train = min(max(n_train, 1), len(order) - 1)
        return order[:n_train], order[n_train:]

    # -- training ------------------------------------------------------------

    def fit_unified(
        self, train_series: Sequence[VehicleSeries], algorithm: str
    ):
        """``Model_Uni``: one model on the merged first cycles."""
        datasets = [
            first_cycle_dataset(series, self.config.window)
            for series in train_series
        ]
        merged = RelationalDataset.concatenate(datasets)
        predictor = make_predictor(
            algorithm, grid=self.config.grid, cv_splits=self.config.cv_splits
        )
        predictor.fit(merged, usage=None)
        return predictor

    def _first_half_usage(self, series: VehicleSeries) -> np.ndarray:
        half = half_cycle_day(series)
        return series.usage[:half]

    def fit_similarity(
        self,
        test_series: VehicleSeries,
        train_series: Sequence[VehicleSeries],
        algorithm: str,
    ) -> tuple[object, str]:
        """``Model_Sim``: train on the most similar vehicle's first cycle.

        Similarity compares the first half of the first cycle of the
        test vehicle against the same window of each training vehicle.
        """
        target = self._first_half_usage(test_series)
        candidates = {
            series.vehicle_id: self._first_half_usage(series)
            for series in train_series
        }
        donor_id, _ = most_similar(
            target, candidates, measure=self.config.similarity_measure
        )
        donor = next(
            s for s in train_series if s.vehicle_id == donor_id
        )
        dataset = first_cycle_dataset(donor, self.config.window)
        predictor = make_predictor(
            algorithm, grid=self.config.grid, cv_splits=self.config.cv_splits
        )
        predictor.fit(dataset, usage=donor.usage[: donor.first_cycle().end + 1])
        return predictor, donor_id

    def fit_baseline_semi_new(self, test_series: VehicleSeries):
        """Semi-new BL: ``AVG_v`` from the test vehicle's own first half."""
        predictor = BaselinePredictor()
        dummy = RelationalDataset(
            X=np.zeros((0, self.config.window + 1)),
            y=np.zeros(0),
            t_index=np.zeros(0, dtype=np.intp),
            window=self.config.window,
        )
        predictor.fit(dummy, usage=self._first_half_usage(test_series))
        return predictor

    # -- evaluation ----------------------------------------------------------

    def _eval_dataset(
        self, series: VehicleSeries, era: str
    ) -> RelationalDataset:
        """Labeled first-cycle records of the requested era.

        ``era="semi_new"`` keeps days at/after the half-budget point;
        ``era="new"`` keeps the days before it.
        """
        dataset = first_cycle_dataset(series, self.config.window)
        half = half_cycle_day(series)
        if era == "semi_new":
            mask = dataset.t_index >= half
        elif era == "new":
            mask = dataset.t_index < half
        elif era == "full":
            mask = np.ones(dataset.n_records, dtype=bool)
        else:
            raise ValueError(f"Unknown era {era!r}.")
        return RelationalDataset(
            X=dataset.X[mask],
            y=dataset.y[mask],
            t_index=dataset.t_index[mask],
            window=dataset.window,
        )

    def _score(
        self,
        series: VehicleSeries,
        predictor,
        era: str,
        algorithm: str,
        strategy: str,
        donor_id: str | None = None,
    ) -> ColdStartResult:
        dataset = self._eval_dataset(series, era)
        if dataset.n_records == 0:
            return ColdStartResult(
                vehicle_id=series.vehicle_id,
                algorithm=algorithm,
                strategy=strategy,
                e_mre=float("nan"),
                e_global=float("nan"),
                n_eval=0,
                donor_id=donor_id,
            )
        d_pred = predictor.predict(dataset.X)
        return ColdStartResult(
            vehicle_id=series.vehicle_id,
            algorithm=algorithm,
            strategy=strategy,
            e_mre=mean_residual_error(dataset.y, d_pred, self.config.horizon),
            e_global=global_error(dataset.y, d_pred),
            n_eval=dataset.n_records,
            donor_id=donor_id,
            d_true=dataset.y,
            d_pred=d_pred,
        )

    # -- full protocol ---------------------------------------------------------

    def _semi_new_vehicle(
        self,
        series: VehicleSeries,
        train_series: Sequence[VehicleSeries],
        unified: dict,
        algorithms: Sequence[str],
    ) -> list[ColdStartResult]:
        """All semi-new scores for one test vehicle (BL, Sim, Uni)."""
        results = [
            self._score(
                series,
                self.fit_baseline_semi_new(series),
                era="semi_new",
                algorithm="BL",
                strategy="BL",
            )
        ]
        for algorithm in algorithms:
            predictor, donor_id = self.fit_similarity(
                series, train_series, algorithm
            )
            results.append(
                self._score(
                    series,
                    predictor,
                    era="semi_new",
                    algorithm=algorithm,
                    strategy="Sim",
                    donor_id=donor_id,
                )
            )
            results.append(
                self._score(
                    series,
                    unified[algorithm],
                    era="semi_new",
                    algorithm=algorithm,
                    strategy="Uni",
                )
            )
        return results

    def run_semi_new(
        self,
        train_series: Sequence[VehicleSeries],
        test_series: Sequence[VehicleSeries],
        algorithms: Iterable[str],
        executor=None,
    ) -> list[ColdStartResult]:
        """Table 3 (semi-new column): BL + {alg}x{Uni, Sim} per vehicle.

        ``executor`` (any :class:`concurrent.futures.Executor`) fans the
        per-test-vehicle work out in parallel; the flattened result
        order matches the serial loop exactly.
        """
        algorithms = [a for a in algorithms if a != "BL"]
        unified = {
            algorithm: self.fit_unified(train_series, algorithm)
            for algorithm in algorithms
        }
        task = _SemiNewVehicleTask(
            config=self.config,
            train_series=tuple(train_series),
            unified=unified,
            algorithms=tuple(algorithms),
        )
        fan_out = map if executor is None else executor.map
        groups = fan_out(task, test_series)
        return [result for group in groups for result in group]

    def run_new(
        self,
        train_series: Sequence[VehicleSeries],
        test_series: Sequence[VehicleSeries],
        algorithms: Iterable[str],
        era: str = "full",
        executor=None,
    ) -> list[ColdStartResult]:
        """Table 3 (new column): ``Model_Uni`` only, scored by E_Global.

        The vehicle is *new* when the prediction service starts; Eq. 3's
        global error then averages daily errors over all its (first
        cycle) samples, which is what ``era="full"`` scores.  Pass
        ``era="new"`` to restrict scoring to the days on which the
        vehicle was still categorically new (a stricter reading).
        """
        algorithms = [a for a in algorithms if a != "BL"]
        unified = {
            algorithm: self.fit_unified(train_series, algorithm)
            for algorithm in algorithms
        }
        task = _NewVehicleTask(
            config=self.config,
            unified=unified,
            algorithms=tuple(algorithms),
            era=era,
        )
        fan_out = map if executor is None else executor.map
        groups = fan_out(task, test_series)
        return [result for group in groups for result in group]


@dataclass(frozen=True)
class _SemiNewVehicleTask:
    """Picklable per-vehicle semi-new job for parallel fan-out."""

    config: ColdStartConfig
    train_series: tuple
    unified: dict
    algorithms: tuple

    def __call__(self, series: VehicleSeries) -> list[ColdStartResult]:
        experiment = ColdStartExperiment(self.config)
        return experiment._semi_new_vehicle(
            series, self.train_series, self.unified, self.algorithms
        )


@dataclass(frozen=True)
class _NewVehicleTask:
    """Picklable per-vehicle new-era job for parallel fan-out."""

    config: ColdStartConfig
    unified: dict
    algorithms: tuple
    era: str

    def __call__(self, series: VehicleSeries) -> list[ColdStartResult]:
        experiment = ColdStartExperiment(self.config)
        return [
            experiment._score(
                series,
                self.unified[algorithm],
                era=self.era,
                algorithm=algorithm,
                strategy="Uni",
            )
            for algorithm in self.algorithms
        ]


def aggregate_by_label(
    results: Iterable[ColdStartResult], metric: str = "e_mre"
) -> dict[str, float]:
    """Mean of a metric per Table-3 row label, skipping NaNs."""
    if metric not in ("e_mre", "e_global"):
        raise ValueError(f"metric must be 'e_mre' or 'e_global', got {metric!r}.")
    buckets: dict[str, list[float]] = {}
    for result in results:
        buckets.setdefault(result.label, []).append(getattr(result, metric))
    out: dict[str, float] = {}
    for label, values in buckets.items():
        finite = [v for v in values if np.isfinite(v)]
        out[label] = float(np.mean(finite)) if finite else float("nan")
    return out
