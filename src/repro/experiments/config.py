"""Shared experiment setup.

Every table/figure module takes an :class:`ExperimentSetup` so the whole
evaluation runs off one synthetic fleet and one seed.  ``fast=True``
(default) keeps grid sizes and vehicle counts at bench-friendly scale;
``fast=False`` runs the paper-scale protocol (24 vehicles, full grids).
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterator
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

from ..core.series import VehicleSeries
from ..fleet.generator import Fleet, FleetGenerator

__all__ = ["ExperimentSetup"]


@dataclass(frozen=True)
class ExperimentSetup:
    """Configuration shared by all reproduction experiments.

    Attributes
    ----------
    seed:
        Master seed for fleet generation and vehicle splits.
    n_vehicles:
        Fleet size (paper: 24).
    t_v:
        Usage budget per maintenance cycle (paper: 2e6 s).
    fast:
        Bench-friendly mode: smaller grids, a vehicle subsample.
    n_old_vehicles:
        How many vehicles the old-vehicle experiments use; ``None``
        means all in slow mode / 8 in fast mode.
    max_workers:
        Worker processes for the per-vehicle experiment runs; ``None``
        or ``1`` keeps the serial loop.  Results are identical either
        way (per-vehicle training is independent and seeded).
    """

    seed: int = 0
    n_vehicles: int = 24
    t_v: float = 2_000_000.0
    fast: bool = True
    n_old_vehicles: int | None = None
    max_workers: int | None = None

    @cached_property
    def fleet(self) -> Fleet:
        """The synthetic fleet (generated once per setup)."""
        return FleetGenerator(
            n_vehicles=self.n_vehicles, t_v=self.t_v, seed=self.seed
        ).generate()

    @cached_property
    def all_series(self) -> list[VehicleSeries]:
        return [VehicleSeries.from_vehicle(v) for v in self.fleet]

    @cached_property
    def old_series(self) -> list[VehicleSeries]:
        """Vehicles used by the old-vehicle experiments (Tables 1-2)."""
        limit = self.n_old_vehicles
        if limit is None:
            limit = 8 if self.fast else self.n_vehicles
        return self.all_series[:limit]

    @property
    def grid(self) -> str | None:
        """Grid-search mode forwarded to the registry."""
        return None if self.fast else "paper"

    @contextmanager
    def pool(self) -> Iterator[Executor | None]:
        """A process pool for one driver's fan-out, shut down on exit.

        Yields ``None`` (the serial loop, no pool started) unless
        ``max_workers`` is 2 or more.  Processes, not threads: the
        per-vehicle fits hold the GIL, so only processes overlap them.
        Workers are spawned, not forked, so a caller's threads are never
        copied into them mid-operation.
        """
        if self.max_workers is None or self.max_workers == 1:
            yield None
            return
        with ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            yield pool
