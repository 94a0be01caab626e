"""Seeded inputs of each workload, their preconditions, and the serial
reference the served forecasts must equal.

The program under test receives only what this module writes: a fleet
saved with ``save_fleet`` (the preload) and the readings ``run.py``
streams later.  Fleets come from ``FleetGenerator``; a workload with a
category mix picks its vehicles from a larger generated pool.  A seed
whose pool misses the mix moves on to the next derived fleet seed, so
every seed yields valid inputs and the mix is asserted, never assumed.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.categorize import VehicleCategory, categorize_usage
from repro.core.series import VehicleSeries
from repro.fleet import Fleet, FleetGenerator, load_fleet, save_fleet
from repro.fleet.generator import DEFAULT_START
from repro.fleet.profiles import ARCHETYPES
from repro.fleet.vehicle import SimulatedVehicle
from repro.serving.service import Forecast, MaintenancePredictionService

from spec import DEPOT_SIZE, Workload

__all__ = [
    "Inputs",
    "make_inputs",
    "reference_service",
    "reference_forecasts",
    "expected_forecasts",
    "WINDOW",
    "ALGORITHM",
]

WINDOW = 6
ALGORITHM = "RF"

#: Fleet seeds tried per benchmark seed before giving up.
_ATTEMPTS = 256

#: A NEW vehicle needs more than ``WINDOW`` observed days to be served.
_MIN_DAYS = WINDOW + 1

#: Days of an OLD vehicle's first cycle, lowest and highest.  Every
#: model a set-up trains (per-vehicle, ``Model_Uni``, ``Model_Sim``)
#: fits the ``WINDOW``-lagged records of first cycles.  A narrow band
#: gives every seed about the same training work, so ``setup_s`` does
#: not depend on which fleet a seed draws.
_FIRST_CYCLE_DAYS = (12, 18)

#: Generated vehicles per fleet vehicle of a workload with a mix.
_POOL = 4


@dataclass
class Inputs:
    """Everything one run sends, derived from ``(workload, seed)``."""

    workload: Workload
    fleet_seed: int
    t_v: float
    #: Full series per vehicle, preload then stream, at CSV precision.
    histories: dict[str, np.ndarray]
    #: Days of each history saved as the preload; the ``k``-th streamed
    #: fleet day carries day ``preload[v] + k`` of vehicle ``v``.
    preload: dict[str, int]
    stream_days: int
    depots: list[list[str]]
    #: ``(vehicle, day)`` of each cycle closed by a streamed reading.
    closures: list[tuple[str, int]]
    fleet_dir: Path

    @property
    def vehicle_ids(self) -> list[str]:
        return sorted(self.histories)

    def categories(self, days: dict[str, int]) -> dict[str, VehicleCategory]:
        return {
            vid: categorize_usage(self.histories[vid][: days[vid]], self.t_v)
            for vid in self.histories
        }


def _csv_precision(values: np.ndarray) -> np.ndarray:
    # save_fleet writes "%.3f"; the served fleet is what load_fleet reads.
    return np.array([float(f"{x:.3f}") for x in values])


def _stream_days(workload: Workload, seconds: float) -> int:
    if not workload.has_ingest:
        return 0
    readings = seconds * workload.ingest_rate * (workload.readings_per_post or workload.n_vehicles)
    return math.floor(readings / workload.n_vehicles)


def _cut_choices(usage, t_v, want: VehicleCategory) -> np.ndarray:
    """Preload lengths that give category ``want``.

    OLD vehicles stop 3 to 12 days after their first cycle closes, which
    keeps each per-vehicle model — trained at every set-up — small; the
    first cycle must lie in ``_FIRST_CYCLE_DAYS``.
    """
    total = np.cumsum(usage)
    days = np.arange(1, usage.size + 1)
    if want is VehicleCategory.OLD:
        cycles = VehicleSeries(vehicle_id="cut", usage=usage, t_v=t_v).completed_cycles
        lo, hi = _FIRST_CYCLE_DAYS
        if not cycles or not lo <= cycles[0].n_days <= hi:
            return np.array([], dtype=int)
        first = cycles[0].end + 1
        return days[(days >= first + 3) & (days <= first + 12)]
    if want is VehicleCategory.SEMI_NEW:
        ok = (total >= t_v / 2) & (total < t_v)
    else:
        ok = total < t_v / 2
    return days[ok & (days >= _MIN_DAYS)]


def _shape(workload: Workload, histories, rng) -> dict[str, int] | None:
    """Preload length per chosen vehicle of the generated pool; ``None``
    when the pool cannot be cut to the mix."""
    ids = sorted(histories)
    if workload.mix is None:
        return {vid: workload.preload_days for vid in ids}
    # NEW is the rarest role a series can take (it needs a slow start),
    # then SEMI-NEW; each takes the first vehicles, in a seeded order,
    # whose series allow it.
    wanted = dict(zip((VehicleCategory.OLD, VehicleCategory.SEMI_NEW, VehicleCategory.NEW), workload.mix))
    order = [ids[i] for i in rng.permutation(len(ids))]
    days = {}
    for category in (VehicleCategory.NEW, VehicleCategory.SEMI_NEW, VehicleCategory.OLD):
        for vid in order:
            if wanted[category] == 0:
                break
            if vid in days:
                continue
            usage = histories[vid][: workload.preload_days]
            choices = _cut_choices(usage, workload.t_v, category)
            if choices.size:
                days[vid] = int(rng.choice(choices))
                wanted[category] -= 1
        if wanted[category]:
            return None
    return days


def _closures(histories, preload, t_v) -> list[tuple[str, int]]:
    out = []
    for vid, usage in histories.items():
        series = VehicleSeries(vehicle_id=vid, usage=usage, t_v=t_v)
        out.extend(
            (vid, cycle.end)
            for cycle in series.completed_cycles
            if cycle.end >= preload[vid]
        )
    return sorted(out, key=lambda item: (item[1], item[0]))


def _problem(workload: Workload, inputs: Inputs, seconds: float) -> str | None:
    """Why ``inputs`` miss the workload's preconditions, or ``None``."""
    if any(n < _MIN_DAYS for n in inputs.preload.values()):
        return "a vehicle has too short a preload to be served"
    at_preload = list(inputs.categories(inputs.preload).values())
    counts = tuple(
        at_preload.count(c)
        for c in (VehicleCategory.OLD, VehicleCategory.SEMI_NEW, VehicleCategory.NEW)
    )
    if workload.mix is not None and counts != workload.mix:
        return f"OLD/SEMI-NEW/NEW mix {counts}, need {workload.mix}"
    if workload.max_old_at_end is not None:
        full = {vid: len(h) for vid, h in inputs.histories.items()}
        old = list(inputs.categories(full).values()).count(VehicleCategory.OLD)
        if old > workload.max_old_at_end:
            return f"{old} vehicles turn OLD during the stream"
    needed = round(workload.completions_per_s * seconds)
    if len(inputs.closures) != needed:
        return f"{len(inputs.closures)} cycle completions in the stream, need {needed}"
    return None


def make_inputs(workload: Workload, seed: int, seconds: float, directory: Path) -> Inputs:
    """Generate, check and save the inputs of one run."""
    stream_days = _stream_days(workload, seconds)
    total_days = workload.preload_days + stream_days
    archetypes = tuple(
        p for p in ARCHETYPES if workload.archetype in (None, p.name)
    )
    pool = workload.n_vehicles * (1 if workload.mix is None else _POOL)
    problems = []
    for attempt in range(_ATTEMPTS):
        fleet_seed = seed * _ATTEMPTS + attempt
        rng = np.random.default_rng([fleet_seed, 0xB0D6E7])
        fleet = FleetGenerator(
            n_vehicles=pool,
            end_date=DEFAULT_START + dt.timedelta(days=total_days - 1),
            t_v=workload.t_v,
            seed=fleet_seed,
            archetypes=archetypes,
        ).generate()
        histories = {v.vehicle_id: _csv_precision(v.usage) for v in fleet}
        preload = _shape(workload, histories, rng)
        if preload is None:
            problems.append(f"fleet cannot be cut to the mix {workload.mix}")
            continue
        # Each chosen vehicle streams the days that follow its own preload.
        histories = {vid: histories[vid][: n + stream_days] for vid, n in preload.items()}
        closures = _closures(histories, preload, workload.t_v)
        ids = sorted(histories)
        # Depots deal each category round-robin, so every depot carries
        # the fleet's mix and a depot read costs about the same whichever
        # depot the schedule picks.
        rank = {c: i for i, c in enumerate(VehicleCategory)}
        position = {vid: i for i, vid in enumerate(ids[j] for j in rng.permutation(len(ids)))}
        dealt = sorted(
            ids,
            key=lambda v: (
                rank[categorize_usage(histories[v][: preload[v]], workload.t_v)],
                position[v],
            ),
        )
        n_depots = math.ceil(len(ids) / DEPOT_SIZE)
        depots = [sorted(dealt[d::n_depots]) for d in range(n_depots)]
        inputs = Inputs(
            workload=workload,
            fleet_seed=fleet_seed,
            t_v=workload.t_v,
            histories=histories,
            preload=preload,
            stream_days=stream_days,
            depots=depots,
            closures=closures,
            fleet_dir=directory,
        )
        problem = _problem(workload, inputs, seconds)
        if problem is None:
            by_id = {v.vehicle_id: v for v in fleet}
            saved = Fleet(
                vehicles=[
                    SimulatedVehicle(
                        spec=by_id[vid].spec,
                        usage=histories[vid][: preload[vid]],
                        start_date=by_id[vid].start_date,
                    )
                    for vid in ids
                ],
                t_v=workload.t_v,
                seed=fleet_seed,
            )
            save_fleet(saved, directory)
            return inputs
        problems.append(problem)
    raise RuntimeError(
        f"{workload.name}: no valid fleet for seed {seed} in {_ATTEMPTS} "
        f"attempts (last: {problems[-1]})"
    )


def reference_service(
    inputs: Inputs, days: dict[str, int] | None = None
) -> MaintenancePredictionService:
    """A serial service over the saved preload plus ``days`` of history.

    Vehicles register in the saved fleet's order, as ``repro serve``
    registers them.  ``days`` (default: the preload) may extend a
    vehicle's history into the streamed readings.
    """
    fleet = load_fleet(inputs.fleet_dir)
    service = MaintenancePredictionService(
        t_v=fleet.t_v, window=WINDOW, algorithm=ALGORITHM
    )
    for vehicle in fleet.vehicles:
        vid = vehicle.vehicle_id
        service.register_vehicle(vid)
        service.ingest_series(vid, vehicle.usage)
        extra = inputs.histories[vid][len(vehicle.usage) : (days or {}).get(vid, 0)]
        for seconds in extra:
            service.ingest(vid, float(seconds))
    return service


def reference_forecasts(service: MaintenancePredictionService) -> dict[str, Forecast]:
    return {vid: service.predict(vid) for vid in service.vehicle_ids}


def expected_forecasts(inputs: Inputs) -> dict[str, dict[str, Forecast]]:
    """The serial forecasts of the preloaded fleet and, for a streamed
    workload, of the fleet after every streamed reading."""
    out = {"preload": reference_forecasts(reference_service(inputs))}
    if inputs.workload.has_ingest:
        full = {vid: len(h) for vid, h in inputs.histories.items()}
        out["final"] = reference_forecasts(reference_service(inputs, full))
    return out
