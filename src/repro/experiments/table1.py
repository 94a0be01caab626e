"""Table 1: effect of restricting training records to the last 29 days.

Reproduces: "E_MRE({1,...,29}) with models trained on all data and models
trained in the last 29 days before maintenance".  The paper found the
restriction cut the ML models' error by 48-65 % while leaving the
untrained baseline unchanged, with RF best, XGB second, LSVR close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.old_vehicles import OldVehicleConfig, OldVehicleExperiment
from ..core.registry import PAPER_ALGORITHM_ORDER
from .config import ExperimentSetup
from .reporting import format_table

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One algorithm's Table-1 entry."""

    algorithm: str
    e_mre_all_data: float
    e_mre_restricted: float

    @property
    def reduction_pct(self) -> float:
        """Relative error reduction from the training restriction."""
        if self.e_mre_all_data == 0:
            return 0.0
        return 100.0 * (1.0 - self.e_mre_restricted / self.e_mre_all_data)


@dataclass
class Table1Result:
    """All rows plus the setup that produced them."""

    rows: list[Table1Row]
    setup: ExperimentSetup

    def row(self, algorithm: str) -> Table1Row:
        for row in self.rows:
            if row.algorithm == algorithm:
                return row
        raise KeyError(f"No Table-1 row for {algorithm!r}.")

    def render(self) -> str:
        return format_table(
            ["Algorithm", "Trained on all data", "Trained on D={1..29}",
             "Reduction %"],
            [
                (r.algorithm, r.e_mre_all_data, r.e_mre_restricted,
                 r.reduction_pct)
                for r in self.rows
            ],
            title="Table 1: E_MRE({1..29}), all-data vs last-29-days training",
        )


def run_table1(
    setup: ExperimentSetup | None = None,
    algorithms: tuple[str, ...] = PAPER_ALGORITHM_ORDER,
    window: int = 0,
) -> Table1Result:
    """Run both training regimes for every algorithm.

    ``window=0`` matches Table 1's setting (feature study comes later,
    in Figure 4).
    """
    setup = setup or ExperimentSetup()
    series = setup.old_series

    all_data = OldVehicleExperiment(
        OldVehicleConfig(window=window, grid=setup.grid)
    )
    restricted = OldVehicleExperiment(
        OldVehicleConfig(
            window=window, grid=setup.grid, restrict_to_horizon=True
        )
    )

    rows = []
    with setup.pool() as executor:
        for algorithm in algorithms:
            e_all = all_data.run_fleet(series, algorithm, executor).e_mre
            if algorithm == "BL":
                # "Since BL is not trained, its results do not change."
                e_restricted = e_all
            else:
                e_restricted = restricted.run_fleet(
                    series, algorithm, executor
                ).e_mre
            rows.append(
                Table1Row(
                    algorithm=algorithm,
                    e_mre_all_data=float(e_all),
                    e_mre_restricted=float(e_restricted),
                )
            )
    return Table1Result(rows=rows, setup=setup)
