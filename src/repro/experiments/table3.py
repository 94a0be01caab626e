"""Table 3: results for semi-new and new vehicles.

Reproduces the cold-start evaluation: semi-new vehicles scored with
``E_MRE({1..29})`` on the second half of their first cycle (BL from own
first-half average; ``Model_Sim`` and ``Model_Uni`` per algorithm), new
vehicles scored with ``E_Global`` (``Model_Uni`` only).  The paper found
BL collapsing (34.9), RF_Sim best for semi-new (2.9, just ahead of
RF_Uni 3.2) and XGB_Uni best for new vehicles (17.9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.coldstart import (
    ColdStartConfig,
    ColdStartExperiment,
    aggregate_by_label,
)
from .config import ExperimentSetup
from .reporting import format_table

__all__ = ["Table3Result", "run_table3", "TABLE3_ALGORITHMS"]

TABLE3_ALGORITHMS: tuple[str, ...] = ("LR", "LSVR", "RF", "XGB")


@dataclass
class Table3Result:
    """Semi-new E_MRE and new E_Global per Table-3 row label."""

    semi_new_e_mre: dict[str, float]
    new_e_global: dict[str, float]
    n_train_vehicles: int
    n_test_vehicles: int
    setup: ExperimentSetup

    def render(self) -> str:
        labels = ["BL"]
        for strategy in ("Sim", "Uni"):
            for algorithm in TABLE3_ALGORITHMS:
                labels.append(f"{algorithm}_{strategy}")
        rows = []
        for label in labels:
            rows.append(
                (
                    label,
                    self.semi_new_e_mre.get(label, float("nan")),
                    self.new_e_global.get(label, float("nan")),
                )
            )
        return format_table(
            ["Algorithm", "Semi-new E_MRE({1..29})", "New E_Global"],
            rows,
            title=(
                "Table 3: semi-new and new vehicles "
                f"({self.n_train_vehicles} train / "
                f"{self.n_test_vehicles} test vehicles)"
            ),
        )

    def best_semi_new(self) -> str:
        finite = {
            k: v for k, v in self.semi_new_e_mre.items() if np.isfinite(v)
        }
        return min(finite, key=finite.get)

    def best_new(self) -> str:
        finite = {
            k: v for k, v in self.new_e_global.items() if np.isfinite(v)
        }
        return min(finite, key=finite.get)


def run_table3(
    setup: ExperimentSetup | None = None,
    algorithms: tuple[str, ...] = TABLE3_ALGORITHMS,
    window: int = 0,
) -> Table3Result:
    """Run the full cold-start protocol (Section 4.4).

    ``window=0`` mirrors the univariate setting; the similarity-based
    donor selection then carries the per-vehicle rate information, which
    is where ``Model_Sim`` earns its advantage over ``Model_Uni``.
    """
    setup = setup or ExperimentSetup()
    experiment = ColdStartExperiment(
        ColdStartConfig(window=window, grid=setup.grid, seed=setup.seed)
    )
    train, test = experiment.split_fleet(setup.all_series)
    with setup.pool() as executor:
        semi_results = experiment.run_semi_new(
            train, test, algorithms, executor=executor
        )
        new_results = experiment.run_new(
            train, test, algorithms, executor=executor
        )
    return Table3Result(
        semi_new_e_mre=aggregate_by_label(semi_results, "e_mre"),
        new_e_global=aggregate_by_label(new_results, "e_global"),
        n_train_vehicles=len(train),
        n_test_vehicles=len(test),
        setup=setup,
    )
