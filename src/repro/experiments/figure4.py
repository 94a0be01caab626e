"""Figure 4: performance vs feature-window size ``W``.

Reproduces: "Improvement (%) for each algorithm by increasing the number
of features.  W is the window of past usage in the time series U_v(t)."
Positive improvement means a lower ``E_MRE`` than the same algorithm's
Table-1 restricted entry (its ``W = 0`` configuration).  The paper found
RF (+44 %) and XGB (+25 %) improving strongly and plateauing past ~15
lags, LSVR peaking around ``W = 6``, LR best without lags, and BL flat
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.old_vehicles import OldVehicleConfig, OldVehicleExperiment
from ..core.registry import PAPER_ALGORITHM_ORDER
from .config import ExperimentSetup
from .reporting import format_mapping_series

__all__ = ["Figure4Result", "run_figure4", "DEFAULT_WINDOWS"]

DEFAULT_WINDOWS: tuple[int, ...] = (0, 3, 6, 9, 12, 15, 18)


@dataclass
class Figure4Result:
    """Per-algorithm E_MRE and improvement curves over ``W``."""

    e_mre: dict[str, dict[int, float]]  # algorithm -> {W: E_MRE}
    setup: ExperimentSetup

    @property
    def windows(self) -> list[int]:
        first = next(iter(self.e_mre.values()))
        return list(first)

    def improvement(self) -> dict[str, dict[int, float]]:
        """Improvement (%) of each ``W`` over the algorithm's ``W = 0``."""
        out: dict[str, dict[int, float]] = {}
        for algorithm, curve in self.e_mre.items():
            base = curve[0]
            out[algorithm] = {
                w: (100.0 * (1.0 - value / base) if base > 0 else 0.0)
                for w, value in curve.items()
            }
        return out

    def best_window(self, algorithm: str) -> int:
        """The ``W`` minimizing the algorithm's E_MRE (Table 2 input)."""
        curve = self.e_mre[algorithm]
        return min(curve, key=lambda w: (curve[w], w))

    def render(self) -> str:
        return format_mapping_series(
            self.improvement(),
            x_label="W",
            title="Figure 4: improvement (%) vs window size W",
        )


def run_figure4(
    setup: ExperimentSetup | None = None,
    algorithms: tuple[str, ...] = PAPER_ALGORITHM_ORDER,
    windows: tuple[int, ...] = DEFAULT_WINDOWS,
) -> Figure4Result:
    """Sweep ``W`` for every algorithm under last-29-days training.

    BL ignores lag features, so it is evaluated once and replicated flat
    across the sweep ("BL is obviously constant"), saving its cost.
    """
    setup = setup or ExperimentSetup()
    if 0 not in windows:
        raise ValueError("windows must include 0 (the improvement anchor).")
    series = setup.old_series

    curves: dict[str, dict[int, float]] = {}
    with setup.pool() as executor:
        for algorithm in algorithms:
            curve: dict[int, float] = {}
            if algorithm == "BL":
                experiment = OldVehicleExperiment(
                    OldVehicleConfig(window=0, restrict_to_horizon=True)
                )
                value = experiment.run_fleet(series, algorithm, executor).e_mre
                curve = {w: float(value) for w in windows}
            else:
                for window in windows:
                    experiment = OldVehicleExperiment(
                        OldVehicleConfig(
                            window=window,
                            restrict_to_horizon=True,
                            grid=setup.grid,
                        )
                    )
                    curve[window] = float(
                        experiment.run_fleet(series, algorithm, executor).e_mre
                    )
            curves[algorithm] = curve
    return Figure4Result(e_mre=curves, setup=setup)
