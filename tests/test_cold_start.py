"""Cold start: a serving process never loads scipy.

Of the paper's four model families only LSVR needs an outside solver,
and only to fit, so ``repro.learn.svm`` imports ``scipy.optimize``
inside ``LinearSVR.fit``.  Each case runs in a fresh interpreter so
``sys.modules`` starts clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.learn.svm import LinearSVR

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED_SCIPY = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)

# Fixed LSVR training data, rebuilt identically in each interpreter.
SVR_DATA = textwrap.dedent(
    """
    import numpy as np
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 4))
    y = X @ np.array([1.5, -2.0, 0.25, 3.0]) + 0.7 + rng.normal(0, 0.3, 120)
    """
)


def run_fresh(code: str, prelude: str = "") -> dict:
    """Run ``prelude`` then ``code`` in a new interpreter; return the
    JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_serving_rf_fleet_loads_no_scipy():
    report = run_fresh(
        f"""
        import datetime as dt
        import json
        import sys

        import repro
        import repro.cli
        import repro.durability
        import repro.lifecycle
        import repro.serving.gateway
        import repro.serving.sharding
        from repro.core.categorize import VehicleCategory
        from repro.fleet import FleetGenerator
        from repro.serving.engine import FleetEngine

        after_imports = {LOADED_SCIPY}
        fleet = FleetGenerator(
            n_vehicles=3, start_date=dt.date(2015, 1, 1),
            end_date=dt.date(2016, 6, 30), seed=7,
        ).generate()
        engine = FleetEngine(t_v=fleet.t_v, algorithm="RF")
        for vehicle in fleet.vehicles:
            engine.service.register_vehicle(vehicle.vehicle_id)
            engine.ingest_history(vehicle.vehicle_id, vehicle.usage)
        forecasts = engine.predict_all()
        print(json.dumps({{
            "after_imports": after_imports,
            "after_predict": {LOADED_SCIPY},
            "old_per_vehicle": sum(
                f.category is VehicleCategory.OLD and f.strategy == "per-vehicle"
                for f in forecasts
            ),
        }}))
        """
    )
    assert report["old_per_vehicle"] >= 1
    assert report["after_imports"] == []
    assert report["after_predict"] == []


def test_fitting_linear_svr_loads_scipy():
    report = run_fresh(
        f"""
        import json
        import sys

        from repro.learn.svm import LinearSVR

        before = {LOADED_SCIPY}
        LinearSVR().fit(X, y)
        print(json.dumps({{"before": before, "after": {LOADED_SCIPY}}}))
        """,
        prelude=SVR_DATA,
    )
    assert report["before"] == []
    assert "scipy.optimize" in report["after"]


def test_linear_svr_fit_matches_in_process_fit():
    report = run_fresh(
        f"""
        import json

        from repro.learn.svm import LinearSVR

        model = LinearSVR(C=10.0, epsilon=0.1, loss="epsilon_insensitive").fit(X, y)
        print(json.dumps({{
            "coef": [float(c).hex() for c in model.coef_],
            "intercept": model.intercept_.hex(),
            "n_iter": model.n_iter_,
        }}))
        """,
        prelude=SVR_DATA,
    )
    data: dict = {}
    exec(SVR_DATA, data)
    model = LinearSVR(C=10.0, epsilon=0.1, loss="epsilon_insensitive").fit(
        data["X"], data["y"]
    )
    assert [float.fromhex(c) for c in report["coef"]] == model.coef_.tolist()
    assert float.fromhex(report["intercept"]) == model.intercept_
    assert report["n_iter"] == model.n_iter_


def test_repro_loads_subpackages_on_first_use():
    report = run_fresh(
        """
        import json
        import sys

        from repro import cli

        after_cli = sorted(
            name for name in ("repro.context", "repro.telemetry")
            if name in sys.modules
        )
        import repro

        context = repro.context
        print(json.dumps({
            "after_cli": after_cli,
            "context": context.__name__,
            "loaded": "repro.context" in sys.modules,
        }))
        """
    )
    assert report["after_cli"] == []
    assert report["context"] == "repro.context"
    assert report["loaded"]
