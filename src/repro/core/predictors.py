"""The paper's three prediction approaches (Section 4.1).

* **Baseline (BL)** — assume constant future utilization equal to the
  training average; days left = usage budget left / average daily usage
  (Eqs. 5-6).
* **Univariate regression** — ``D(t) = F(L(t))`` (Eq. 7), i.e. a
  regressor over the single feature ``L(t)`` (window ``W = 0``).
* **Multivariate regression** — ``D(t) = F(L(t), U(t-1), ..., U(t-W))``
  (Eq. 8), the windowed relational layout of
  :mod:`repro.dataprep.transformation`.

The univariate/multivariate distinction lives entirely in the dataset
(its window); :class:`RegressionPredictor` wraps any
:mod:`repro.learn` estimator behind a common predictor interface so the
evaluation harness treats BL and the regressors uniformly.
"""

from __future__ import annotations

import numpy as np

from ..dataprep.transformation import RelationalDataset
from ..learn.base import clone
from ..learn.forest import RandomForestRegressor, fit_forests
from ..learn.model_selection import (
    GridSearchCV,
    KFold,
    neg_mean_absolute_error_scorer,
)

__all__ = [
    "BaselinePredictor",
    "RegressionPredictor",
    "can_fuse",
    "fit_predictors",
]


class BaselinePredictor:
    """The BL scheduling policy of Eqs. 5-6.

    ``AVG_v`` is the mean daily utilization over the training period
    (idle days included — they are part of how slowly a budget burns
    down), and the prediction is ``D_BL(t) = L(t) / AVG_v``.

    Parameters
    ----------
    min_average:
        Floor on ``AVG_v`` to keep predictions finite for vehicles that
        barely worked during training.
    """

    name = "BL"
    is_baseline = True
    trusted_predict = True

    def __init__(self, min_average: float = 1.0):
        if min_average <= 0:
            raise ValueError(
                f"min_average must be positive, got {min_average}."
            )
        self.min_average = min_average

    def fit(self, train: RelationalDataset, usage: np.ndarray) -> "BaselinePredictor":
        """Estimate ``AVG_v`` from the training-period usage series.

        ``train`` is accepted (and ignored beyond interface uniformity);
        BL "is not trained" in the ML sense (Section 5.1).
        """
        usage = np.asarray(usage, dtype=np.float64)
        if usage.size == 0:
            raise ValueError("usage must be non-empty to compute AVG_v.")
        if not np.isfinite(usage).all():
            raise ValueError("usage contains NaN/inf; clean the data first.")
        self.average_ = max(float(usage.mean()), self.min_average)
        return self

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        """Predict days left from feature rows (column 0 is ``L(t)``)."""
        if not hasattr(self, "average_"):
            raise RuntimeError("BaselinePredictor used before fit().")
        X = np.asarray(X, dtype=np.float64)
        if validate and (X.ndim != 2 or X.shape[1] < 1):
            raise ValueError(
                f"X must be 2-D with L(t) in column 0, got shape {X.shape}."
            )
        return np.maximum(X[:, 0], 0.0) / self.average_


class RegressionPredictor:
    """A :mod:`repro.learn` regressor behind the predictor interface.

    Parameters
    ----------
    name:
        Algorithm label (``"LR"``, ``"LSVR"``, ``"RF"``, ``"XGB"`` ...).
    estimator:
        Unfitted estimator template (cloned at fit time).
    param_grid:
        Optional hyper-parameter grid; when given, :meth:`fit` runs the
        paper's 5-fold grid search (Section 5) and keeps the winner.
    cv_splits:
        Folds for the grid search.
    clip_negative:
        Clamp predictions at zero — "-3 days to maintenance" is never a
        useful answer for a planner.
    """

    is_baseline = False
    trusted_predict = True

    def __init__(
        self,
        name: str,
        estimator,
        param_grid: dict | None = None,
        cv_splits: int = 5,
        clip_negative: bool = True,
    ):
        self.name = name
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv_splits = cv_splits
        self.clip_negative = clip_negative

    def fit(
        self, train: RelationalDataset, usage: np.ndarray | None = None
    ) -> "RegressionPredictor":
        """Fit (optionally grid-searching) on a relational dataset.

        ``usage`` is accepted for interface uniformity with
        :class:`BaselinePredictor` and ignored.
        """
        if train.n_records == 0:
            raise ValueError(f"{self.name}: empty training dataset.")
        X, y = train.X, train.y
        if self.param_grid:
            n_splits = min(self.cv_splits, train.n_records)
            if n_splits >= 2:
                search = GridSearchCV(
                    clone(self.estimator),
                    self.param_grid,
                    cv=KFold(n_splits=n_splits, shuffle=True, random_state=0),
                    scoring=neg_mean_absolute_error_scorer,
                )
                search.fit(X, y)
                self.model_ = search.best_estimator_
                self.best_params_ = search.best_params_
                return self
        self.model_ = clone(self.estimator)
        self.model_.fit(X, y)
        self.best_params_ = None
        return self

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        if not hasattr(self, "model_"):
            raise RuntimeError(
                f"RegressionPredictor {self.name!r} used before fit()."
            )
        X = np.asarray(X, dtype=np.float64)
        if not validate and getattr(self.model_, "trusted_predict", False):
            out = self.model_.predict(X, validate=False)
        else:
            out = self.model_.predict(X)
        if self.clip_negative:
            out = np.maximum(out, 0.0)
        return out


def can_fuse(predictor) -> bool:
    """Whether :func:`fit_predictors` can fuse ``predictor``'s fit: a plain
    :class:`RegressionPredictor` (no grid search, no instance-level
    ``fit`` override) around a :class:`~repro.learn.forest.
    RandomForestRegressor`."""
    return (
        type(predictor) is RegressionPredictor
        and not predictor.param_grid
        and "fit" not in vars(predictor)
        and type(predictor.estimator) is RandomForestRegressor
    )


def fit_predictors(predictors, datasets, kwargs) -> list[Exception | None]:
    """``predictors[i].fit(datasets[i], **kwargs[i])`` for every ``i``;
    returns one error (or ``None``) per predictor.

    Each predictor ends exactly as its own ``fit`` leaves it.  The
    :func:`can_fuse` ones grow in one :func:`~repro.learn.forest.
    fit_forests` pass; the others fit alone, in order.  When the fused
    pass raises, its predictors fit alone too, so an error lands on the
    predictor whose data caused it and the others still fit.
    """
    fused = [i for i, p in enumerate(predictors) if can_fuse(p)]
    models = [clone(predictors[i].estimator) for i in fused]
    try:
        if any(datasets[i].n_records == 0 for i in fused):
            raise ValueError("an empty training dataset")
        fit_forests(
            models,
            [datasets[i].X for i in fused],
            [datasets[i].y for i in fused],
        )
    except Exception:
        fused = []
    for i, model in zip(fused, models):
        predictors[i].model_ = model
        predictors[i].best_params_ = None
    done = set(fused)
    errors: list[Exception | None] = [None] * len(predictors)
    for i, predictor in enumerate(predictors):
        if i not in done:
            try:
                predictor.fit(datasets[i], **kwargs[i])
            except Exception as exc:
                errors[i] = exc
    return errors
