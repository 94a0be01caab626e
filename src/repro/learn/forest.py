"""Random forest regression.

Section 4.2: "The Random Forest Regression averages the predictions made by
various decision tree models, which are trained on different bootstraps
(i.e., samples of the training data with replacement)."  This module
implements exactly that on top of :class:`repro.learn.tree.DecisionTreeRegressor`,
with per-split feature subsampling and an optional out-of-bag estimate.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, RegressorMixin
from .compiled import ensemble_kernel
from .metrics import r2_score
from .tree import DecisionTreeRegressor, fit_trees
from .validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

__all__ = ["RandomForestRegressor", "fit_forests"]

#: Exclusive bound of each tree's seed draw.
_SEED_BOUND = int(np.iinfo(np.int32).max)


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Bagged ensemble of CART trees with random feature subsets.

    Parameters
    ----------
    n_estimators:
        Number of trees (the paper sweeps 10-1000).
    max_depth:
        Per-tree depth limit (the paper sweeps 3-50).
    min_samples_split, min_samples_leaf, min_impurity_decrease:
        Forwarded to each tree.
    max_features:
        Features examined per split.  Default ``1.0`` (all features),
        matching scikit-learn's regression default; ``"sqrt"`` gives the
        classic Breiman forest.
    bootstrap:
        Draw each tree's training set with replacement (default).  When
        false, every tree sees the full data and randomness comes only
        from ``max_features``.
    oob_score:
        If true (requires ``bootstrap``), compute ``oob_score_`` /
        ``oob_prediction_`` from out-of-bag samples after fitting.
    random_state:
        Seed for bootstrap draws and per-tree feature subsampling.

    Fitting grows every bag's tree at once, one depth per step
    (:func:`repro.learn.tree.fit_trees`), bit-identical to fitting the
    trees one by one; :func:`fit_forests` grows many forests in the
    same pass, and ``fit`` is its one-forest case.  Prediction runs
    through the fused level-wise kernel (:mod:`repro.learn.compiled`),
    bit-identical to the per-tree loop it replaced; ``validate=False``
    additionally skips input re-validation for trusted callers (the
    serving engine).
    """

    trusted_predict = True

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            min_impurity_decrease=self.min_impurity_decrease,
            random_state=seed,
        )

    def fit(self, X, y):
        fit_forests([self], [X], [y])
        return self

    def _draw(self, X, y):
        """Validate ``(X, y)`` and draw every tree's seed and bag: per
        tree, its seed, then its bag, the order the draws have always
        been made in.  Returns ``(X, y, trees, bags)``."""
        X, y = check_X_y(X, y, min_samples=2)
        if self.n_estimators < 1:
            raise ValueError(
                f"n_estimators must be >= 1, got {self.n_estimators}."
            )
        if self.oob_score and not self.bootstrap:
            raise ValueError("oob_score requires bootstrap=True.")
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        trees, bags = [], []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(_SEED_BOUND))
            trees.append(self._make_tree(seed))
            bags.append(
                rng.integers(0, n_samples, size=n_samples)
                if self.bootstrap
                else None
            )
        return X, y, trees, bags

    def _finish(self, X, y, trees, bags) -> None:
        """Set the fitted attributes once ``trees`` are grown."""
        n_samples = X.shape[0]
        self.estimators_ = trees
        if self.oob_score:
            oob_sum = np.zeros(n_samples)
            oob_count = np.zeros(n_samples, dtype=np.intp)
            for tree, bag in zip(trees, bags):
                mask = np.ones(n_samples, dtype=bool)
                mask[np.unique(bag)] = False
                if mask.any():
                    oob_sum[mask] += tree.predict(X[mask])
                    oob_count[mask] += 1
            covered = oob_count > 0
            prediction = np.full(n_samples, np.nan)
            prediction[covered] = oob_sum[covered] / oob_count[covered]
            self.oob_prediction_ = prediction
            if covered.sum() >= 2:
                self.oob_score_ = r2_score(y[covered], prediction[covered])
            else:
                self.oob_score_ = np.nan

        importances = np.zeros(X.shape[1])
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self.n_features_in_ = X.shape[1]

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        if validate:
            check_is_fitted(self, "estimators_")
            X = check_array(X)
        else:
            X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.n_features_in_:
            # Same message the first tree used to raise from its own
            # re-validation, kept at the forest level because the fused
            # kernel traverses all trees in one pass.
            raise ValueError(
                f"X has {X.shape[1]} features; tree was fitted with "
                f"{self.n_features_in_}."
            )
        return ensemble_kernel(self).predict(X)

    def predict_quantiles(self, X, quantiles=(0.1, 0.9)) -> np.ndarray:
        """Empirical quantiles of the per-tree predictions.

        A cheap ensemble uncertainty estimate: the spread of the bagged
        trees' answers.  Returns shape ``(n_samples, len(quantiles))``.
        The maintenance planner uses the lower quantile to schedule
        conservatively when forecasts disagree.
        """
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        quantiles = np.asarray(list(quantiles), dtype=np.float64)
        if quantiles.size == 0 or np.any((quantiles < 0) | (quantiles > 1)):
            raise ValueError(
                f"quantiles must lie in [0, 1], got {quantiles.tolist()}."
            )
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; tree was fitted with "
                f"{self.n_features_in_}."
            )
        # One fused traversal yields the full (n_trees, n_samples)
        # matrix — previously this re-ran every tree's Python descent.
        per_tree = ensemble_kernel(self).predict_per_tree(X)
        return np.quantile(per_tree, quantiles, axis=0).T


def fit_forests(forests, Xs, ys) -> None:
    """Fit ``forests[i]`` on ``(Xs[i], ys[i])`` for every ``i``.

    Each forest ends up exactly as its own ``fit`` would leave it: its
    seeds and bags come from its own ``random_state``, drawn in the
    usual order.  Forests whose trees share every hyper-parameter and
    the feature count grow in one :func:`~repro.learn.tree.fit_trees`
    call: their rows are stacked and each bag is offset to its forest's
    rows, so the level-wise grower makes one pass per depth for all of
    them.  A node sees only its own rows, so a tree does not depend on
    what it was grown beside.  Raises on the first forest whose data or
    parameters are invalid, before any tree grows.
    """
    drawn = [forest._draw(X, y) for forest, X, y in zip(forests, Xs, ys)]
    groups: dict[tuple, list[int]] = {}
    for i, (forest, (X, *_)) in enumerate(zip(forests, drawn)):
        key = (
            forest.max_depth,
            forest.min_samples_split,
            forest.min_samples_leaf,
            forest.max_features,
            forest.min_impurity_decrease,
            X.shape[1],
        )
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        trees, bags, offset = [], [], 0
        for i in members:
            X, _, forest_trees, forest_bags = drawn[i]
            n_samples = X.shape[0]
            trees += forest_trees
            bags += [
                np.arange(offset, offset + n_samples)
                if bag is None
                else bag + offset
                for bag in forest_bags
            ]
            offset += n_samples
        fit_trees(
            trees,
            np.concatenate([drawn[i][0] for i in members]),
            np.concatenate([drawn[i][1] for i in members]),
            bags,
        )
    for forest, args in zip(forests, drawn):
        forest._finish(*args)
