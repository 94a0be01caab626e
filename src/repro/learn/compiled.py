"""Compiled inference kernels: flat node tables + level-wise descent.

The reference estimators predict through per-tree Python loops — the
forest sums ``tree.predict(X)`` over N trees, the boosted model sums
``learning_rate * tree.predict_binned(binned)`` over N rounds — so a
fleet-shaped workload (thousands of single-row predicts per day) is
dominated by interpreter dispatch, not arithmetic.  This module flattens
a fitted estimator into contiguous structure-of-arrays node tables
(feature, threshold, left/right child, leaf value, per-tree root
offsets) and advances **all (row x tree) cursors together**, one tree
level per numpy step, so an ensemble predict costs ~``max_depth``
vectorized gathers instead of N Python round trips.

Bit-identity contract
---------------------
Compiled predictions are bit-identical to the reference path
(:func:`reference_predict`), because

* a tree prediction is a pure *gather*: the kernel walks exactly the
  comparisons the reference descent walks (``x[feature] <= threshold``
  on the same float64 values) and copies the same leaf value — no
  arithmetic is introduced, so stacking rows from many vehicles into one
  matrix cannot change any row's bits;
* aggregation replays the reference summation order: the forest
  accumulates per-tree columns into ``zeros`` then divides by N, the
  boosted model accumulates ``learning_rate * column`` onto the baseline
  — the same elementwise IEEE operations in the same order;
* leaves are encoded as self-loops (``left == right == node``), so once
  a cursor lands on its leaf further levels leave it in place and the
  comparison outcome is irrelevant — degenerate single-leaf trees and
  ragged depths need no masking.

Linear models (``X @ coef`` is a reduction whose batched BLAS path is
*not* bitwise row-separable) are compiled with ``batch_safe = False``:
the serving layer calls them row-at-a-time and only skips the
per-call validation overhead.

``tests/learn/test_compiled.py`` pins the contract with exact byte
comparisons across estimator types, depths 1-50 and degenerate trees.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary, WeakSet

import numpy as np

__all__ = [
    "CompileError",
    "compile_model",
    "try_compile",
    "reference_predict",
    "ensemble_kernel",
    "gbdt_kernel",
]


class CompileError(TypeError):
    """The model cannot be flattened into a vectorized kernel.

    ``unsupported`` is the model type :func:`compile_model` has no
    branch for, when that is the reason; ``None`` when the failure
    depends on the model's state (unfitted, a clipping pipeline step).
    """

    def __init__(self, message: str, unsupported: type | None = None):
        super().__init__(message)
        self.unsupported = unsupported


def _require_fitted(model, attribute: str) -> None:
    if not hasattr(model, attribute):
        raise CompileError(
            f"{type(model).__name__} is missing {attribute!r}; "
            "fit the model before compiling it."
        )


class _FlatForest:
    """Concatenated node tables for a set of flat-array trees.

    Works for both CART trees (float thresholds over raw features) and
    histogram trees (integer thresholds over binned codes): the caller
    supplies per-tree ``(children_left, children_right, feature,
    threshold, value)`` arrays plus a leaf threshold sentinel that makes
    ``x <= sentinel`` false for every valid input, so leaf self-loops
    always take the (self-pointing) right child.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "roots",
        "n_trees",
        "depth",
        "node_count",
    )

    def __init__(self, trees, leaf_threshold):
        columns = list(zip(*trees))
        sizes = [len(value) for value in columns[4]]
        roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        children_left, children_right = (
            np.concatenate(column).astype(np.intp) for column in columns[:2]
        )
        leaf = children_left == -1
        nodes = np.arange(leaf.size, dtype=np.intp)
        base = np.repeat(roots, sizes)
        self.left = np.where(leaf, nodes, children_left + base)
        self.right = np.where(leaf, nodes, children_right + base)
        self.feature = np.concatenate(columns[2]).astype(np.intp)
        self.feature[leaf] = 0
        self.threshold = np.concatenate(columns[3])
        self.threshold[leaf] = leaf_threshold
        self.value = np.concatenate(columns[4]).astype(np.float64)
        self.roots = roots
        self.n_trees = len(sizes)
        # Depth of the deepest leaf: one step per level, all trees at once.
        depth = 0
        frontier = roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if not frontier.size:
                break
            frontier = np.concatenate(
                (self.left[frontier], self.right[frontier])
            )
            depth += 1
        self.depth = depth
        self.node_count = leaf.size

    def descend(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for every (tree, row) pair: shape ``(T, R)``.

        ``codes`` is the ``(R, F)`` matrix the thresholds live in (raw
        float features for CART, uint8 bin codes for histogram trees).
        One fancy-gather triple per level; leaves self-loop, so running
        exactly ``depth`` iterations parks every cursor on its leaf.
        """
        rows, n_features = codes.shape
        flat = np.ascontiguousarray(codes).ravel()
        column_base = np.arange(rows, dtype=np.intp) * n_features
        cursor = np.broadcast_to(
            self.roots[:, None], (self.n_trees, rows)
        ).copy()
        for _ in range(self.depth):
            cell = self.feature[cursor]
            np.add(cell, column_base, out=cell)
            go_left = flat[cell] <= self.threshold[cursor]
            cursor = np.where(
                go_left, self.left[cursor], self.right[cursor]
            )
        return self.value[cursor]


class _CompiledTrees:
    """Kernel for :class:`~repro.learn.tree.DecisionTreeRegressor` and
    :class:`~repro.learn.forest.RandomForestRegressor`."""

    batch_safe = True
    kind = "trees"

    def __init__(self, trees, n_features: int, aggregate: str):
        # `x <= -inf` is false for every finite x, so leaf self-loops
        # always re-take the self-pointing right child.
        self.forest = _FlatForest(
            [
                (t.children_left, t.children_right, t.feature, t.threshold, t.value)
                for t in trees
            ],
            leaf_threshold=-np.inf,
        )
        self.n_features = int(n_features)
        self.aggregate = aggregate

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)`` leaf-value matrix from one traversal."""
        return self.forest.descend(np.asarray(X, dtype=np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        per_tree = self.predict_per_tree(X)
        if self.aggregate == "single":
            return per_tree[0]
        # Reference summation order: zeros, += tree-by-tree, / N.  The
        # accumulate adds tree by tree too; it starts at tree 0 instead
        # of +0.0, and ``+ 0.0`` turns the one sum that can differ, an
        # all -0.0 column, back into the reference's +0.0.
        total = np.add.accumulate(per_tree, axis=0)[-1] + 0.0
        return total / per_tree.shape[0]


class _CompiledGBDT:
    """Kernel for :class:`~repro.learn.boosting.
    HistGradientBoostingRegressor`, bin thresholds included.

    Keeps a handle on the fitted :class:`~repro.learn.boosting.
    BinMapper` and uses its trusted single-``searchsorted`` transform;
    the traversal then compares uint8 bin codes against the flattened
    integer thresholds (leaf sentinel ``-1``: no code is ``<= -1``).
    """

    batch_safe = True
    kind = "gbdt"

    def __init__(self, estimator):
        self.mapper = estimator.bin_mapper_
        self.forest = _FlatForest(
            [
                (t.children_left, t.children_right, t.feature,
                 np.asarray(t.bin_threshold, dtype=np.int64), t.value)
                for t in estimator.estimators_
            ],
            leaf_threshold=-1,
        )
        self.learning_rate = float(estimator.learning_rate)
        self.baseline = float(estimator.baseline_prediction_)
        self.n_features = len(self.mapper.bin_edges_)

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        binned = self.mapper.transform(
            np.asarray(X, dtype=np.float64), validate=False
        )
        return self.forest.descend(binned)

    def predict(self, X: np.ndarray) -> np.ndarray:
        per_tree = self.predict_per_tree(X)
        # Reference summation order: baseline, += lr * tree-by-tree.
        terms = np.empty((per_tree.shape[0] + 1, per_tree.shape[1]))
        terms[0] = self.baseline
        np.multiply(self.learning_rate, per_tree, out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]


class _CompiledLinear:
    """Single-matvec kernel for ``coef_`` / ``intercept_`` models.

    ``X @ coef`` reduces over features through BLAS paths that change
    with the batch shape, so a stacked matvec is *not* bitwise equal to
    per-row dots — hence ``batch_safe = False``: the serving layer
    calls this one row at a time (each call still bit-identical to the
    reference, which runs the very same expression on the same row).
    """

    batch_safe = False
    kind = "linear"

    def __init__(self, coef, intercept):
        self.coef = np.ascontiguousarray(coef, dtype=np.float64)
        self.intercept = float(intercept)
        self.n_features = self.coef.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept


class _CompiledPipeline:
    """Affine scaler stages in front of an inner compiled kernel."""

    kind = "pipeline"

    def __init__(self, stages, inner):
        self.stages = [
            (
                np.asarray(offset, dtype=np.float64),
                np.asarray(scale, dtype=np.float64),
            )
            for offset, scale in stages
        ]
        self.inner = inner
        self.batch_safe = inner.batch_safe
        self.n_features = (
            self.stages[0][0].shape[0] if self.stages else inner.n_features
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        for offset, scale in self.stages:
            X = (X - offset) / scale
        return self.inner.predict(X)


class _CompiledBaseline:
    """Eqs. 5-6 baseline: ``max(L(t), 0) / AVG_v`` (elementwise)."""

    batch_safe = True
    kind = "baseline"

    def __init__(self, average: float):
        self.average = float(average)
        self.n_features = 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X[:, 0], 0.0) / self.average


class _CompiledPredictor:
    """A compiled :class:`~repro.core.predictors.RegressionPredictor`:
    the inner estimator kernel plus its non-negativity clip."""

    kind = "predictor"

    def __init__(self, inner, clip_negative: bool):
        self.inner = inner
        self.clip_negative = bool(clip_negative)
        self.batch_safe = inner.batch_safe
        self.n_features = inner.n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self.inner.predict(X)
        if self.clip_negative:
            out = np.maximum(out, 0.0)
        return out


def compile_model(model):
    """Flatten a fitted model into a vectorized inference kernel.

    Supported: :class:`DecisionTreeRegressor`,
    :class:`RandomForestRegressor`, :class:`HistGradientBoostingRegressor`
    (bin thresholds included), ``coef_``/``intercept_`` linear models
    (:class:`LinearRegression`, :class:`Ridge`, :class:`LinearSVR`),
    :class:`Pipeline` chains of affine scalers over any of the above,
    and the serving-facade wrappers :class:`RegressionPredictor` /
    :class:`BaselinePredictor`.  Raises :class:`CompileError` for
    anything else (use :func:`try_compile` for a ``None`` fallback).

    The returned kernel's ``predict(X)`` is bit-identical to the
    reference model's ``predict`` on the same ``X``; kernels with
    ``batch_safe = True`` additionally guarantee that row ``i`` of a
    stacked batch equals the single-row prediction of row ``i``.

    Forests, boosting models and :class:`RegressionPredictor` return
    the kernel cached for their current fit, the same object their own
    ``predict`` uses; the cheap kernels are built on each call.
    """
    kernel = _warm_kernel(model)
    if kernel is not None:
        return kernel
    # Imports are local: these modules import this one for their own
    # fused predict paths, so a module-level import would be circular.
    from ..core.predictors import BaselinePredictor, RegressionPredictor
    from .boosting import HistGradientBoostingRegressor
    from .forest import RandomForestRegressor
    from .linear import _BaseLinear
    from .pipeline import Pipeline
    from .tree import DecisionTreeRegressor

    if isinstance(model, RegressionPredictor):
        _require_fitted(model, "model_")
        clip = model.clip_negative
        return _cached_kernel(
            model,
            "model_",
            lambda inner: _CompiledPredictor(compile_model(inner), clip),
        )
    if isinstance(model, BaselinePredictor):
        _require_fitted(model, "average_")
        return _CompiledBaseline(model.average_)
    if isinstance(model, RandomForestRegressor):
        _require_fitted(model, "estimators_")
        return ensemble_kernel(model)
    if isinstance(model, DecisionTreeRegressor):
        _require_fitted(model, "tree_")
        return _CompiledTrees(
            [model.tree_], model.n_features_in_, aggregate="single"
        )
    if isinstance(model, HistGradientBoostingRegressor):
        _require_fitted(model, "estimators_")
        return gbdt_kernel(model)
    if isinstance(model, Pipeline):
        _require_fitted(model, "fitted_")
        stages = []
        for name, step in model.steps[:-1]:
            if not (hasattr(step, "offset_") and hasattr(step, "scale_")):
                raise CompileError(
                    f"Pipeline step {name!r} ({type(step).__name__}) is "
                    "not an affine scaler; cannot compile."
                )
            if getattr(step, "clip", False):
                raise CompileError(
                    f"Pipeline step {name!r} clips its output; the "
                    "affine-stage kernel would change semantics."
                )
            stages.append((step.offset_, step.scale_))
        return _CompiledPipeline(stages, compile_model(model.steps[-1][1]))
    if isinstance(model, _BaseLinear):
        _require_fitted(model, "coef_")
        return _CompiledLinear(model.coef_, model.intercept_)
    raise CompileError(
        f"Cannot compile {type(model).__name__}; no kernel for it.",
        unsupported=type(model),
    )


#: Model types :func:`compile_model` has no branch for.  Their failure
#: is a property of the type, so :func:`try_compile` answers them
#: without another attempt; an unfitted model is retried, because it
#: compiles once fitted.
_NO_KERNEL: "WeakSet[type]" = WeakSet()


def try_compile(model):
    """:func:`compile_model`, but ``None`` instead of raising for
    unsupported or unfitted models (the serving layer's fallback)."""
    kind = type(model)
    if kind in _NO_KERNEL:
        return None
    try:
        return compile_model(model)
    except CompileError as exc:
        if exc.unsupported is kind:
            _NO_KERNEL.add(kind)
        return None


# -- kernel cache ------------------------------------------------------------
#
# The one cache of compiled kernels.  An entry is keyed weakly on the
# model it was compiled from (pickled artifacts never carry the
# flattened tables, and a collected model drops its entry) and tokened
# on the model's fitted state itself: ``estimators_`` for an ensemble,
# ``model_`` for a predictor wrapper.  Every fit assigns a fresh one.
# The entry holds its token strongly, so the ``is`` check cannot be
# fooled by a refit that reuses a freed object's address.  A kernel
# never references the model it was compiled from, or the weak entry
# would keep its own key alive.

_KERNELS: "WeakKeyDictionary" = WeakKeyDictionary()


def _warm_kernel(model):
    """The kernel cached for ``model``'s current fit, or ``None``."""
    try:
        attribute, state, kernel = _KERNELS[model]
    except (KeyError, TypeError):  # not cached, or not weakly referable
        return None
    return kernel if getattr(model, attribute) is state else None


def _cached_kernel(model, attribute, build):
    """``model``'s cached kernel, built as ``build(state)`` from its
    fitted state ``getattr(model, attribute)`` on a miss."""
    kernel = _warm_kernel(model)
    if kernel is None:
        state = getattr(model, attribute)
        kernel = build(state)
        _KERNELS[model] = (attribute, state, kernel)
    return kernel


def ensemble_kernel(forest) -> _CompiledTrees:
    """The (cached) fused kernel for a fitted random forest."""
    return _cached_kernel(
        forest,
        "estimators_",
        lambda trees: _CompiledTrees(
            [tree.tree_ for tree in trees],
            forest.n_features_in_,
            aggregate="mean",
        ),
    )


def gbdt_kernel(estimator) -> _CompiledGBDT:
    """The (cached) fused kernel for a fitted boosting model."""
    return _cached_kernel(
        estimator, "estimators_", lambda _: _CompiledGBDT(estimator)
    )


# -- reference oracle --------------------------------------------------------


def _reference_binned(mapper, X: np.ndarray) -> np.ndarray:
    """The pre-kernel per-feature binning loop, kept as the oracle."""
    binned = np.empty(X.shape, dtype=np.uint8)
    for j, cuts in enumerate(mapper.bin_edges_):
        binned[:, j] = np.searchsorted(cuts, X[:, j], side="left")
    return binned


def reference_predict(model, X) -> np.ndarray:
    """The pre-kernel serial prediction path, op for op.

    Used as the correctness oracle by the compiled-kernel tests and as
    the honest baseline by ``benchmarks/bench_predict_kernel.py``: it
    re-runs the per-tree Python loops (including each tree's own input
    re-validation, exactly as the old ensemble ``predict`` did) that the
    fused kernels replace.
    """
    from ..core.predictors import BaselinePredictor, RegressionPredictor
    from .boosting import HistGradientBoostingRegressor
    from .forest import RandomForestRegressor
    from .validation import check_array, check_is_fitted

    if isinstance(model, RegressionPredictor):
        out = reference_predict(
            model.model_, np.asarray(X, dtype=np.float64)
        )
        if model.clip_negative:
            out = np.maximum(out, 0.0)
        return out
    if isinstance(model, BaselinePredictor):
        X = np.asarray(X, dtype=np.float64)
        return np.maximum(X[:, 0], 0.0) / model.average_
    if isinstance(model, RandomForestRegressor):
        check_is_fitted(model, "estimators_")
        X = check_array(X)
        out = np.zeros(X.shape[0])
        for tree in model.estimators_:
            out += tree.predict(X)
        return out / len(model.estimators_)
    if isinstance(model, HistGradientBoostingRegressor):
        check_is_fitted(model, "estimators_")
        X = check_array(X)
        binned = _reference_binned(model.bin_mapper_, X)
        out = np.full(X.shape[0], model.baseline_prediction_)
        for tree in model.estimators_:
            out += model.learning_rate * tree.predict_binned(binned)
        return out
    # Linear models, pipelines, single trees: their predict path never
    # had a per-estimator Python loop, so the live path is the oracle.
    return model.predict(X)
