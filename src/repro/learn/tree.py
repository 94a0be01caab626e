"""CART regression trees.

The paper's non-linear models (RF, and the boosted variant it calls XGB)
are ensembles of decision-tree regressors, described in Section 4.2 as "the
most popular non-linear mapping functions between non-predictive and
predictive variables".  This module implements the classic CART algorithm
with variance-reduction (squared-error) splitting:

* exact best-split search with sorts and prefix sums, grown level-wise:
  each depth evaluates every frontier node x feature of every tree of a
  forest in a few padded numpy passes (:func:`fit_trees`), with trees
  bit-identical to the depth-first one-node-at-a-time loop kept as the
  oracle (:func:`reference_fit`);
* ``max_depth``, ``min_samples_split``, ``min_samples_leaf``,
  ``min_impurity_decrease`` pre-pruning controls matching the grid the
  paper sweeps (tree depth 3-50);
* ``max_features`` column subsampling, which is what turns bagged trees
  into a random forest (:mod:`repro.learn.forest`).

Trees are stored in flat parallel arrays (``children_left``, ``feature``,
``threshold``...) so prediction is a vectorized breadth-first descent rather
than per-sample Python recursion.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, RegressorMixin
from .validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

__all__ = [
    "DecisionTreeRegressor",
    "Tree",
    "export_text",
    "fit_trees",
    "reference_fit",
]

_LEAF = -1

# Padded values one split-search pass may hold (nodes x features x
# padded width), so the grower's working set does not scale with the
# number of trees or frontier nodes.
_PASS_ELEMENTS = 1 << 15


class Tree:
    """Flat-array binary tree produced by :class:`DecisionTreeRegressor`.

    Attributes
    ----------
    children_left, children_right:
        Node index of each child; ``-1`` marks a leaf.
    feature:
        Split feature per internal node (``-1`` on leaves).
    threshold:
        Split threshold; samples with ``x[feature] <= threshold`` go left.
    value:
        Mean training target of the node (the prediction, on leaves).
    n_node_samples:
        Training samples that reached the node.
    impurity:
        Node variance (mean squared deviation from the node mean).
    """

    def __init__(self):
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.value: list[float] = []
        self.n_node_samples: list[int] = []
        self.impurity: list[float] = []

    def add_node(self, value: float, n_samples: int, impurity: float) -> int:
        """Append a (provisional leaf) node; return its index."""
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.value.append(value)
        self.n_node_samples.append(n_samples)
        self.impurity.append(impurity)
        return len(self.value) - 1

    def finalize(self) -> None:
        """Freeze python lists into ndarrays for fast prediction."""
        self.children_left = np.asarray(self.children_left, dtype=np.intp)
        self.children_right = np.asarray(self.children_right, dtype=np.intp)
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.n_node_samples = np.asarray(self.n_node_samples, dtype=np.intp)
        self.impurity = np.asarray(self.impurity, dtype=np.float64)

    @property
    def node_count(self) -> int:
        return len(self.value)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(np.asarray(self.children_left) == _LEAF))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0)."""
        depth = np.zeros(self.node_count, dtype=np.intp)
        for node in range(self.node_count):
            left = self.children_left[node]
            right = self.children_right[node]
            if left != _LEAF:
                depth[left] = depth[node] + 1
                depth[right] = depth[node] + 1
        return int(depth.max()) if self.node_count else 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row of ``X`` (vectorized descent)."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            internal = self.children_left[node] != _LEAF
            if not internal.any():
                return node
            idx = np.nonzero(internal)[0]
            current = node[idx]
            go_left = (
                X[idx, self.feature[current]] <= self.threshold[current]
            )
            node[idx] = np.where(
                go_left,
                self.children_left[current],
                self.children_right[current],
            )

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def _node_impurity(y_sum: float, y_sq_sum: float, n: int) -> float:
    """Variance impurity from sufficient statistics."""
    return max(y_sq_sum / n - (y_sum / n) ** 2, 0.0)


def _best_split_for_feature(
    x: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
) -> tuple[float, float] | None:
    """Best (weighted child SSE, threshold) on one feature, or ``None``.

    Uses a sort + prefix-sum scan: every boundary between distinct sorted
    feature values is a candidate threshold, so the search is exact.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = ys.size
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0]
    if boundaries.size == 0:
        return None
    left_n = boundaries + 1
    valid = (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
    boundaries = boundaries[valid]
    if boundaries.size == 0:
        return None
    left_n = left_n[valid]
    right_n = n - left_n
    cum_sum = np.cumsum(ys)
    cum_sq = np.cumsum(ys * ys)
    left_sum = cum_sum[boundaries]
    left_sq = cum_sq[boundaries]
    right_sum = cum_sum[-1] - left_sum
    right_sq = cum_sq[-1] - left_sq
    sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
    best = int(np.argmin(sse))
    pos = boundaries[best]
    threshold = 0.5 * (xs[pos] + xs[pos + 1])
    # Guard against midpoint rounding onto the upper value.
    if threshold >= xs[pos + 1]:
        threshold = xs[pos]
    return float(sse[best]), float(threshold)


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regressor with squared-error splitting.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until other limits bind.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples each child must keep.
    max_features:
        Features examined per split: ``None`` (all), an int, a float
        fraction, ``"sqrt"`` or ``"log2"``.
    min_impurity_decrease:
        Minimum weighted impurity decrease for a split to be accepted.
    random_state:
        Seed controlling feature subsampling order.
    """

    trusted_predict = True

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        min_impurity_decrease: float = 0.0,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if mf == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"Unknown max_features string {mf!r}.")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(
                    f"max_features fraction must be in (0, 1], got {mf}."
                )
            return max(1, int(mf * n_features))
        value = int(mf)
        if not 1 <= value <= n_features:
            raise ValueError(
                f"max_features={value} outside [1, {n_features}]."
            )
        return value

    def _validate_hyperparams(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}.")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}."
            )
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}."
            )
        if self.min_impurity_decrease < 0:
            raise ValueError(
                "min_impurity_decrease must be non-negative, got "
                f"{self.min_impurity_decrease}."
            )

    def fit(self, X, y, sample_indices: np.ndarray | None = None):
        """Grow the tree on ``(X, y)``.

        ``sample_indices`` optionally restricts training to a subset of
        rows without copying — the forest uses this for bootstrap bags.
        The fitted tree is bit-identical to :func:`reference_fit`'s.
        """
        X, y = check_X_y(X, y)
        if self._resolve_max_features(X.shape[1]) == X.shape[1]:
            # The level-wise grower draws nothing, but random_state is
            # still validated (and a RandomState advanced) as
            # reference_fit does.
            check_random_state(self.random_state)
        fit_trees([self], X, y, [sample_indices])
        return self

    def _install(self, tree: Tree, importances: np.ndarray) -> None:
        """Set the fitted attributes from a grown tree and raw importances."""
        self.tree_ = tree
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self.n_features_in_ = importances.size

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        if validate:
            check_is_fitted(self, "tree_")
            X = check_array(X)
            if X.shape[1] != self.n_features_in_:
                raise ValueError(
                    f"X has {X.shape[1]} features; tree was fitted with "
                    f"{self.n_features_in_}."
                )
        else:
            X = np.asarray(X, dtype=np.float64)
        return self.tree_.predict(X)

    def apply(self, X) -> np.ndarray:
        """Return the leaf index each sample lands in."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        return self.tree_.apply(X)

    def get_depth(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth

    def get_n_leaves(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves


def _bag_indices(sample_indices, n_samples: int) -> np.ndarray:
    if sample_indices is None:
        return np.arange(n_samples, dtype=np.intp)
    sample_indices = np.asarray(sample_indices, dtype=np.intp)
    if sample_indices.size == 0:
        raise ValueError("sample_indices must not be empty.")
    return sample_indices


def fit_trees(trees, X: np.ndarray, y: np.ndarray, bags) -> None:
    """Fit ``trees[i]`` on the rows ``bags[i]`` of validated ``(X, y)``.

    The trees must share every hyper-parameter but ``random_state``, as
    a forest's do; a ``None`` bag means all rows.  When each split
    examines every feature, all trees grow together level-wise
    (:func:`_grow_level_wise`).  Subsampled ``max_features`` draws
    features per node in depth-first order, so those trees run
    :func:`reference_fit` one by one.  Either way every tree is
    bit-identical to :func:`reference_fit`'s.
    """
    params = trees[0]
    params._validate_hyperparams()
    n_samples, n_features = X.shape
    if params._resolve_max_features(n_features) < n_features:
        for tree, bag in zip(trees, bags):
            reference_fit(tree, X, y, sample_indices=bag)
        return
    grown = _grow_level_wise(
        X, y, [_bag_indices(bag, n_samples) for bag in bags], params
    )
    for tree, (structure, importances) in zip(trees, grown):
        tree._install(structure, importances)


def _node_stats(y: np.ndarray, y_sq: np.ndarray, rows: np.ndarray, sizes):
    """``(values, impurities)`` of consecutive nodes, with the
    reference's arithmetic.

    ``rows`` holds the nodes' sample indices back to back, ``sizes[i]``
    of them for node ``i``.  Nodes of one size are gathered into an
    ``(m, size)`` matrix and summed with one ``np.add.reduce(axis=1)``:
    each contiguous row reduces with the same pairwise blocking as the
    reference's 1-D ``ndarray.sum`` of that node (a padded row would
    not, as the blocking depends on the length).  ``total / n`` is
    exactly what ``ndarray.mean`` computes, and the mean is squared as
    a Python float, whose ``** 2`` is the reference scalar's ``pow``
    (an array's ``** 2`` is ``x * x``, which can differ in the last
    bit).
    """
    values = np.empty(sizes.size)
    impurities = np.empty(sizes.size)
    starts = np.cumsum(sizes) - sizes
    # A set, not np.unique: numpy's first np.unique call imports
    # numpy.ma, ~15 ms of a served fleet's set-up.
    for size in set(sizes.tolist()):
        nodes = np.flatnonzero(sizes == size)
        gathered = rows[starts[nodes, None] + np.arange(size)]
        mean = np.add.reduce(y[gathered], axis=1) / size
        sq_mean = np.add.reduce(y_sq[gathered], axis=1) / size
        values[nodes] = mean
        impurities[nodes] = [
            max(sq - m**2, 0.0)
            for sq, m in zip(sq_mean.tolist(), mean.tolist())
        ]
    return values, impurities


def _best_splits(X, y, rows, n, node_sse, min_samples_leaf):
    """Each node's best split over every feature, as :func:`reference_fit`
    picks it from :func:`_best_split_for_feature`.

    ``rows`` is ``(m, width)``: node ``i``'s sample indices in its first
    ``n[i]`` columns, in node order; later columns are padding.  Returns
    per node ``(feature, gain, threshold)``, feature ``-1`` if no
    feature splits.  Bit-equal to the per-node calls: a stable sort puts
    the ``+inf`` padding after every real value without reordering them,
    ``cumsum`` accumulates each row sequentially like the 1-D call, and
    masked candidates never win.
    """
    m, width = rows.shape
    real = np.arange(width) < n[:, None]
    x = np.where(real[:, None, :], X[rows].transpose(0, 2, 1), np.inf)
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    ys = y[rows][np.arange(m)[:, None, None], order]
    cum_sum = np.cumsum(ys, axis=-1)
    cum_sq = np.cumsum(ys * ys, axis=-1)
    last = (n - 1)[:, None, None]
    left_n = np.arange(1, width)
    right_n = n[:, None, None] - left_n
    left_sum = cum_sum[..., :-1]
    left_sq = cum_sq[..., :-1]
    right_sum = np.take_along_axis(cum_sum, last, axis=-1) - left_sum
    right_sq = np.take_along_axis(cum_sq, last, axis=-1) - left_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (left_sq - left_sum**2 / left_n) + (
            right_sq - right_sum**2 / right_n
        )
    valid = (
        (xs[..., 1:] > xs[..., :-1])
        & (left_n >= min_samples_leaf)
        & (right_n >= min_samples_leaf)
    )
    # argmin lands on a masked slot only if every valid SSE overflowed
    # to +inf; the gain is then -inf or NaN and loses, as it does in
    # the reference.
    sse = np.where(valid, sse, np.inf)
    best = np.argmin(sse, axis=-1)[..., None]
    found = valid.any(axis=-1)
    gain = node_sse[:, None] - np.take_along_axis(sse, best, axis=-1)[..., 0]
    low = np.take_along_axis(xs, best, axis=-1)[..., 0]
    high = np.take_along_axis(xs, best + 1, axis=-1)[..., 0]
    threshold = 0.5 * (low + high)
    # Guard against midpoint rounding onto the upper value.
    threshold = np.where(threshold >= high, low, threshold)

    # The first strictly larger gain wins, in feature order.
    best_feature = np.full(m, _LEAF)
    best_gain = np.full(m, -np.inf)
    best_threshold = np.full(m, np.nan)
    for feat in range(gain.shape[1]):
        better = found[:, feat] & (gain[:, feat] > best_gain)
        best_feature[better] = feat
        best_gain[better] = gain[better, feat]
        best_threshold[better] = threshold[better, feat]
    return best_feature, best_gain, best_threshold


def _grow_level_wise(X, y, bags, params) -> list[tuple[Tree, np.ndarray]]:
    """Grow one tree per bag, all of them at once, one depth per step.

    Each step evaluates every frontier node x feature of every tree in
    a few padded passes (:func:`_best_splits`).  Nodes are bucketed by
    their padded width (the next power of two) and each pass holds at
    most ``_PASS_ELEMENTS`` padded values, so the working set does not
    grow with the forest.  Children keep their parent's sample order,
    so each node sees the rows in the order the reference gives it.
    :func:`_number_trees` then numbers the nodes and adds up the
    importances as the reference's LIFO stack does, which makes the
    node tables, importances and pickles equal to :func:`reference_fit`'s.
    The node statistics and the numbering take numpy steps per level
    (and per node size), not per node, so one call can grow the trees
    of many forests (:func:`repro.learn.forest.fit_forests`).

    Returns ``(tree, raw feature importances)`` per bag.
    """
    n_features = X.shape[1]
    max_depth = np.inf if params.max_depth is None else params.max_depth
    min_samples_split = params.min_samples_split
    min_samples_leaf = params.min_samples_leaf
    y_sq = y**2

    # The node table, one level per depth in creation order: node ids,
    # owning bags and node columns.  Split nodes fill in feature,
    # threshold, gain and left (their right child is left + 1).
    levels: list[dict[str, np.ndarray]] = []

    def add_level(rows, sizes, owner) -> dict[str, np.ndarray]:
        first = levels[-1]["nodes"][-1] + 1 if levels else 0
        count = sizes.size
        value, impurity = _node_stats(y, y_sq, rows, sizes)
        levels.append({
            "nodes": np.arange(first, first + count),
            "owner": owner,
            "value": value,
            "impurity": impurity,
            "n_node_samples": sizes,
            "feature": np.full(count, _LEAF, dtype=np.intp),
            "threshold": np.full(count, np.nan),
            "gain": np.zeros(count),
            "left": np.full(count, _LEAF, dtype=np.intp),
        })
        return levels[-1]

    # The frontier: the last level's nodes, their owning bags, sizes
    # and the concatenated sample indices of its nodes, in node order.
    sizes = np.array([bag.size for bag in bags])
    total_weight = sizes
    owner = np.arange(len(bags))
    rows = np.concatenate(bags)
    level = add_level(rows, sizes, owner)
    depth = 0
    while sizes.size and depth < max_depth:
        nodes = level["nodes"]
        node_impurity = level["impurity"]
        node_sse = node_impurity * sizes
        starts = np.cumsum(sizes) - sizes
        best_feature = np.full(nodes.size, _LEAF)
        best_gain = np.full(nodes.size, -np.inf)
        best_threshold = np.full(nodes.size, np.nan)

        splittable = np.flatnonzero(
            (sizes >= min_samples_split)
            & (sizes >= 2 * min_samples_leaf)
            & ~(node_impurity <= 0.0)
        )
        log_width = np.ceil(np.log2(sizes[splittable])).astype(np.intp)
        for exponent in sorted(set(log_width.tolist())):
            width = 1 << exponent
            bucket = splittable[log_width == exponent]
            per_pass = max(1, _PASS_ELEMENTS // (n_features * width))
            for begin in range(0, bucket.size, per_pass):
                batch = bucket[begin : begin + per_pass]
                columns = np.minimum(
                    starts[batch, None] + np.arange(width), rows.size - 1
                )
                best = _best_splits(
                    X, y, rows[columns], sizes[batch], node_sse[batch],
                    min_samples_leaf,
                )
                best_feature[batch], best_gain[batch], best_threshold[batch] = best

        # The impurity decrease is weighted by the node's share of
        # training samples, as in CART cost-complexity accounting.
        split = (
            (best_feature >= 0)
            & ~(best_gain / total_weight[owner] < params.min_impurity_decrease)
            & ~(best_gain <= 1e-12 * np.maximum(node_sse, 1.0))
        )
        segment = np.repeat(np.arange(nodes.size), sizes)
        moving = split[segment]
        segment, rows = segment[moving], rows[moving]
        go_right = ~(
            X[rows, best_feature[segment]] <= best_threshold[segment]
        )
        n_left = np.bincount(segment[~go_right], minlength=nodes.size)
        n_right = sizes - n_left
        # A midpoint that overflowed to -inf sends every row right; the
        # node then stays a leaf, as in the reference.
        kept = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not kept[split].all():
            split &= kept
            keep = split[segment]
            segment, rows, go_right = segment[keep], rows[keep], go_right[keep]
        # A stable sort on (node, side) filters each child in order.
        rows = rows[np.argsort(2 * segment + go_right, kind="stable")]

        parents = np.flatnonzero(split)
        sizes = np.column_stack((n_left[parents], n_right[parents])).ravel()
        owner = np.repeat(owner[parents], 2)
        children = add_level(rows, sizes, owner)
        level["feature"][parents] = best_feature[parents]
        level["threshold"][parents] = best_threshold[parents]
        level["gain"][parents] = best_gain[parents]
        level["left"][parents] = children["nodes"][::2]
        level = children
        depth += 1

    return _number_trees(levels, n_features)


def _number_trees(levels, n_features):
    """Split the level-wise node table into one :class:`Tree` per bag,
    numbered as :func:`reference_fit` numbers nodes.

    The reference pops nodes off a LIFO stack: a popped split node's
    children get the next two ids and the right one pops first.  So
    the ``k``-th split node popped has children ``2k + 1`` (left) and
    ``2k + 2`` (right), and ``k`` counts the split nodes that come
    before it in a right-first preorder: the right child follows its
    parent, the left child follows the parent's whole right subtree.
    ``levels[d]`` holds the nodes created at depth ``d``; children
    always sit one level below their parent, so both counts take one
    numpy step per level.  Importances add each tree's gains in pop
    order, as the reference does.  ``levels`` is emptied as it is
    concatenated, so the fit's peak memory holds one node table.
    """
    tables = {
        name: np.concatenate([level[name] for level in levels])
        for name in levels[0]
        if name != "nodes"
    }
    owner, gain, left = (tables.pop(key) for key in ("owner", "gain", "left"))
    is_split = left != _LEAF
    n_trees = levels[0]["owner"].size
    node_ids = [level["nodes"] for level in levels]
    levels.clear()
    splits_below = is_split.astype(np.intp)
    for nodes in reversed(node_ids):
        parents = nodes[is_split[nodes]]
        child = left[parents]
        splits_below[parents] += splits_below[child] + splits_below[child + 1]
    rank = np.zeros(left.size, dtype=np.intp)
    final_id = np.zeros(left.size, dtype=np.intp)
    for nodes in node_ids:
        parents = nodes[is_split[nodes]]
        child = left[parents]
        rank[child + 1] = rank[parents] + 1
        rank[child] = rank[parents] + 1 + splits_below[child + 1]
        final_id[child] = 2 * rank[parents] + 1
        final_id[child + 1] = 2 * rank[parents] + 2

    popped = np.flatnonzero(is_split)
    popped = popped[np.lexsort((rank[popped], owner[popped]))]
    # bincount adds in input order from 0.0; adding that into zeros is
    # exact and keeps the array's dtype instance, which pickles the
    # same way as the reference's np.zeros.
    importances = np.zeros(n_trees * n_features)
    importances += np.bincount(
        owner[popped] * n_features + tables["feature"][popped],
        weights=gain[popped],
        minlength=n_trees * n_features,
    )
    importances = importances.reshape(n_trees, n_features)

    order = np.lexsort((final_id, owner))
    tables["children_left"] = np.where(is_split, final_id[left], _LEAF)
    tables["children_right"] = np.where(is_split, final_id[left + 1], _LEAF)
    columns = {name: tables.pop(name)[order] for name in list(tables)}
    ends = np.cumsum(np.bincount(owner, minlength=n_trees)).tolist()
    grown = []
    begin = 0
    for bag, end in enumerate(ends):
        tree = Tree()
        for name, column in columns.items():
            setattr(tree, name, column[begin:end])
        grown.append((tree, importances[bag]))
        begin = end
    return grown


def reference_fit(
    tree: DecisionTreeRegressor, X, y, sample_indices=None
) -> DecisionTreeRegressor:
    """The depth-first CART fit, one node at a time, kept as the oracle.

    The growth loop ``fit`` replaced with :func:`_grow_level_wise`,
    op for op: the level-wise tests compare against it, and
    :func:`fit_trees` still runs it for subsampled ``max_features``,
    whose per-node feature draws follow its depth-first order.
    """
    X, y = check_X_y(X, y)
    tree._validate_hyperparams()
    rng = check_random_state(tree.random_state)
    n_features = X.shape[1]
    k_features = tree._resolve_max_features(n_features)
    max_depth = np.inf if tree.max_depth is None else tree.max_depth
    sample_indices = _bag_indices(sample_indices, X.shape[0])

    nodes = Tree()
    feature_importances = np.zeros(n_features)
    total_weight = sample_indices.size

    # Depth-first growth with an explicit stack of (indices, depth,
    # parent, is_left); children are attached after creation.
    root_y = y[sample_indices]
    root_id = nodes.add_node(
        float(root_y.mean()),
        sample_indices.size,
        _node_impurity(root_y.sum(), (root_y**2).sum(), root_y.size),
    )
    stack: list[tuple[np.ndarray, int, int]] = [(sample_indices, 0, root_id)]
    while stack:
        indices, depth, node_id = stack.pop()
        n_node = indices.size
        node_impurity = nodes.impurity[node_id]
        if (
            depth >= max_depth
            or n_node < tree.min_samples_split
            or n_node < 2 * tree.min_samples_leaf
            or node_impurity <= 0.0
        ):
            continue

        y_node = y[indices]
        if k_features < n_features:
            candidates = rng.choice(n_features, size=k_features, replace=False)
        else:
            candidates = np.arange(n_features)

        node_sse = node_impurity * n_node
        best_gain = -np.inf
        best_feature = -1
        best_threshold = np.nan
        for feat in candidates:
            found = _best_split_for_feature(
                X[indices, feat], y_node, tree.min_samples_leaf
            )
            if found is None:
                continue
            child_sse, threshold = found
            gain = node_sse - child_sse
            if gain > best_gain:
                best_gain = gain
                best_feature = int(feat)
                best_threshold = threshold

        # The impurity decrease is weighted by the node's share of
        # training samples, as in CART cost-complexity accounting.
        if best_feature < 0 or best_gain / total_weight < tree.min_impurity_decrease:
            continue
        if best_gain <= 1e-12 * max(node_sse, 1.0):
            continue

        go_left = X[indices, best_feature] <= best_threshold
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if (
            left_idx.size < tree.min_samples_leaf
            or right_idx.size < tree.min_samples_leaf
        ):
            continue

        nodes.feature[node_id] = best_feature
        nodes.threshold[node_id] = best_threshold
        feature_importances[best_feature] += best_gain

        for child_indices, attach in ((left_idx, "left"), (right_idx, "right")):
            y_child = y[child_indices]
            child_id = nodes.add_node(
                float(y_child.mean()),
                child_indices.size,
                _node_impurity(
                    y_child.sum(), (y_child**2).sum(), y_child.size
                ),
            )
            if attach == "left":
                nodes.children_left[node_id] = child_id
            else:
                nodes.children_right[node_id] = child_id
            stack.append((child_indices, depth + 1, child_id))

    nodes.finalize()
    tree._install(nodes, feature_importances)
    return tree


def export_text(
    regressor: DecisionTreeRegressor,
    feature_names: list[str] | None = None,
    decimals: int = 2,
) -> str:
    """Human-readable rendering of a fitted tree, for debugging/reports."""
    check_is_fitted(regressor, "tree_")
    tree = regressor.tree_
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(regressor.n_features_in_)]

    lines: list[str] = []

    def walk(node: int, indent: str) -> None:
        if tree.children_left[node] == _LEAF:
            lines.append(
                f"{indent}value: {tree.value[node]:.{decimals}f} "
                f"(n={tree.n_node_samples[node]})"
            )
            return
        name = feature_names[tree.feature[node]]
        thr = tree.threshold[node]
        lines.append(f"{indent}{name} <= {thr:.{decimals}f}")
        walk(tree.children_left[node], indent + "|   ")
        lines.append(f"{indent}{name} >  {thr:.{decimals}f}")
        walk(tree.children_right[node], indent + "|   ")

    walk(0, "")
    return "\n".join(lines)
