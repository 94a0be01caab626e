"""The level-wise tree grower against its depth-first oracle.

``DecisionTreeRegressor.fit`` and ``RandomForestRegressor.fit`` grow
every tree level-wise, all bags at once, in padded numpy passes
(``repro.learn.tree.fit_trees``).  ``reference_fit`` is the depth-first,
one-node-at-a-time CART loop they replaced, kept as the oracle.  Every
assertion here is exact: node tables compare with ``tobytes`` and whole
models with ``pickle.dumps``, so a stored model's bytes cannot drift.
"""

import pickle
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.learn import forest as forest_module
from repro.learn.forest import RandomForestRegressor
from repro.learn.tree import DecisionTreeRegressor, reference_fit

NODE_TABLES = (
    "children_left",
    "children_right",
    "feature",
    "threshold",
    "value",
    "impurity",
    "n_node_samples",
)


def _dataset(seed: int, n: int, f: int, x_kind: str, y_kind: str):
    rng = np.random.default_rng(seed)
    if x_kind == "continuous":
        X = rng.normal(size=(n, f))
    else:
        # Tied feature values: the sort order inside each tie, and so
        # every prefix sum, must match the reference's stable sort.
        X = rng.integers(0, 4, size=(n, f)).astype(np.float64)
    if x_kind == "ties+constant-column":
        X[:, rng.integers(f)] = 2.5
    if y_kind == "constant":
        y = np.full(n, -1.25)
    else:
        y = (X[:, 0] + rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
    if y_kind == "ties":
        y = np.round(y)
    return X, y


datasets = st.builds(
    _dataset,
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=60),
    f=st.integers(min_value=1, max_value=7),
    x_kind=st.sampled_from(("ties", "continuous", "ties+constant-column")),
    y_kind=st.sampled_from(("continuous", "ties", "constant")),
)

tree_params = st.fixed_dictionaries(
    {
        "max_depth": st.one_of(
            st.none(), st.integers(min_value=1, max_value=50)
        ),
        "min_samples_split": st.integers(min_value=2, max_value=4),
        "min_samples_leaf": st.integers(min_value=1, max_value=3),
        "min_impurity_decrease": st.sampled_from((0.0, 1e-3, 0.1)),
        # 0.5 and "sqrt" subsample features (the depth-first path).
        "max_features": st.sampled_from((None, 1.0, 0.5, "sqrt")),
    }
)


def assert_same_tree(grown, reference) -> None:
    for name in NODE_TABLES:
        got = getattr(grown.tree_, name)
        want = getattr(reference.tree_, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert (
        grown.feature_importances_.tobytes()
        == reference.feature_importances_.tobytes()
    )
    assert pickle.dumps(grown) == pickle.dumps(reference)


def _reference_fit_trees(trees, X, y, bags):
    for tree, bag in zip(trees, bags):
        reference_fit(tree, X, y, sample_indices=bag)


def _drawn_trees(params: dict, n_samples: int):
    """Each tree's seed and bag, drawn in the order forest.fit has always
    used: per tree, the seed first, then the bag."""
    rng = np.random.default_rng(params["random_state"])
    for _ in range(params["n_estimators"]):
        seed = int(rng.integers(np.iinfo(np.int32).max))
        if params["bootstrap"]:
            yield seed, rng.integers(0, n_samples, size=n_samples)
        else:
            yield seed, None


class TestMatchesReferenceFit:
    @settings(max_examples=80, deadline=None)
    @example(
        data=_dataset(1, 60, 5, "ties", "continuous"),
        params=dict(
            max_depth=None,
            min_samples_split=2,
            min_samples_leaf=1,
            min_impurity_decrease=0.0,
            max_features=None,
        ),
        random_state=0,
        bootstrap=True,
    )
    @given(
        data=datasets,
        params=tree_params,
        random_state=st.integers(min_value=0, max_value=1000),
        bootstrap=st.booleans(),
    )
    def test_single_tree(self, data, params, random_state, bootstrap):
        X, y = data
        bag = (
            np.random.default_rng(random_state).integers(0, len(y), len(y))
            if bootstrap
            else None
        )
        grown = DecisionTreeRegressor(**params, random_state=random_state)
        oracle = DecisionTreeRegressor(**params, random_state=random_state)
        grown.fit(X, y, sample_indices=bag)
        reference_fit(oracle, X, y, sample_indices=bag)
        assert_same_tree(grown, oracle)

    @settings(max_examples=60, deadline=None)
    @example(
        data=_dataset(2, 60, 7, "ties", "continuous"),
        params=dict(
            max_depth=15,
            min_samples_split=2,
            min_samples_leaf=1,
            min_impurity_decrease=0.0,
            max_features=1.0,
        ),
        n_estimators=20,
        bootstrap=True,
        oob_score=True,
        random_state=0,
    )
    @given(
        data=datasets,
        params=tree_params,
        n_estimators=st.integers(min_value=1, max_value=20),
        bootstrap=st.booleans(),
        oob_score=st.booleans(),
        random_state=st.integers(min_value=0, max_value=1000),
    )
    def test_forest(
        self, data, params, n_estimators, bootstrap, oob_score, random_state
    ):
        X, y = data
        params = dict(
            params,
            n_estimators=n_estimators,
            bootstrap=bootstrap,
            oob_score=oob_score and bootstrap,
            random_state=random_state,
        )
        forest = RandomForestRegressor(**params).fit(X, y)

        # Tree by tree against the oracle, with independently drawn bags.
        per_tree = {
            key: params[key]
            for key in (
                "max_depth",
                "min_samples_split",
                "min_samples_leaf",
                "max_features",
                "min_impurity_decrease",
            )
        }
        drawn = list(_drawn_trees(params, len(y)))
        assert len(forest.estimators_) == len(drawn)
        for tree, (seed, bag) in zip(forest.estimators_, drawn):
            oracle = DecisionTreeRegressor(**per_tree, random_state=seed)
            reference_fit(oracle, X, y, sample_indices=bag)
            assert_same_tree(tree, oracle)

        # The whole forest: importances, OOB estimate, attribute order.
        with mock.patch.object(
            forest_module, "fit_trees", _reference_fit_trees
        ):
            oracle_forest = RandomForestRegressor(**params).fit(X, y)
        assert (
            forest.feature_importances_.tobytes()
            == oracle_forest.feature_importances_.tobytes()
        )
        assert pickle.dumps(forest) == pickle.dumps(oracle_forest)

    def test_midpoint_overflow_keeps_the_leaf(self):
        # The midpoint of the two huge negative values overflows to
        # -inf, so that split would send every row right: the node
        # must stay a leaf in both fits.
        X = np.array([[-1e308], [-0.9e308], [5.0], [6.0]])
        y = np.array([0.0, 1.0, 2.0, 7.0])
        with np.errstate(over="ignore"):
            grown = DecisionTreeRegressor().fit(X, y)
            oracle = reference_fit(DecisionTreeRegressor(), X, y)
        assert_same_tree(grown, oracle)

    def test_bootstrap_duplicates_deep_forest(self):
        # Larger nodes than the property test draws: several padded
        # widths per level and more than one pass per width.
        X, y = _dataset(3, 200, 7, "ties", "continuous")
        params = dict(n_estimators=20, max_depth=None, random_state=5)
        forest = RandomForestRegressor(**params).fit(X, y)
        with mock.patch.object(
            forest_module, "fit_trees", _reference_fit_trees
        ):
            oracle_forest = RandomForestRegressor(**params).fit(X, y)
        assert pickle.dumps(forest) == pickle.dumps(oracle_forest)


class TestBoundedWorkingSet:
    def test_forest_fit_peak_memory(self):
        # Padding every frontier node to the level's largest node peaks
        # near 74 MB here; bucketed, chunked passes stay a few MB.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 7))
        y = X @ rng.normal(size=7) + rng.normal(size=200)
        forest = RandomForestRegressor(
            n_estimators=60, max_depth=15, random_state=0
        )
        already_tracing = tracemalloc.is_tracing()
        if not already_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            forest.fit(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not already_tracing:
                tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
