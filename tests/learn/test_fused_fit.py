"""Fused forest fits against one-forest fits, and the bucketed node
statistics against the reference's per-node arithmetic.

``fit_forests`` grows many forests in one level-wise pass; each must be
exactly the forest its own ``fit`` grows.  Every assertion is exact:
node tables compare with ``tobytes`` and whole models with
``pickle.dumps``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.predictors import can_fuse, fit_predictors
from repro.core.registry import make_predictor
from repro.dataprep.transformation import RelationalDataset
from repro.learn.forest import RandomForestRegressor, fit_forests
from repro.learn.tree import _node_impurity, _node_stats

from .test_level_wise_fit import assert_same_tree


def _data(seed: int, n: int, f: int, ties: bool):
    rng = np.random.default_rng(seed)
    if ties:
        X = rng.integers(0, 3, size=(n, f)).astype(np.float64)
        y = np.round(X[:, 0] * 2.0 + rng.normal(size=n))
    else:
        X = rng.normal(size=(n, f))
        y = X[:, 0] + rng.normal(size=n)
    return X, y


forest_specs = st.lists(
    st.fixed_dictionaries(
        {
            "seed": st.integers(min_value=0, max_value=10_000),
            "n": st.integers(min_value=2, max_value=40),
            "ties": st.booleans(),
            "n_estimators": st.integers(min_value=1, max_value=8),
            "bootstrap": st.booleans(),
            "oob_score": st.booleans(),
            "random_state": st.integers(min_value=0, max_value=1000),
            # 0.5 subsamples features: those trees run reference_fit.
            "max_features": st.sampled_from((1.0, 0.5)),
            "max_depth": st.sampled_from((None, 2, 15)),
        }
    ),
    min_size=1,
    max_size=6,
)


def _forest(spec) -> RandomForestRegressor:
    return RandomForestRegressor(
        n_estimators=spec["n_estimators"],
        max_depth=spec["max_depth"],
        max_features=spec["max_features"],
        bootstrap=spec["bootstrap"],
        oob_score=spec["oob_score"] and spec["bootstrap"],
        random_state=spec["random_state"],
    )


def assert_same_forest(fused, alone) -> None:
    assert len(fused.estimators_) == len(alone.estimators_)
    for tree, oracle in zip(fused.estimators_, alone.estimators_):
        assert_same_tree(tree, oracle)
    assert (
        fused.feature_importances_.tobytes()
        == alone.feature_importances_.tobytes()
    )
    assert pickle.dumps(fused) == pickle.dumps(alone)


class TestFitForests:
    @settings(max_examples=60, deadline=None)
    @example(
        specs=[
            dict(seed=1, n=21, ties=True, n_estimators=8, bootstrap=True,
                 oob_score=True, random_state=0, max_features=1.0,
                 max_depth=15),
            dict(seed=2, n=6, ties=False, n_estimators=8, bootstrap=True,
                 oob_score=False, random_state=0, max_features=1.0,
                 max_depth=15),
        ],
        f=7,
    )
    @given(specs=forest_specs, f=st.integers(min_value=1, max_value=5))
    def test_equals_one_forest_fits(self, specs, f):
        data = [_data(s["seed"], s["n"], f, s["ties"]) for s in specs]
        fused = [_forest(s) for s in specs]
        fit_forests(fused, [X for X, _ in data], [y for _, y in data])
        for forest, spec, (X, y) in zip(fused, specs, data):
            assert_same_forest(forest, _forest(spec).fit(X, y))

    def test_one_fit_trees_call_per_parameter_group(self, monkeypatch):
        from repro.learn import forest as forest_module

        calls = []
        fit_trees = forest_module.fit_trees

        def counted(trees, X, y, bags):
            calls.append(len(trees))
            return fit_trees(trees, X, y, bags)

        monkeypatch.setattr(forest_module, "fit_trees", counted)
        data = [_data(i, 10 + i, 3, False) for i in range(5)]
        forests = [
            RandomForestRegressor(
                n_estimators=4, max_depth=3 if i == 2 else 5, random_state=i
            )
            for i in range(5)
        ]
        fit_forests(forests, [X for X, _ in data], [y for _, y in data])
        assert calls == [16, 4]

    def test_invalid_forest_raises_before_any_growth(self):
        good = RandomForestRegressor(n_estimators=2, random_state=0)
        bad = RandomForestRegressor(n_estimators=2, random_state=0)
        X, y = _data(0, 8, 2, False)
        with pytest.raises(ValueError):
            fit_forests([good, bad], [X, X[:1]], [y, y[:1]])
        assert not hasattr(good, "estimators_")


def _dataset(X, y) -> RelationalDataset:
    return RelationalDataset(
        X=X, y=y, t_index=np.arange(len(y), dtype=np.intp), window=X.shape[1] - 1
    )


class TestFitPredictors:
    def test_registry_forest_fuses_and_wrappers_do_not(self):
        assert can_fuse(make_predictor("RF"))
        assert not can_fuse(make_predictor("LR"))
        assert not can_fuse(make_predictor("RF", grid="fast"))
        patched = make_predictor("RF")
        patched.fit = patched.fit
        assert not can_fuse(patched)

    def test_equals_predictor_fit_and_charges_errors_per_predictor(self):
        data = [_data(i, 9 + 3 * i, 4, i % 2 == 0) for i in range(4)]
        datasets = [_dataset(X, y) for X, y in data]
        # An empty dataset fails on its own; the others still fit.
        datasets.insert(2, _dataset(np.zeros((0, 4)), np.zeros(0)))
        keys = ["RF", "LR", "RF", "RF", "RF"]
        fitted = [make_predictor(key) for key in keys]
        errors = fit_predictors(fitted, datasets, [{}] * len(datasets))
        assert [e is None for e in errors] == [True, True, False, True, True]
        assert "empty training dataset" in str(errors[2])
        for key, predictor, dataset, error in zip(
            keys, fitted, datasets, errors
        ):
            if error is None:
                alone = make_predictor(key).fit(dataset)
                assert pickle.dumps(predictor) == pickle.dumps(alone)


def _reference_stats(y_node: np.ndarray):
    """``reference_fit``'s node value and impurity, op for op."""
    return (
        float(y_node.mean()),
        _node_impurity(y_node.sum(), (y_node**2).sum(), y_node.size),
    )


class TestBucketedNodeStats:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=140), min_size=1, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(("continuous", "ties", "signed-zeros")),
    )
    def test_bit_equal_to_per_node_reference(self, sizes, seed, kind):
        rng = np.random.default_rng(seed)
        n = 50
        if kind == "continuous":
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        elif kind == "ties":
            y = np.round(rng.normal(size=n) * 3.0) / 10.0
        else:
            y = rng.choice([-0.0, 0.0, 1.5, -1.5], size=n)
        sizes = np.array(sizes)
        rows = rng.integers(0, n, size=int(sizes.sum()))
        values, impurities = _node_stats(y, y**2, rows, sizes)
        stop = 0
        for i, size in enumerate(sizes.tolist()):
            start, stop = stop, stop + size
            value, impurity = _reference_stats(y[rows[start:stop]])
            assert np.float64(value).tobytes() == values[i].tobytes()
            assert np.float64(impurity).tobytes() == impurities[i].tobytes()

    def test_mean_is_squared_as_the_reference_scalar(self):
        # (73.10000000000001 / 29) ** 2 is one bit away from x * x: the
        # bucketed statistics must square the mean as a Python float.
        mean = 73.10000000000001 / 29
        assert mean**2 != mean * mean
        y = np.full(29, 2.5)
        y[0] = 3.100000000000005  # the 29 values sum to 73.10000000000001
        rows = np.arange(29)
        values, impurities = _node_stats(y, y**2, rows, np.array([29]))
        value, impurity = _reference_stats(y)
        assert values[0] == value == mean
        assert np.float64(impurity).tobytes() == impurities[0].tobytes()
        # Squaring as x * x would move this node's impurity.
        sq_mean = float(np.add.reduce(y**2) / 29)
        assert max(sq_mean - mean * mean, 0.0) != impurity

    def test_signed_zero_nodes(self):
        y = np.array([-0.0, -0.0, 0.0])
        rows = np.array([0, 1, 0, 2, 1, 0])
        values, impurities = _node_stats(y, y**2, rows, np.array([2, 1, 1, 2]))
        for i, node in enumerate(([0, 1], [0], [2], [1, 0])):
            value, impurity = _reference_stats(y[node])
            assert np.float64(value).tobytes() == values[i].tobytes()
            assert np.float64(impurity).tobytes() == impurities[i].tobytes()
