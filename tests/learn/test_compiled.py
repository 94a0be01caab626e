"""Bit-identity contract of the compiled inference kernels.

Every assertion here is *exact* (``tobytes`` equality, never
``allclose``): the fused level-wise kernels replace the per-tree Python
loops on the serving hot path, and the serial-equivalence contract of
the whole serving stack rests on their outputs being bitwise the
reference predictions.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.predictors import BaselinePredictor, RegressionPredictor
from repro.learn import compiled as compiled_module
from repro.learn.boosting import BinMapper, HistGradientBoostingRegressor
from repro.learn.compiled import (
    CompileError,
    compile_model,
    ensemble_kernel,
    gbdt_kernel,
    reference_predict,
    try_compile,
)
from repro.learn.forest import RandomForestRegressor
from repro.learn.linear import LinearRegression, Ridge
from repro.learn.pipeline import make_pipeline
from repro.learn.preprocessing import StandardScaler
from repro.learn.svm import LinearSVR


def _dataset(seed: int, n: int, f: int, *, constant_x=False, constant_y=False):
    rng = np.random.default_rng(seed)
    X = np.zeros((n, f)) if constant_x else rng.normal(size=(n, f))
    if constant_y:
        y = np.full(n, 3.5)
    else:
        y = X[:, 0] * 2.0 + rng.normal(size=n)
    return X, y


def _probe(seed: int, rows: int, f: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).normal(size=(rows, f))


def assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


ESTIMATOR_KEYS = ("tree", "forest", "gbdt", "linear", "ridge", "svr-pipeline")


def _make_estimator(key: str, depth: int):
    if key == "tree":
        from repro.learn.tree import DecisionTreeRegressor

        return DecisionTreeRegressor(max_depth=depth, random_state=0)
    if key == "forest":
        return RandomForestRegressor(
            n_estimators=7, max_depth=depth, random_state=0
        )
    if key == "gbdt":
        return HistGradientBoostingRegressor(
            max_iter=8, max_depth=depth, random_state=0
        )
    if key == "linear":
        return LinearRegression()
    if key == "ridge":
        return Ridge(alpha=0.5)
    return make_pipeline(StandardScaler(), LinearSVR(max_iter=50))


class TestCompiledVsReference:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.sampled_from(ESTIMATOR_KEYS),
        depth=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=6, max_value=60),
        f=st.integers(min_value=1, max_value=5),
    )
    def test_compiled_matches_reference_bitwise(self, key, depth, seed, n, f):
        X, y = _dataset(seed, n, f)
        model = _make_estimator(key, depth).fit(X, y)
        compiled = compile_model(model)
        for probe in (X, _probe(seed, 17, f), X[:1]):
            assert_bit_identical(
                compiled.predict(np.asarray(probe, dtype=np.float64)),
                reference_predict(model, probe),
            )

    @settings(max_examples=15, deadline=None)
    @given(
        key=st.sampled_from(("tree", "forest", "gbdt")),
        seed=st.integers(min_value=0, max_value=20),
        constant_x=st.booleans(),
        constant_y=st.booleans(),
    )
    def test_degenerate_trees(self, key, seed, constant_x, constant_y):
        # Constant features or a constant target produce single-leaf
        # trees; the leaf self-loop encoding must still gather the
        # right values at depth 0.
        X, y = _dataset(
            seed, 20, 3, constant_x=constant_x, constant_y=constant_y
        )
        model = _make_estimator(key, 5).fit(X, y)
        probe = _probe(seed, 9, 3)
        assert_bit_identical(
            compile_model(model).predict(probe),
            reference_predict(model, probe),
        )

    def test_fused_estimator_predict_matches_prior_loop(self):
        # The estimators' own predict() now routes through the kernel;
        # it must equal the old per-tree accumulation op for op.
        X, y = _dataset(3, 80, 4)
        probe = _probe(3, 33, 4)
        rf = RandomForestRegressor(
            n_estimators=20, max_depth=9, random_state=0
        ).fit(X, y)
        assert_bit_identical(rf.predict(probe), reference_predict(rf, probe))
        gb = HistGradientBoostingRegressor(max_iter=25, random_state=0).fit(
            X, y
        )
        assert_bit_identical(gb.predict(probe), reference_predict(gb, probe))

    @settings(max_examples=60, deadline=None)
    @example(leaves=[[-0.0, 1.5]] * 3)
    @given(
        leaves=st.integers(min_value=1, max_value=9).flatmap(
            lambda rows: st.lists(
                st.lists(
                    st.sampled_from((-0.0, 0.0, 0.1, 0.2, -0.3, 1.5, -1.5)),
                    min_size=rows,
                    max_size=rows,
                ),
                min_size=1,
                max_size=70,
            )
        )
    )
    def test_ensemble_sum_with_signed_zeros_and_ties(self, leaves):
        # The kernels sum a (trees, rows) leaf matrix; the reference
        # adds tree by tree, from +0.0 (forest) or the baseline (GBDT).
        # An all -0.0 column must still sum to +0.0, and ties in the
        # addends must keep the reference's rounding order.
        per_tree = np.array(leaves)
        X, y = _dataset(0, 20, 2)
        forest = compile_model(_make_estimator("forest", 3).fit(X, y))
        gbdt = compile_model(_make_estimator("gbdt", 3).fit(X, y))
        forest.predict_per_tree = gbdt.predict_per_tree = lambda _X: per_tree
        trees_sum = np.zeros(per_tree.shape[1])
        boosted = np.full(per_tree.shape[1], gbdt.baseline)
        for row in per_tree:
            trees_sum += row
            boosted += gbdt.learning_rate * row
        probe = X[: per_tree.shape[1]]
        assert_bit_identical(
            forest.predict(probe), trees_sum / per_tree.shape[0]
        )
        assert_bit_identical(gbdt.predict(probe), boosted)

    def test_batch_rows_equal_single_rows(self):
        # batch_safe kernels must be bitwise row-separable: stacking
        # many vehicles into one matrix cannot change any row.
        X, y = _dataset(7, 90, 5)
        probe = _probe(7, 41, 5)
        for key in ("tree", "forest", "gbdt"):
            model = _make_estimator(key, 12).fit(X, y)
            compiled = compile_model(model)
            assert compiled.batch_safe
            batched = compiled.predict(probe)
            singles = np.concatenate(
                [compiled.predict(probe[i : i + 1]) for i in range(len(probe))]
            )
            assert_bit_identical(batched, singles)

    def test_linear_kernels_are_not_batch_safe(self):
        # X @ coef reduces through shape-dependent BLAS paths, so the
        # compiled linear kernel must refuse cross-vehicle stacking.
        X, y = _dataset(11, 50, 4)
        for key in ("linear", "ridge", "svr-pipeline"):
            model = _make_estimator(key, 1).fit(X, y)
            compiled = compile_model(model)
            assert not compiled.batch_safe
            probe = _probe(11, 1, 4)
            assert_bit_identical(compiled.predict(probe), model.predict(probe))


class TestPredictQuantiles:
    def test_quantiles_from_fused_traversal_match_stacked_loop(self):
        X, y = _dataset(5, 70, 4)
        rf = RandomForestRegressor(
            n_estimators=15, max_depth=8, random_state=0
        ).fit(X, y)
        probe = _probe(5, 23, 4)
        quantiles = (0.1, 0.5, 0.9)
        per_tree = np.stack(
            [tree.predict(np.asarray(probe)) for tree in rf.estimators_],
            axis=0,
        )
        expected = np.quantile(per_tree, np.asarray(quantiles), axis=0).T
        assert_bit_identical(rf.predict_quantiles(probe, quantiles), expected)

    def test_quantile_validation_unchanged(self):
        X, y = _dataset(5, 30, 2)
        rf = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="quantiles"):
            rf.predict_quantiles(X, (0.1, 1.5))
        with pytest.raises(ValueError, match="features"):
            rf.predict_quantiles(X[:, :1], (0.1, 0.9))


class TestBinMapperFastTransform:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=3, max_value=80),
        f=st.integers(min_value=1, max_value=6),
        max_bins=st.sampled_from((2, 3, 16, 255)),
    )
    def test_single_searchsorted_equals_per_feature_loop(
        self, seed, n, f, max_bins
    ):
        rng = np.random.default_rng(seed)
        # Low-cardinality columns force duplicate cut values across
        # features and probe values exactly equal to cuts.
        X = np.round(rng.normal(size=(n, f)), 1)
        mapper = BinMapper(max_bins=max_bins).fit(X)
        probe = np.concatenate([X, np.round(rng.normal(size=(9, f)), 1)])
        expected = np.empty(probe.shape, dtype=np.uint8)
        for j, cuts in enumerate(mapper.bin_edges_):
            expected[:, j] = np.searchsorted(cuts, probe[:, j], side="left")
        assert np.array_equal(mapper.transform(probe), expected)
        assert mapper.transform(probe).dtype == np.uint8

    def test_width_mismatch_still_raises(self):
        mapper = BinMapper().fit(np.random.default_rng(0).normal(size=(20, 3)))
        with pytest.raises(ValueError, match="features"):
            mapper.transform(np.zeros((2, 2)))

    def test_rank_tables_dropped_from_pickle(self):
        import pickle

        mapper = BinMapper().fit(np.random.default_rng(0).normal(size=(20, 3)))
        X = np.random.default_rng(1).normal(size=(5, 3))
        before = mapper.transform(X)
        assert hasattr(mapper, "_rank_cache")
        restored = pickle.loads(pickle.dumps(mapper))
        assert not hasattr(restored, "_rank_cache")
        assert np.array_equal(restored.transform(X), before)


class TestTrustedFastPath:
    def test_validate_false_matches_validate_true(self):
        X, y = _dataset(9, 60, 4)
        probe = _probe(9, 7, 4)
        for key in ESTIMATOR_KEYS:
            model = _make_estimator(key, 6).fit(X, y)
            assert getattr(model, "trusted_predict", False)
            assert_bit_identical(
                model.predict(probe, validate=False), model.predict(probe)
            )

    def test_public_validation_behavior_unchanged(self):
        X, y = _dataset(9, 30, 3)
        rf = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(Exception):
            rf.predict(np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="features"):
            rf.predict(X[:, :2])

    def test_predictor_wrappers_are_trusted(self):
        X, y = _dataset(13, 40, 3)
        predictor = RegressionPredictor(
            "RF", RandomForestRegressor(n_estimators=3, random_state=0)
        )
        assert predictor.trusted_predict
        assert BaselinePredictor.trusted_predict


class TestKernelCacheAndCompileErrors:
    def test_kernel_cached_until_refit(self):
        X, y = _dataset(2, 40, 3)
        rf = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
        first = ensemble_kernel(rf)
        assert ensemble_kernel(rf) is first
        rf.fit(X, y)
        assert ensemble_kernel(rf) is not first
        gb = HistGradientBoostingRegressor(max_iter=4, random_state=0).fit(
            X, y
        )
        k = gbdt_kernel(gb)
        assert gbdt_kernel(gb) is k

    def test_gbdt_refit_never_serves_an_earlier_fit(self):
        """Fit, predict, refit two to four times, predict: a later
        ``estimators_`` list can land at the first one's freed address,
        which an ``id()`` token took for the first fit and answered
        with its kernel.  The data sets are built up front so the
        refits alone drive the allocator."""
        fits = [_dataset(seed, 40, 3) for seed in range(5)]
        probe = _probe(6, 5, 3)
        for refits in (2, 3, 4) * 10:
            gb = HistGradientBoostingRegressor(max_iter=5, random_state=0)
            gb.fit(*fits[0]).predict(probe)
            for X, y in fits[1 : refits + 1]:
                gb.fit(X, y)
            fresh = HistGradientBoostingRegressor(max_iter=5, random_state=0)
            assert_bit_identical(
                gb.predict(probe), fresh.fit(*fits[refits]).predict(probe)
            )

    def test_forest_refit_loop_matches_reference(self):
        fits = [_dataset(seed, 40, 3) for seed in range(5)]
        probe = _probe(9, 5, 3)
        for refits in (2, 3, 4) * 30:
            rf = RandomForestRegressor(n_estimators=5, random_state=0)
            rf.fit(*fits[0]).predict(probe)
            for X, y in fits[1 : refits + 1]:
                rf.fit(X, y)
            assert_bit_identical(
                rf.predict(probe), reference_predict(rf, probe)
            )

    def test_entry_dies_with_its_model(self):
        X, y = _dataset(5, 40, 3)
        predictor = RegressionPredictor(
            "RF", RandomForestRegressor(n_estimators=3, random_state=0)
        )

        class _DS:
            n_records = len(X)

        ds = _DS()
        ds.X, ds.y = X, y
        predictor.fit(ds)
        kernel = compile_model(predictor)
        assert kernel.inner is ensemble_kernel(predictor.model_)
        kernels = [weakref.ref(kernel), weakref.ref(kernel.inner)]
        del kernel, predictor
        gc.collect()
        assert [ref() for ref in kernels] == [None, None]

    def test_warm_predict_all_builds_no_flat_forest(self, monkeypatch):
        from repro.serving.engine import FleetEngine

        rng = np.random.default_rng(8)
        engine = FleetEngine(t_v=200_000.0, window=2, algorithm="RF")
        usage = {
            "old0": rng.uniform(14_000, 26_000, size=30),
            "old1": rng.uniform(14_000, 26_000, size=34),
            "semi0": rng.uniform(17_000, 25_000, size=7),
        }
        engine.register_fleet(usage)
        for vehicle_id, series in usage.items():
            engine.ingest_history(vehicle_id, series)
        first = engine.predict_all()
        builds = []
        init = compiled_module._FlatForest.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(compiled_module._FlatForest, "__init__", counted)
        assert engine.predict_all() == first
        assert builds == []

    def test_unfitted_and_unsupported_raise_compile_error(self):
        with pytest.raises(CompileError, match="fit"):
            compile_model(RandomForestRegressor())
        with pytest.raises(CompileError, match="Cannot compile"):
            compile_model(object())
        assert try_compile(object()) is None
        assert try_compile(LinearRegression()) is None

    def test_compiled_regression_predictor_clips(self):
        X, y = _dataset(4, 40, 2)
        predictor = RegressionPredictor(
            "LR", LinearRegression(), clip_negative=True
        )

        class _DS:
            n_records = len(X)

        ds = _DS()
        ds.X, ds.y = X, y - 100.0  # force negative predictions
        predictor.fit(ds)
        probe = _probe(4, 11, 2)
        compiled = compile_model(predictor)
        assert_bit_identical(compiled.predict(probe), predictor.predict(probe))
        assert (compiled.predict(probe) >= 0.0).all()
