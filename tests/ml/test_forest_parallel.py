"""Equivalence suite: parallel training and flattened inference.

The scale contract of the ML layer (ISSUE 2) is that neither knob
changes a single bit of output:

* ``workers=N`` training must be **bit-identical** to sequential --
  same serialised trees, same ``predict_proba``, same OOB votes, same
  importances (every tree's randomness derives from
  ``derive_seed(seed, "tree-t")`` and per-tree results merge in tree
  order);
* the fused node-table walk must agree **exactly** with per-row
  recursive descent (the test oracle in ``tests/ml/oracle.py``), in
  batches and one row at a time.

The sequential-vs-parallel identity is a ``tier1`` gate, like the
analyzer's: a merge-order or seeding regression must fail fast.
"""

import numpy as np
import pytest

from repro.core.price_model import EncryptedPriceModel
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.serialize import dumps, forest_from_dict, forest_to_dict, loads

from . import oracle


def _data(n=300, n_features=6, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    y = (
        (x[:, 0] > 0).astype(int)
        + (x[:, 1] > 0.3).astype(int)
        + (x[:, 2] > 0.8).astype(int)
    )
    return x, np.clip(y, 0, n_classes - 1)


def _feature_rows(n=120, seed=1):
    rng = np.random.default_rng(seed)
    cities = ["athens", "madrid", "berlin"]
    rows = [
        {
            "city": cities[int(rng.integers(0, 3))],
            "device_type": ["phone", "tablet"][int(rng.integers(0, 2))],
            "time_of_day": int(rng.integers(0, 4)),
        }
        for _ in range(n)
    ]
    prices = (rng.lognormal(0.0, 0.8, size=n) + 0.01).tolist()
    return rows, prices


class TestParallelTrainingIdentity:
    @pytest.mark.tier1
    def test_sequential_vs_two_workers_bit_identical(self):
        """The tier-1 gate: workers=2 is indistinguishable from workers=1."""
        x, y = _data()
        seq = RandomForestClassifier(
            n_estimators=12, max_depth=8, oob_score=True, seed=9, workers=1
        ).fit(x, y)
        par = RandomForestClassifier(
            n_estimators=12, max_depth=8, oob_score=True, seed=9, workers=2
        ).fit(x, y)
        # Same serialised trees (structure, thresholds, leaf counts)...
        assert dumps(forest_to_dict(seq)) == dumps(forest_to_dict(par))
        # ...same probabilities to the last bit...
        assert np.array_equal(seq.predict_proba(x), par.predict_proba(x))
        # ...and same fitted state merged in tree order.
        assert seq.oob_score_ == par.oob_score_
        assert np.array_equal(seq.feature_importances_, par.feature_importances_)

    def test_worker_count_does_not_matter(self):
        x, y = _data(200)
        reference = None
        for workers in (1, 2, 4, None):
            forest = RandomForestClassifier(
                n_estimators=7, max_depth=6, seed=3, workers=workers
            ).fit(x, y)
            payload = dumps(forest_to_dict(forest))
            if reference is None:
                reference = payload
            assert payload == reference, f"workers={workers} diverged"

    def test_more_workers_than_trees(self):
        x, y = _data(150)
        a = RandomForestClassifier(n_estimators=3, seed=1, workers=1).fit(x, y)
        b = RandomForestClassifier(n_estimators=3, seed=1, workers=8).fit(x, y)
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_regressor_parallel_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(250, 4))
        y = 2.0 * x[:, 0] - x[:, 1] + rng.normal(0, 0.1, size=250)
        seq = RandomForestRegressor(n_estimators=10, seed=4, workers=1).fit(x, y)
        par = RandomForestRegressor(n_estimators=10, seed=4, workers=2).fit(x, y)
        assert np.array_equal(seq.predict(x), par.predict(x))

    def test_price_model_workers_identical_package(self):
        rows, prices = _feature_rows()
        one = EncryptedPriceModel.train(rows, prices, n_estimators=8, seed=5,
                                        workers=1)
        two = EncryptedPriceModel.train(rows, prices, n_estimators=8, seed=5,
                                        workers=2)
        assert one.to_package() == two.to_package()
        from repro.core.estimator import Estimator

        assert np.array_equal(
            Estimator(one).estimate(rows).prices,
            Estimator(two).estimate(rows).prices,
        )


class TestTraversalEquivalence:
    def test_fused_matches_recursive_oracle_exact(self):
        x, y = _data(400, seed=7)
        forest = RandomForestClassifier(
            n_estimators=10, max_depth=10, seed=13
        ).fit(x, y)
        rng = np.random.default_rng(99)
        fresh = rng.normal(size=(200, x.shape[1]))
        expected = oracle.forest_proba(forest, fresh)
        assert np.array_equal(forest.predict_proba(fresh), expected)
        assert np.array_equal(
            forest.predict(fresh), np.argmax(expected, axis=1)
        )
        # One row at a time gives the same answer as the batch.
        single = np.vstack([forest.predict_proba(row) for row in fresh[:40]])
        assert np.array_equal(single, expected[:40])

    def test_regressor_matches_recursive_oracle_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 5))
        y = x[:, 0] - 2.0 * x[:, 1] ** 2 + rng.normal(0, 0.1, size=300)
        forest = RandomForestRegressor(n_estimators=9, max_depth=9, seed=6).fit(x, y)
        fresh = rng.normal(size=(150, 5))
        expected = oracle.forest_regress(forest, fresh)
        assert np.array_equal(forest.predict(fresh), expected)
        single = np.concatenate([forest.predict(row) for row in fresh[:30]])
        assert np.array_equal(single, expected[:30])

    def test_rows_exactly_on_thresholds(self):
        """x[feature] == threshold must route left, as recursion does."""
        x, y = _data(300, seed=5)
        forest = RandomForestClassifier(n_estimators=6, seed=21).fit(x, y)
        # Build probe rows that sit exactly on fitted thresholds.
        flat = forest.flat_
        probes = []
        for root in flat.roots:
            internal = root + np.flatnonzero(flat.feature[root:] >= 0)[:5]
            for idx in internal:
                row = x[0].copy()
                row[flat.feature[idx]] = flat.threshold[idx]
                probes.append(row)
        probes = np.asarray(probes)
        assert np.array_equal(
            forest.predict_proba(probes), oracle.forest_proba(forest, probes)
        )

    def test_nan_routes_right(self):
        x, y = _data(300, seed=4)
        forest = RandomForestClassifier(n_estimators=5, seed=8).fit(x, y)
        probes = np.tile(x[:4], (2, 1))
        probes[:4, 1] = np.nan
        probes[4:] = np.nan
        assert np.array_equal(
            forest.predict_proba(probes), oracle.forest_proba(forest, probes)
        )

    def test_traversal_kwarg_removed(self):
        x, y = _data(100)
        forest = RandomForestClassifier(n_estimators=2, seed=0).fit(x, y)
        with pytest.raises(TypeError):
            forest.predict_proba(x, traversal="flat")
        with pytest.raises(TypeError):
            forest.predict(x, traversal="nodes")

    def test_apply_reaches_leaves(self):
        x, y = _data(200)
        forest = RandomForestClassifier(n_estimators=5, seed=2).fit(x, y)
        leaves = forest.apply(x[:50])
        assert leaves.shape == (50, 5)
        flat = forest.flat_
        for column, root, tree in zip(leaves.T, flat.roots, forest.trees_):
            assert np.all(flat.feature[root + column] == -1)
            assert np.array_equal(tree.classes_, np.arange(4))
            # Local ids are the member tree's own one-root table ids.
            assert np.array_equal(column, tree.apply(x[:50]))
            for i in range(0, 50, 7):
                counts = oracle.leaf_for(tree.root_, x[i]).value
                assert np.array_equal(
                    flat.value[root + column[i]], counts / counts.sum()
                )

    def test_member_trees_carry_no_table_of_their_own(self):
        x, y = _data(200)
        forest = RandomForestClassifier(
            n_estimators=4, oob_score=True, seed=2
        ).fit(x, y)
        assert forest.flat_.n_trees == 4
        assert all(tree.flat_ is None for tree in forest.trees_)
        clone = forest_from_dict(loads(dumps(forest_to_dict(forest))))
        assert all(tree.flat_ is None for tree in clone.trees_)
        assert np.array_equal(clone.predict_proba(x), forest.predict_proba(x))
