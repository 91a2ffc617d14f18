"""Unit tests for the fused node table (repro.ml.flat)."""

import numpy as np
import pytest

from repro.ml.flat import NodeTable, compile_classifier, compile_regressor
from repro.ml.serialize import dumps, loads, tree_from_dict, tree_to_dict
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeNode,
)

from . import oracle


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.2).astype(int))
    return x, y


class TestCompilation:
    def test_node_count_matches_tree(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=6).fit(x, y)
        flat = tree.compile_flat()
        assert isinstance(flat, NodeTable)
        assert flat.n_nodes == 2 * tree.n_leaves() - 1
        assert flat.n_outputs == tree.n_classes_
        assert flat.n_trees == 1 and flat.roots[0] == 0
        # Leaves carry no children; internals always carry both, the
        # left child directly after its parent (pre-order ids).
        leaves = flat.feature < 0
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        assert np.all(flat.left[~leaves] == np.flatnonzero(~leaves) + 1)
        assert np.all(flat.right[~leaves] > flat.left[~leaves])
        assert np.all(np.isnan(flat.threshold[leaves]))

    def test_recompilation_is_deterministic(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=8).fit(x, y)
        first = tree.compile_flat()
        second = tree.compile_flat()
        for field in ("feature", "threshold", "left", "right", "value", "roots"):
            a, b = getattr(first, field), getattr(second, field)
            assert np.array_equal(a, b, equal_nan=True)

    def test_single_leaf_tree(self):
        x = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.compile_flat().n_nodes == 1
        probs = tree.predict_proba(np.ones((3, 2)))
        assert probs.shape == (3, 1)
        assert np.all(probs == 1.0)

    def test_leaf_probabilities_bit_identical_to_recursive(self):
        x, y = _data(500, seed=3)
        tree = DecisionTreeClassifier(max_depth=10).fit(x, y)
        fresh = np.random.default_rng(11).normal(size=(200, 4))
        expected = oracle.tree_proba(tree, fresh)
        assert np.array_equal(tree.predict_proba(fresh), expected)
        single = np.vstack([tree.predict_proba(row) for row in fresh[:30]])
        assert np.array_equal(single, expected[:30])

    def test_wider_class_space_alignment(self):
        # Compiling into a wider model class space scatters by label.
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        wide = compile_classifier([tree.root_], tree.n_classes_ + 2)
        probs = wide.predict_value(x[:10])
        assert probs.shape == (10, tree.n_classes_ + 2)
        assert np.array_equal(probs[:, : tree.n_classes_],
                              tree.predict_proba(x[:10]))
        assert np.all(probs[:, tree.n_classes_:] == 0.0)

    def test_narrower_class_space_rejected(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        with pytest.raises(ValueError):
            compile_classifier([tree.root_], tree.n_classes_ - 1)

    def test_trees_concatenate_with_root_offsets(self):
        x, y = _data()
        a = DecisionTreeClassifier(max_depth=3).fit(x, y)
        b = DecisionTreeClassifier(max_depth=5).fit(x[::2], y[::2])
        fused = compile_classifier([a.root_, b.root_], 3)
        n_a = a.compile_flat().n_nodes
        assert list(fused.roots) == [0, n_a]
        assert fused.n_nodes == n_a + b.compile_flat().n_nodes
        leaves = fused.apply(x[:20])
        assert np.array_equal(leaves[:, 0], a.apply(x[:20]))
        assert np.array_equal(leaves[:, 1] - n_a, b.apply(x[:20]))


class TestApply:
    def test_apply_returns_leaf_ids(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=7).fit(x, y)
        leaves = tree.apply(x)
        assert leaves.shape == (len(x),)
        assert np.all(tree.flat_.feature[leaves] == -1)

    def test_apply_agrees_with_per_row_walk(self):
        x, y = _data(200, seed=9)
        tree = DecisionTreeClassifier(max_depth=9).fit(x, y)
        flat = tree.compile_flat()
        for i in range(0, 200, 17):
            leaf_node = oracle.leaf_for(tree.root_, x[i])
            flat_leaf = tree.apply(x[i : i + 1])[0]
            counts = leaf_node.value
            assert np.array_equal(flat.value[flat_leaf], counts / counts.sum())

    def test_nan_routes_right_like_recursive(self):
        x, y = _data()
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        probe = np.full((1, x.shape[1]), np.nan)
        rightmost = tree.root_
        while rightmost.feature is not None:
            rightmost = rightmost.right
        assert oracle.leaf_for(tree.root_, probe[0]) is rightmost
        assert np.array_equal(
            tree.predict_proba(probe), oracle.tree_proba(tree, probe)
        )


class TestRegressorFlat:
    def test_flat_vs_nodes_exact(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(400, 3))
        y = x[:, 0] ** 2 + x[:, 1]
        tree = DecisionTreeRegressor(max_depth=8).fit(x, y)
        fresh = rng.uniform(-2, 2, size=(150, 3))
        assert np.array_equal(tree.predict(fresh), oracle.tree_regress(tree, fresh))

    def test_flatten_regressor_single_output(self):
        root = TreeNode(value=1.5, n_samples=3, impurity=0.0)
        flat = compile_regressor([root])
        assert flat.n_outputs == 1
        assert flat.predict_value(np.zeros((2, 1)))[0, 0] == 1.5


class TestSerializeRoundTrip:
    def test_deserialised_tree_predicts_bit_identically(self):
        x, y = _data(350, seed=6)
        tree = DecisionTreeClassifier(max_depth=9).fit(x, y)
        clone = tree_from_dict(loads(dumps(tree_to_dict(tree))))
        fresh = np.random.default_rng(21).normal(size=(120, 4))
        assert np.array_equal(clone.predict_proba(fresh),
                              tree.predict_proba(fresh))
        assert np.array_equal(clone.apply(fresh), tree.apply(fresh))
