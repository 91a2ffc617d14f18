"""Installing a forest package: the node table compiled from payload dicts.

``forest_from_dict`` compiles the fused :class:`repro.ml.flat.NodeTable`
straight from the serialised nodes, without rebuilding member trees.
These tests hold that table byte-identical to compiling rebuilt
``TreeNode`` trees, pin the lazily rebuilt ``trees_`` and the
round-trip, and check that a corrupt or very deep payload gets a
defined answer.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.flat import compile_classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import (
    dumps,
    forest_from_dict,
    forest_to_dict,
    loads,
    tree_from_dict,
)

from . import oracle

TABLE_FIELDS = ("feature", "threshold", "left", "right", "value", "roots")


def _fitted(n_classes=4, depth=6, n_estimators=5, seed=0, n=160):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = np.arange(n) % n_classes          # every label present
    x[:, 0] += y                          # ... and learnable
    forest = RandomForestClassifier(
        n_estimators=n_estimators, max_depth=depth, seed=seed
    ).fit(x, y)
    return forest, x


def _tree_node_table(payload):
    """The reference: compile member trees rebuilt as ``TreeNode``s."""
    trees = [tree_from_dict(t) for t in payload["trees"]]
    return compile_classifier(
        [tree.root_ for tree in trees],
        int(payload["n_classes"]),
        [tree.classes_ for tree in trees],
    )


def assert_tables_identical(a, b):
    for field in TABLE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field


def _nodes(root):
    """Every node dict of a serialised tree, pre-order."""
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        if not node["leaf"]:
            stack += [node["right"], node["left"]]
    return out


def _first(payload, tree, leaf):
    return next(n for n in _nodes(payload["trees"][tree]["root"]) if n["leaf"] == leaf)


@pytest.mark.tier1
class TestTableIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_classes=st.integers(2, 5),
        depth=st.integers(1, 10),
        n_estimators=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_payload_table_matches_tree_node_compile(
        self, n_classes, depth, n_estimators, seed
    ):
        forest, _ = _fitted(n_classes, depth, n_estimators, seed, n=60)
        payload = loads(dumps(forest_to_dict(forest)))
        loaded = forest_from_dict(payload)
        assert_tables_identical(loaded.flat_, _tree_node_table(payload))
        assert_tables_identical(loaded.flat_, forest.flat_)

    def test_v1_payload_with_narrow_member_tree(self):
        forest, x = _fitted(n_classes=4)
        payload = forest_to_dict(forest)
        narrow = {
            "format": 1,
            "kind": "decision_tree_classifier",
            "n_classes": 2,
            "n_features": 4,
            "criterion": "gini",
            "root": {
                "leaf": False, "feature": 1, "threshold": 0.0,
                "n": 6, "impurity": 0.5,
                "left": {"leaf": True, "value": [1.0, 3.0], "n": 4, "impurity": 0.375},
                "right": {"leaf": True, "value": [2.0, 0.0], "n": 2, "impurity": 0.0},
            },
        }
        legacy = {
            "format": 1,
            "kind": payload["kind"],
            "n_classes": payload["n_classes"],
            "n_features": payload["n_features"],
            "trees": [t | {"format": 1} for t in payload["trees"]] + [narrow],
        }
        loaded = forest_from_dict(legacy)
        assert_tables_identical(loaded.flat_, _tree_node_table(legacy))
        left_leaf = loaded.flat_.roots[-1] + 1
        assert loaded.flat_.value[left_leaf].tolist() == [0.25, 0.75, 0.0, 0.0]
        assert np.array_equal(loaded.predict_proba(x), oracle.forest_proba(loaded, x))

    def test_round_trip_dumps_byte_identical(self):
        forest, _ = _fitted()
        text = dumps(forest_to_dict(forest))
        assert dumps(forest_to_dict(forest_from_dict(loads(text)))) == text

    def test_member_trees_built_only_on_demand(self, monkeypatch):
        forest, x = _fitted()
        payload = forest_to_dict(forest)
        built = []
        import repro.ml.serialize as serialize

        real = serialize.tree_from_dict
        monkeypatch.setattr(
            serialize, "tree_from_dict", lambda p: built.append(p) or real(p)
        )
        loaded = forest_from_dict(payload)
        loaded.predict_proba(x)
        assert built == []
        assert len(loaded.trees_) == forest.n_estimators
        assert len(built) == forest.n_estimators
        assert loaded.trees_ is loaded.trees_
        # A refit replaces the pending member trees.
        loaded.fit(x, np.arange(len(x)) % 4)
        assert len(built) == forest.n_estimators


@pytest.mark.tier1
class TestCorruptPayloadRejected:
    """A corrupt package must fail to load, never price silently."""

    def _payload(self):
        return forest_to_dict(_fitted(n_estimators=3)[0])

    def _rejected(self, payload, tree):
        with pytest.raises(ValueError, match=rf"^tree {tree}\b"):
            forest_from_dict(payload)

    def test_feature_index_equal_to_n_features(self):
        # Such a split used to read past its row: in a batch it priced
        # the row confidently off the next row's value, alone it raised
        # IndexError.
        payload = self._payload()
        _first(payload, 1, False)["feature"] = payload["n_features"]
        self._rejected(payload, 1)

    def test_negative_feature_index(self):
        payload = self._payload()
        _first(payload, 2, False)["feature"] = -1
        self._rejected(payload, 2)

    @pytest.mark.parametrize("key", ["feature", "threshold", "left", "right", "leaf"])
    def test_missing_split_key(self, key):
        payload = self._payload()
        del _first(payload, 1, False)[key]
        self._rejected(payload, 1)

    def test_missing_leaf_value(self):
        payload = self._payload()
        del _first(payload, 0, True)["value"]
        self._rejected(payload, 0)

    @pytest.mark.parametrize(
        "key, value",
        [("feature", "2"), ("feature", 1.5), ("threshold", "low"),
         ("threshold", None), ("left", [1, 2]), ("right", "leaf")],
    )
    def test_mistyped_split_key(self, key, value):
        payload = self._payload()
        _first(payload, 2, False)[key] = value
        self._rejected(payload, 2)

    @pytest.mark.parametrize("value", [3.0, "counts", [1.0, [2.0]], [1.0, "x", 0.0, 0.0]])
    def test_mistyped_leaf_value(self, value):
        payload = self._payload()
        _first(payload, 1, True)["value"] = value
        self._rejected(payload, 1)

    def test_missing_tree_header_key(self):
        payload = self._payload()
        del payload["trees"][2]["n_classes"]
        self._rejected(payload, 2)

    def test_leaf_row_wider_than_n_classes(self):
        payload = self._payload()
        leaf = _first(payload, 1, True)
        leaf["value"] = leaf["value"] + [1.0]
        self._rejected(payload, 1)

    def test_every_leaf_wider_than_n_classes(self):
        payload = self._payload()
        for node in _nodes(payload["trees"][0]["root"]):
            if node["leaf"]:
                node["value"] = node["value"] + [0.0]
        self._rejected(payload, 0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_counts(self, bad):
        payload = self._payload()
        _first(payload, 2, True)["value"][0] = bad
        self._rejected(payload, 2)

    def test_empty_forest_rejected(self):
        payload = self._payload()
        payload["trees"] = []
        with pytest.raises(ValueError):
            forest_from_dict(payload)


def _chain_payload(depth):
    """A one-tree forest whose root is a ``depth``-level right chain.

    Level ``d`` splits feature 0 at ``d + 0.5``: its left child is a
    leaf with counts ``[d, 1]``, its right child the next level.  Row
    ``[k]`` therefore stops at the left leaf of level ``k``.
    """
    root = {"leaf": True, "value": [0.0, 1.0], "n": 1, "impurity": 0.0}
    for d in reversed(range(depth)):
        root = {
            "leaf": False, "feature": 0, "threshold": d + 0.5,
            "n": d + 2, "impurity": 0.5,
            "left": {"leaf": True, "value": [float(d), 1.0], "n": d + 1,
                     "impurity": 0.5},
            "right": root,
        }
    tree = {"format": 2, "kind": "decision_tree_classifier", "n_classes": 2,
            "n_features": 1, "criterion": "gini", "root": root}
    return {"format": 1, "kind": "random_forest_classifier", "n_classes": 2,
            "n_features": 1, "trees": [tree]}


@pytest.mark.tier1
def test_deep_payload_loads_and_routes():
    depth = 1_500
    assert depth > sys.getrecursionlimit()
    forest = forest_from_dict(_chain_payload(depth))
    assert forest.flat_.n_nodes == 2 * depth + 1
    rows = np.array([[0.0], [1.0], [737.0], [1_499.0], [5_000.0]])
    leaves = forest.apply(rows)[:, 0]
    # Level k's left leaf is node 2k + 1 in pre-order; the chain's end
    # is the last node.
    assert leaves.tolist() == [1, 3, 2 * 737 + 1, 2 * 1_499 + 1, 2 * depth]
    expected = np.array([[0.0, 1.0], [0.5, 0.5], [737 / 738, 1 / 738],
                         [1_499 / 1_500, 1 / 1_500], [0.0, 1.0]])
    assert np.array_equal(forest.predict_proba(rows), expected)
    # The member tree rebuilds iteratively too.
    assert forest.trees_[0].root_.right.right.left.value.tolist() == [2.0, 1.0]
