"""Fused node table: every tree of a fitted model in one set of arrays.

:class:`repro.ml.tree.TreeNode` is the right structure for *fitting* --
growth is naturally recursive -- but the wrong one for *scoring*:
YourAdValue prices each encrypted nURL the moment it is seen, so
single-row latency through a 60-tree forest is what a user waits for.

:class:`NodeTable` compiles a forest (or a single tree: a table with one
root) into contiguous ``feature``/``threshold``/``left``/``right``/
``value`` arrays holding every tree's nodes back to back, plus the node
id of each tree's root.  Scoring is a level-synchronous walk over
(row, tree) lanes: one fancy-indexing step advances every lane not yet
at a leaf by one level, so a call costs about as many numpy calls as
the deepest tree is deep, whatever the number of rows or trees.
Classifier leaf rows are normalised and scattered into the model's
class space by label at compile time, and the mean over trees adds leaf
rows in tree order (``np.cumsum`` is strictly sequential), so results
are bit-identical to summing per-tree recursive descents one by one.

The table is derived state, compiled after ``fit`` and on
deserialisation and never serialised, so the model package format is
unchanged by its existence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.ml.tree import TreeNode

__all__ = ["NodeTable", "compile_classifier", "compile_regressor"]

#: Sentinel node id / feature id for "no child" / "is a leaf".
_NO_NODE = -1

#: (row, tree) lanes walked per chunk.  Bounds the walk's scratch
#: arrays (about 1 MB) however many rows one call scores.
_CHUNK_LANES = 1 << 14


@dataclass
class NodeTable:
    """Fitted trees compiled to one set of contiguous arrays.

    ``feature[i] == -1`` marks node ``i`` as a leaf; internal nodes
    carry a feature index, threshold and child node ids (global ids
    into the same arrays).  ``value`` has one row per node: the
    normalised class-probability vector for classifier leaves (aligned
    to the model's class space) or a single-column mean target for
    regressor leaves.  Internal-node rows are zero -- only leaf rows are
    ever gathered.  Tree ``t`` occupies node ids ``roots[t]`` up to
    ``roots[t + 1]``.
    """

    feature: np.ndarray      # (n_nodes,) intp, -1 at leaves
    threshold: np.ndarray    # (n_nodes,) float64, nan at leaves
    left: np.ndarray         # (n_nodes,) intp, -1 at leaves
    right: np.ndarray        # (n_nodes,) intp, -1 at leaves
    value: np.ndarray        # (n_nodes, n_outputs) float64
    roots: np.ndarray        # (n_trees,) intp

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.value.shape[1])

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    def _chunks(self, x: np.ndarray):
        step = max(1, _CHUNK_LANES // self.n_trees)
        return [x[lo : lo + step] for lo in range(0, x.shape[0], step)]

    def _walk(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id per (row, tree) lane, flattened row-major.

        Each iteration advances every lane still at an internal node by
        one level, comparing ``x[row, feature] <= threshold`` exactly as
        recursive descent does: ties route left, and NaN compares false
        and routes right.
        """
        n_rows, n_features = x.shape
        feature, threshold = self.feature, self.threshold
        left, right = self.left, self.right
        flat_x = np.ascontiguousarray(x).ravel()
        node = np.tile(self.roots, n_rows)
        row_base = np.repeat(np.arange(n_rows) * n_features, self.n_trees)
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = flat_x[row_base[active] + feature[current]] <= threshold[current]
            nxt = np.where(go_left, left[current], right[current])
            node[active] = nxt
            active = active[feature[nxt] >= 0]
        return node

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Global leaf node id per (row, tree): shape (n_rows, n_trees)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        leaves = [self._walk(chunk) for chunk in self._chunks(x)]
        return np.concatenate(leaves or [self.roots[:0]]).reshape(-1, self.n_trees)

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf ``value`` row over the trees, for every row of ``x``.

        Shape (n_rows, n_outputs).  Leaf rows are summed in tree order
        and divided by the tree count once, bit-identical to adding the
        member trees' outputs one after another.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        shape = (-1, self.n_trees, self.n_outputs)
        sums = []
        for chunk in self._chunks(x):
            leaf_rows = self.value[self._walk(chunk)].reshape(shape)
            sums.append(np.cumsum(leaf_rows, axis=1, out=leaf_rows)[:, -1])
        return np.concatenate(sums or [self.value[:0]]) / self.n_trees


def _compile(
    roots: Sequence[TreeNode],
    n_outputs: int,
    leaf_rows: Callable[[int, list[TreeNode]], np.ndarray],
) -> NodeTable:
    """Compile ``roots`` into one table; ``leaf_rows(t, leaves)`` yields
    tree ``t``'s stacked ``(n_leaves, n_outputs)`` value block.

    Node ids follow a pre-order walk, tree after tree, left subtree
    first, so compiling the same trees always produces the same arrays.
    The walk uses an explicit stack (a deep fitted tree must not be
    bounded by the interpreter recursion limit) and appends to typed
    ``array`` buffers that become the table's arrays without a copy; a
    node's child ids are filled in when the children are visited.
    """
    features, lefts, rights, leaf_ids = (array("q") for _ in range(4))
    thresholds = array("d")
    blocks: list[np.ndarray] = []
    tree_roots: list[int] = []

    nan = float("nan")
    add_feature, add_threshold = features.append, thresholds.append
    add_left, add_right = lefts.append, rights.append
    add_leaf_id = leaf_ids.append
    for t, root in enumerate(roots):
        tree_roots.append(len(features))
        leaves: list[TreeNode] = []
        add_leaf = leaves.append
        # (node, parent id, child list to patch) -- locally-bound
        # methods keep the per-node interpreter cost to a handful of
        # bytecodes: this walk visits every node of a 60-tree forest on
        # each model load.
        stack: list[tuple] = [(root, -1, lefts)]
        pop, push = stack.pop, stack.append
        while stack:
            node, parent, side = pop()
            idx = len(features)
            if parent >= 0:
                side[parent] = idx
            add_left(_NO_NODE)
            add_right(_NO_NODE)
            feature = node.feature
            if feature is None:
                add_feature(_NO_NODE)
                add_threshold(nan)
                add_leaf_id(idx)
                add_leaf(node)
                continue
            assert node.left is not None and node.right is not None
            assert node.threshold is not None
            add_feature(feature)
            add_threshold(node.threshold)
            # Push right first so the left subtree is numbered first.
            push((node.right, idx, rights))
            push((node.left, idx, lefts))
        blocks.append(leaf_rows(t, leaves))

    n_nodes = len(features)
    value = np.zeros((n_nodes, n_outputs), dtype=np.float64)
    value[np.frombuffer(leaf_ids, dtype=np.int64)] = np.concatenate(blocks)
    # Compile-time bookkeeping (once per fit/deserialise -- never on
    # the inference path).
    reg = obs.registry()
    reg.counter("flat.trees_compiled", "trees compiled to node tables").inc(
        len(tree_roots)
    )
    reg.counter("flat.nodes_compiled", "total table nodes allocated").inc(n_nodes)
    return NodeTable(
        feature=np.frombuffer(features, dtype=np.int64),
        threshold=np.frombuffer(thresholds, dtype=np.float64),
        left=np.frombuffer(lefts, dtype=np.int64),
        right=np.frombuffer(rights, dtype=np.int64),
        value=value,
        roots=np.asarray(tree_roots, dtype=np.intp),
    )


def compile_classifier(
    roots: Sequence[TreeNode],
    n_classes: int,
    labels: Sequence[np.ndarray | None] | None = None,
) -> NodeTable:
    """Compile classifier trees; leaf rows are class probabilities.

    Leaf class-count vectors are normalised once here with the same
    ``counts / total`` (uniform over the tree's own classes for an
    empty leaf) that recursive descent computes per visit, then
    scattered into the ``n_classes`` model columns by class label:
    column ``j`` of tree ``t``'s counts is label ``labels[t][j]``
    (``np.bincount`` order, so ``arange`` unless the tree came from a
    gappy class space; ``None`` means ``arange``).  A narrow or gappy
    tree is thereby zero-padded at its missing labels, wherever they
    fall.  A tree wider than ``n_classes`` is rejected.
    """

    def leaf_rows(t: int, leaves: list[TreeNode]) -> np.ndarray:
        counts = np.stack([node.value for node in leaves]).astype(np.float64)
        m = counts.shape[1]
        if m > n_classes:
            raise ValueError(
                f"tree {t} has {m} classes, model class space is {n_classes}"
            )
        tree_labels = None if labels is None else labels[t]
        cols = np.arange(m) if tree_labels is None else np.asarray(tree_labels)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.full_like(counts, 1.0 / max(1, m))      # empty-leaf fallback
        np.divide(counts, totals, out=probs, where=totals > 0)
        rows = np.zeros((counts.shape[0], n_classes), dtype=np.float64)
        rows[:, cols] = probs
        return rows

    return _compile(roots, n_classes, leaf_rows)


def compile_regressor(roots: Sequence[TreeNode]) -> NodeTable:
    """Compile regressor trees; leaf rows are the single mean target."""

    def leaf_rows(t: int, leaves: list[TreeNode]) -> np.ndarray:
        return np.asarray(
            [node.value for node in leaves], dtype=np.float64
        )[:, None]

    return _compile(roots, 1, leaf_rows)
