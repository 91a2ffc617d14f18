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

The table is derived state and never serialised, so the model package
format is unchanged by its existence.  It is compiled after ``fit``
from the fitted :class:`TreeNode` graphs, and on install straight from
the package's node dicts (:func:`repro.ml.serialize.forest_from_dict`):
one pre-order walk, fed by a per-node adapter (``record``) for either
source, builds every table, so a package installs without rebuilding
a ``TreeNode`` per node.  The walk rejects what would otherwise price
silently wrong -- a split on a feature the model does not have, a
malformed node, negative or non-finite leaf counts -- with a
``ValueError`` naming the tree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.ml.tree import TreeNode

__all__ = ["NodeTable", "compile_classifier", "compile_regressor", "node_record"]

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

    def decision_path(
        self, row: np.ndarray, tree: int = 0
    ) -> list[tuple[int, float, bool]]:
        """The (feature, threshold, went_left) steps of ``row`` through
        tree ``tree``, root to leaf, compared as :meth:`_walk` compares.

        YourAdValue surfaces this to explain a price estimate to the user.
        """
        row = np.asarray(row, dtype=float)
        path: list[tuple[int, float, bool]] = []
        node = int(self.roots[tree])
        while self.feature[node] >= 0:
            feature, threshold = int(self.feature[node]), float(self.threshold[node])
            went_left = bool(row[feature] <= threshold)
            path.append((feature, threshold, went_left))
            node = int(self.left[node] if went_left else self.right[node])
        return path

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


#: The one node shape the compile walk reads: ``record(node)`` returns
#: ``(feature, threshold, left, right, value)``, with ``feature is None``
#: at a leaf (whose ``value`` is its class-count vector or mean target)
#: and ``left``/``right`` the children in whatever form ``record`` reads
#: next.  This adapter reads fitted :class:`TreeNode` graphs;
#: :mod:`repro.ml.serialize` passes one that reads payload dicts.
node_record = attrgetter("feature", "threshold", "left", "right", "value")


def _compile(
    roots: Iterable[Any],
    record: Callable[[Any], tuple],
    n_outputs: int,
    leaf_rows: Callable[[list, list[int]], np.ndarray],
    n_features: int | None,
) -> NodeTable:
    """Compile ``roots`` into one table.

    ``leaf_rows(values, bounds)`` turns the leaf values, tree ``t``'s
    being ``values[bounds[t]:bounds[t + 1]]``, into the stacked
    ``(n_leaves, n_outputs)`` value block.  Node ids follow a pre-order
    walk, tree after tree, left subtree first, so compiling the same
    trees always produces the same arrays: a node's left child is the
    next id, its right child's id is filled in when the walk reaches
    it.  The walk uses an explicit stack (a deep tree must not be
    bounded by the interpreter recursion limit) and appends to typed
    ``array`` buffers that become the table's arrays without a copy.

    A malformed node, or (given ``n_features``) a split on a feature
    outside ``[0, n_features)``, raises ``ValueError`` naming its tree.
    """
    features, rights = array("q"), array("q")
    thresholds = array("d")
    values: list = []
    bounds = [0]
    tree_roots: list[int] = []

    # Locally-bound methods keep the per-node interpreter cost to a
    # handful of bytecodes: this walk visits every node of a 60-tree
    # forest on each model install.  Left child and leaf ids are not
    # stored per node: both follow from ``rights`` afterwards.
    nan = float("nan")
    add_feature, add_threshold = features.append, thresholds.append
    add_right, add_value = rights.append, values.append
    idx = 0
    for t, root in enumerate(roots):
        tree_roots.append(idx)
        # (node, id of the parent whose right child it is, else -1)
        stack: list[tuple] = [(root, _NO_NODE)]
        pop, push = stack.pop, stack.append
        try:
            while stack:
                node, parent = pop()
                if parent >= 0:
                    rights[parent] = idx
                feature, threshold, left, right, value = record(node)
                if feature is None:
                    add_feature(_NO_NODE)
                    add_threshold(nan)
                    add_right(_NO_NODE)
                    add_value(value)
                else:
                    add_feature(feature)
                    add_threshold(threshold)
                    add_right(_NO_NODE)
                    # Push right first so the left subtree is numbered first.
                    push((right, idx))
                    push((left, _NO_NODE))
                idx += 1
        # A missing key, a mistyped field, a child that is not a node.
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"tree {t}: malformed node ({exc!r})") from exc
        bounds.append(len(values))

    right_ids = np.frombuffer(rights, dtype=np.int64)
    split = right_ids >= 0
    table = NodeTable(
        feature=np.frombuffer(features, dtype=np.int64),
        threshold=np.frombuffer(thresholds, dtype=np.float64),
        left=np.where(split, np.arange(1, idx + 1), _NO_NODE),
        right=right_ids,
        value=np.zeros((idx, n_outputs), dtype=np.float64),
        roots=np.asarray(tree_roots, dtype=np.intp),
    )
    if n_features is not None:
        bad = np.flatnonzero(
            split & ((table.feature < 0) | (table.feature >= n_features))
        )
        if bad.size:
            node = int(bad[0])
            tree = int(np.searchsorted(table.roots, node, side="right")) - 1
            raise ValueError(
                f"tree {tree}: feature index {int(table.feature[node])} "
                f"outside [0, {n_features})"
            )
    table.value[~split] = leaf_rows(values, bounds)
    # Compile-time bookkeeping (once per fit/install -- never on the
    # inference path).
    reg = obs.registry()
    reg.counter("flat.trees_compiled", "trees compiled to node tables").inc(
        table.n_trees
    )
    reg.counter("flat.nodes_compiled", "total table nodes allocated").inc(
        table.n_nodes
    )
    return table


def compile_classifier(
    roots: Sequence[Any],
    n_classes: int,
    labels: Sequence[np.ndarray | None] | None = None,
    *,
    n_features: int | None = None,
    record: Callable[[Any], tuple] = node_record,
) -> NodeTable:
    """Compile classifier trees; leaf rows are class probabilities.

    ``roots`` are whatever ``record`` reads (fitted :class:`TreeNode`
    roots by default).  Leaf class-count vectors are normalised once
    here with the same ``counts / total`` (uniform over the tree's own
    classes for an empty leaf) that recursive descent computes per
    visit, then scattered into the ``n_classes`` model columns by class
    label: column ``j`` of tree ``t``'s counts is label ``labels[t][j]``
    (``np.bincount`` order, so ``arange`` unless the tree came from a
    gappy class space; ``None`` means ``arange``).  A narrow or gappy
    tree is thereby zero-padded at its missing labels, wherever they
    fall.  A tree wider than ``n_classes``, leaf rows of another width
    than the tree's labels, and negative or non-finite counts are
    rejected with ``ValueError`` naming the tree.
    """

    def leaf_rows(values: list, bounds: list[int]) -> np.ndarray:
        rows = np.zeros((len(values), n_classes), dtype=np.float64)
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            block = values[lo:hi]
            # One ``fromiter`` over the chained rows per tree: twice as
            # fast as ``np.array`` on nested lists, same float64 values.
            try:
                widths = set(map(len, block))
                if len(widths) != 1:
                    raise ValueError(f"rows of widths {sorted(widths)}")
                (m,) = widths
                counts = np.fromiter(
                    chain.from_iterable(block), np.float64, len(block) * m
                ).reshape(len(block), m)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"tree {t}: malformed leaf counts ({exc})") from exc
            if m > n_classes:
                raise ValueError(
                    f"tree {t} has {m} classes, model class space is {n_classes}"
                )
            tree_labels = None if labels is None else labels[t]
            cols = np.arange(m) if tree_labels is None else np.asarray(tree_labels)
            if cols.shape != (m,):
                raise ValueError(
                    f"tree {t}: leaf rows have {m} columns, the tree has "
                    f"{cols.size} classes"
                )
            if not np.isfinite(counts).all() or (counts < 0).any():
                raise ValueError(
                    f"tree {t}: leaf counts must be finite and non-negative"
                )
            totals = counts.sum(axis=1, keepdims=True)
            probs = np.full_like(counts, 1.0 / max(1, m))      # empty-leaf fallback
            np.divide(counts, totals, out=probs, where=totals > 0)
            rows[lo:hi, cols] = probs
        return rows

    return _compile(roots, record, n_classes, leaf_rows, n_features)


def compile_regressor(roots: Sequence[TreeNode]) -> NodeTable:
    """Compile fitted regressor trees; leaf rows are the mean target."""

    def leaf_rows(values: list, bounds: list[int]) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[:, None]

    return _compile(roots, node_record, 1, leaf_rows, None)
