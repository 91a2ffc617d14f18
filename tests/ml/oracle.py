"""Per-row recursive descent: the reference the fused node table must match.

The library scores through one fused walk (:mod:`repro.ml.flat`).  This
module keeps the obvious implementation -- follow ``TreeNode`` pointers
one row at a time, normalise the reached leaf's class counts, add the
member trees up in tree order, divide once -- so the equivalence tests
can hold the fast path to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import TreeNode


def leaf_for(root: TreeNode, row: np.ndarray) -> TreeNode:
    """The leaf ``row`` reaches: ``x <= threshold`` goes left, so ties
    route left and NaN (which compares false) routes right."""
    node = root
    while node.feature is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def leaf_probs(leaf: TreeNode) -> np.ndarray:
    """Normalised class counts; uniform over the leaf's classes if empty."""
    counts = np.asarray(leaf.value, dtype=float)
    total = counts.sum()
    if total > 0:
        return counts / total
    return np.full(counts.shape[0], 1.0 / max(1, counts.shape[0]))


def tree_proba(tree, x: np.ndarray, n_classes: int | None = None) -> np.ndarray:
    """Per-row leaf probabilities of one classifier tree.

    Columns are scattered into ``n_classes`` (default the tree's own
    class count) by the tree's ``classes_`` labels.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_classes = tree.n_classes_ if n_classes is None else n_classes
    out = np.zeros((x.shape[0], n_classes), dtype=float)
    for i, row in enumerate(x):
        probs = leaf_probs(leaf_for(tree.root_, row))
        labels = (
            np.arange(probs.shape[0])
            if tree.classes_ is None
            else np.asarray(tree.classes_, dtype=int)
        )
        out[i, labels] = probs
    return out


def forest_proba(forest, x: np.ndarray) -> np.ndarray:
    """Forest probabilities: member trees summed in tree order, then / T."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros((x.shape[0], forest.n_classes_), dtype=float)
    for tree in forest.trees_:
        total += tree_proba(tree, x, forest.n_classes_)
    return total / len(forest.trees_)


def tree_regress(tree, x: np.ndarray) -> np.ndarray:
    """Per-row leaf mean target of one regressor tree."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.array([leaf_for(tree.root_, row).value for row in x], dtype=float)


def forest_regress(forest, x: np.ndarray) -> np.ndarray:
    """Regressor forest mean: member trees summed in tree order, then / T."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros(x.shape[0], dtype=float)
    for tree in forest.trees_:
        total += tree_regress(tree, x)
    return total / len(forest.trees_)
