"""Model serialisation.

The PME ships its fitted model to YourAdValue clients "in the form of a
decision tree" (paper section 3.2).  We serialise trees and forests to
plain JSON-compatible dicts: the client needs no training code, only
the tree-walking logic, mirroring how a browser extension would embed the
model.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any

import numpy as np

from repro.ml.flat import compile_classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, TreeNode

#: Version 2 adds fitted state (``feature_importances_``, ``oob_score_``)
#: and the constructor hyperparameters to forest payloads, so a loaded
#: forest is a faithful clone, not just a bag of trees.  Version-1
#: payloads still load (with default hyperparameters, as before).
FORMAT_VERSION = 2

#: Forest constructor hyperparameters round-tripped by version-2
#: payloads.  ``workers`` is deliberately absent: it is a runtime
#: execution knob, not part of the model.
_FOREST_PARAM_KEYS = (
    "n_estimators",
    "max_depth",
    "min_samples_leaf",
    "min_samples_split",
    "max_features",
    "criterion",
    "bootstrap",
    "oob_score",
    "seed",
)


def _check_format(payload: dict[str, Any]) -> int:
    version = int(payload.get("format", 1))
    if version < 1 or version > FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialisation format {version} "
            f"(this build reads 1..{FORMAT_VERSION})"
        )
    return version


def _node_to_dict(node: TreeNode) -> dict[str, Any]:
    if node.is_leaf:
        value = node.value
        if isinstance(value, np.ndarray):
            payload: Any = [float(v) for v in value]
        else:
            payload = float(value)
        return {
            "leaf": True,
            "value": payload,
            "n": node.n_samples,
            "impurity": node.impurity,
        }
    assert node.left is not None and node.right is not None
    return {
        "leaf": False,
        "feature": node.feature,
        "threshold": node.threshold,
        "n": node.n_samples,
        "impurity": node.impurity,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: dict[str, Any]) -> TreeNode:
    """Rebuild a :class:`TreeNode` graph; iterative, so any depth loads."""
    root: TreeNode | None = None
    # (node dict, parent TreeNode, the parent slot it fills)
    stack: list[tuple] = [(payload, None, "")]
    while stack:
        node_dict, parent, side = stack.pop()
        n_samples, impurity = int(node_dict["n"]), float(node_dict["impurity"])
        if node_dict["leaf"]:
            value = node_dict["value"]
            if isinstance(value, list):
                value = np.asarray(value, dtype=float)
            node = TreeNode(value=value, n_samples=n_samples, impurity=impurity)
        else:
            node = TreeNode(
                value=np.zeros(0),
                n_samples=n_samples,
                impurity=impurity,
                feature=int(node_dict["feature"]),
                threshold=float(node_dict["threshold"]),
            )
            stack.append((node_dict["right"], node, "right"))
            stack.append((node_dict["left"], node, "left"))
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
    assert root is not None
    return root


def _node_record(node: dict[str, Any]) -> tuple:
    """A serialised node as the table compile walk reads it (the
    payload counterpart of :data:`repro.ml.flat.node_record`)."""
    if node["leaf"]:
        return None, None, None, None, node["value"]
    return node["feature"], node["threshold"], node["left"], node["right"], None


def _check_tree(payload: dict[str, Any]) -> int:
    """Check a serialised tree's header; returns its class count."""
    if payload.get("kind") != "decision_tree_classifier":
        raise ValueError(f"not a serialised tree: kind={payload.get('kind')!r}")
    _check_format(payload)
    return int(payload["n_classes"])


def tree_to_dict(tree: DecisionTreeClassifier) -> dict[str, Any]:
    """Serialise a fitted classifier tree to a JSON-compatible dict."""
    if tree.root_ is None:
        raise ValueError("cannot serialise an unfitted tree")
    return {
        "format": FORMAT_VERSION,
        "kind": "decision_tree_classifier",
        "n_classes": tree.n_classes_,
        "n_features": tree.n_features_,
        "criterion": tree.criterion,
        "root": _node_to_dict(tree.root_),
    }


def tree_from_dict(payload: dict[str, Any]) -> DecisionTreeClassifier:
    """Rebuild a classifier tree, ``TreeNode`` graph and all, from
    :func:`tree_to_dict` output.

    The node table is derived state and never serialised: a lone tree
    compiles it on first prediction.  Forest installs do not come
    here -- :func:`forest_from_dict` compiles the forest's table from
    the payload directly and rebuilds member trees only when asked for.
    """
    n_classes = _check_tree(payload)
    tree = DecisionTreeClassifier(criterion=payload.get("criterion", "gini"))
    tree.n_classes_ = n_classes
    tree.n_features_ = int(payload["n_features"])
    tree.classes_ = np.arange(tree.n_classes_)
    tree.root_ = _node_from_dict(payload["root"])
    return tree


def forest_to_dict(forest: RandomForestClassifier) -> dict[str, Any]:
    """Serialise a fitted forest: member trees, fitted state, params."""
    if not forest.trees_:
        raise ValueError("cannot serialise an unfitted forest")
    importances = forest.feature_importances_
    return {
        "format": FORMAT_VERSION,
        "kind": "random_forest_classifier",
        "n_classes": forest.n_classes_,
        "n_features": forest.n_features_,
        "params": {key: getattr(forest, key) for key in _FOREST_PARAM_KEYS},
        "feature_importances": (
            None if importances is None else [float(v) for v in importances]
        ),
        "oob_score": (
            None if forest.oob_score_ is None else float(forest.oob_score_)
        ),
        "trees": [tree_to_dict(t) for t in forest.trees_],
    }


def _trees_from_dicts(payloads: list[dict[str, Any]]) -> list[DecisionTreeClassifier]:
    return [tree_from_dict(tree) for tree in payloads]


def forest_from_dict(payload: dict[str, Any]) -> RandomForestClassifier:
    """Rebuild a forest from :func:`forest_to_dict` output.

    Version-2 payloads restore the constructor hyperparameters and the
    fitted state (``feature_importances_``, ``oob_score_``); version-1
    payloads (which carried neither) load with default hyperparameters,
    matching their historical behaviour.

    The fused node table compiles straight from the node dicts, so
    installing a package builds no ``TreeNode``: the table is all that
    inference and :meth:`repro.core.estimator.Estimator.explain` read.
    Member trees are rebuilt from ``payload`` (which must not be
    mutated afterwards) on first access to ``trees_``, e.g. by
    :func:`forest_to_dict`; a refit replaces them unbuilt.  A corrupt
    payload raises ``ValueError`` naming the offending tree: a split on
    a feature outside ``[0, n_features)``, a missing or mistyped node
    key, a leaf row wider than the class space, negative or non-finite
    counts.
    """
    if payload.get("kind") != "random_forest_classifier":
        raise ValueError(f"not a serialised forest: kind={payload.get('kind')!r}")
    version = _check_format(payload)
    trees = payload["trees"]
    if not trees:
        raise ValueError("serialised forest has no trees")
    if version >= 2:
        params = dict(payload["params"])
        unknown = set(params) - set(_FOREST_PARAM_KEYS)
        if unknown:
            raise ValueError(f"unknown forest params in payload: {sorted(unknown)}")
        forest = RandomForestClassifier(**params)
    else:
        forest = RandomForestClassifier(n_estimators=len(trees))
    forest.n_classes_ = int(payload["n_classes"])
    forest.n_features_ = int(payload["n_features"])
    roots, labels = [], []
    for t, tree in enumerate(trees):
        try:
            labels.append(np.arange(_check_tree(tree)))
            roots.append(tree["root"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"tree {t}: {exc!r}") from exc
    forest.flat_ = compile_classifier(
        roots, forest.n_classes_, labels,
        n_features=forest.n_features_, record=_node_record,
    )
    forest._load_trees = partial(_trees_from_dicts, trees)
    importances = payload.get("feature_importances")
    if importances is not None:
        forest.feature_importances_ = np.asarray(importances, dtype=float)
    oob = payload.get("oob_score")
    if oob is not None:
        forest.oob_score_ = float(oob)
    return forest


def dumps(payload: dict[str, Any]) -> str:
    """JSON-encode a serialised model."""
    return json.dumps(payload, separators=(",", ":"))


def loads(text: str) -> dict[str, Any]:
    """Decode a JSON-encoded serialised model."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("serialised model must be a JSON object")
    return payload
