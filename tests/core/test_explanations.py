"""Tests for price-estimate explanations."""

import pytest

from repro.core.estimator import Estimator
from repro.core.price_model import EncryptedPriceModel


@pytest.fixture(scope="module")
def model():
    rows = []
    prices = []
    # Price determined by context and slot; other features are noise.
    for i in range(400):
        context = "app" if i % 2 else "web"
        slot = "300x250" if i % 3 == 0 else "320x50"
        price = 0.3 * (2.6 if context == "app" else 1.0)
        price *= 1.7 if slot == "300x250" else 1.0
        price *= 1.0 + 0.001 * (i % 7)
        rows.append({"context": context, "slot_size": slot, "noise": i % 5})
        prices.append(price)
    trained = EncryptedPriceModel.train(
        rows, prices, feature_names=["context", "slot_size", "noise"],
        n_estimators=10, max_depth=6, seed=1,
    )
    return Estimator(trained), rows


class TestExplanations:
    def test_explanation_matches_estimate(self, model):
        m, rows = model
        explanation = m.explain(rows[0])
        assert explanation["estimated_cpm"] == pytest.approx(m.estimate_one(rows[0]))

    def test_class_probabilities_sum_to_one(self, model):
        m, rows = model
        explanation = m.explain(rows[1])
        assert sum(explanation["class_probabilities"]) == pytest.approx(1.0)
        assert explanation["predicted_class"] == max(
            range(len(explanation["class_probabilities"])),
            key=explanation["class_probabilities"].__getitem__,
        )

    def test_decision_path_names_real_features(self, model):
        m, rows = model
        explanation = m.explain(rows[2])
        for step in explanation["decision_path"]:
            assert step["feature"] in m.feature_names
            assert isinstance(step["went_left"], bool)

    def test_top_features_are_the_informative_ones(self, model):
        m, rows = model
        explanation = m.explain(rows[0])
        top_names = [t["feature"] for t in explanation["top_features"][:2]]
        assert set(top_names) <= {"context", "slot_size", "noise"}
        assert "context" in top_names or "slot_size" in top_names

    def test_path_values_echo_the_row(self, model):
        m, rows = model
        row = rows[3]
        explanation = m.explain(row)
        for step in explanation["decision_path"]:
            assert step["value"] == row.get(step["feature"])


def _tree_node_path(tree, x):
    """Decision path read off the fitted ``TreeNode`` graph."""
    node, path = tree.root_, []
    while node.feature is not None:
        went_left = bool(x[node.feature] <= node.threshold)
        path.append((node.feature, node.threshold, went_left))
        node = node.left if went_left else node.right
    return path


@pytest.mark.tier1
class TestInstalledModelExplains:
    """An installed package explains from its node table exactly as the
    fitted model does, without rebuilding member trees."""

    ROWS = [
        {"context": "app", "slot_size": "300x250", "noise": 3},
        {"context": "web", "slot_size": "320x50", "noise": 0},
        {"context": "tv", "slot_size": "1x1", "noise": 99},      # unseen values
        {"context": "app"},                                       # missing fields
        {},
    ]

    def test_loaded_explain_equals_fitted_explain(self, model):
        fitted, _ = model
        loaded = Estimator.from_package(fitted.to_package())
        for row in self.ROWS:
            assert loaded.explain(row) == fitted.explain(row), row
        assert loaded.model.forest._load_trees is not None, (
            "explain built the member trees"
        )

    def test_path_equals_tree_node_walk(self, model):
        fitted, _ = model
        tree = fitted.model.forest.trees_[0]
        for row in self.ROWS:
            x = fitted.model.encoder.transform([row])[0]
            steps = fitted.explain(row)["decision_path"]
            assert [
                (fitted.feature_names.index(s["feature"]), s["threshold"], s["went_left"])
                for s in steps
            ] == _tree_node_path(tree, x)
