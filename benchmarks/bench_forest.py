"""Forest throughput benchmark: training engines + flattened inference.

Tracks the ML half of the pipeline's hot path: training the
section-5.4 price forest and scoring every encrypted impression in
dataset D.

Two records:

* ``BENCH_forest_train.json`` (``train_matrix``) -- the **training
  engine matrix** over a feature-set-S-shaped matrix (the paper's
  section-5.1 cardinalities): the legacy one-hot exact splitter (the
  seed implementation, kept as ``best_classification_split_onehot``),
  the allocation-free exact splitter, and the pre-binned ``hist``
  engine, each at workers 1/N.  Asserted along the way: exact is
  bit-identical to legacy, hist is bit-identical across worker counts,
  and hist's holdout accuracy stays within a point of exact's.
* ``BENCH_forest.json`` (``run_matrix``) -- the workers sweep + fused
  inference below.

Reports, as one JSON record (``BENCH_forest.json``):

* ``train_rows_per_sec`` per worker count (1/2/4 by default), with the
  bit-identical-to-sequential guarantee asserted along the way;
* fused inference through a 60-tree, depth-18 forest (the paper's
  production shape): single-row ``predict_proba`` latency (p50/p90 ms,
  the YourAdValue client's per-impression cost) and batch
  ``predict_rows_per_sec`` over >= 50k rows, beside the per-row
  recursive descent of the test oracle (``tests/ml/oracle.py``).  Both
  fused results are asserted bit-identical to the oracle while timing;
* ``speedup_vs_per_row`` / ``speedup_vs_sequential`` so the acceptance
  bar (fused batch >= 5x per-row recursion) is visible in the record;
* model install (``install_runs``): ``EncryptedPriceModel.from_package``
  on the package of a 60-tree, depth-18 price model trained on the same
  rows -- the node table compiled straight from the payload, asserted
  byte-identical to compiling rebuilt ``TreeNode`` member trees while
  timing -- beside that ``TreeNode`` compile itself;
* ``cpu_count`` and ``git_sha`` provenance, matching
  ``bench_parallel_analyzer``.

Two entry points:

* standalone script (no pytest needed)::

      PYTHONPATH=src python benchmarks/bench_forest.py \
          --train-rows 4000 --predict-rows 50000 --workers 1 2 4 \
          --json benchmarks/output/BENCH_forest.json

* pytest benchmark (scaled by ``REPRO_BENCH_SCALE``)::

      pytest benchmarks/bench_forest.py -s

As with ``bench_parallel_analyzer``, process-pool speedup is bounded by
hardware parallelism: on a 1-core box the workers>1 rows/sec can only
show pool overhead (fork + per-tree result pickling), never a win.  The
record carries ``cpu_count`` so readers can judge; the bit-identical
guarantee is asserted regardless of the core count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.ml.flat import compile_classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import dumps, forest_to_dict, loads, tree_from_dict
from repro.ml.tree import _SplitSearch

try:  # package import under pytest, sibling import as a script
    from ._record import provenance
except ImportError:  # pragma: no cover - script mode
    from _record import provenance

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.ml.oracle import forest_proba as oracle_proba

#: The paper's production forest shape (section 5.4 / EncryptedPriceModel).
N_ESTIMATORS = 60
MAX_DEPTH = 18


def _synthetic(n_rows: int, n_features: int = 10, n_classes: int = 4,
               seed: int = 20151231) -> tuple[np.ndarray, np.ndarray]:
    """Ordinally-encoded-feature-like matrix with 4 learnable classes."""
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [rng.integers(0, rng.integers(3, 40), size=n_rows).astype(float)
         for _ in range(n_features)]
    )
    score = (
        0.8 * x[:, 0] / max(1.0, x[:, 0].max())
        + 0.6 * x[:, 1] / max(1.0, x[:, 1].max())
        + 0.3 * rng.normal(size=n_rows)
    )
    y = np.digitize(score, np.quantile(score, [0.25, 0.5, 0.75]))
    return x, y.astype(int)


def _time(fn, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- training engine matrix ---------------------------------------------------

#: Paper section 5.1's selected feature set S with realistic
#: cardinalities: context, device_type, city, time_of_day, day_of_week,
#: slot_size, publisher_iab, adx.
S_CARDINALITIES = (2, 4, 50, 4, 7, 10, 25, 6)


def _feature_set_s(n_rows: int, seed: int = 20151231) -> tuple[np.ndarray, np.ndarray]:
    """Feature-set-S-shaped ordinal matrix with 4 learnable price classes.

    Price drivers mirror the paper's findings: city (fig 5), time of
    day (fig 6), IAB category (fig 11) and the ADX mix dominate.
    """
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [rng.integers(0, c, size=n_rows).astype(float) for c in S_CARDINALITIES]
    )
    score = (
        0.9 * (x[:, 2] / 49.0)
        + 0.5 * (x[:, 3] / 3.0)
        + 0.4 * (x[:, 6] / 24.0)
        + 0.3 * (x[:, 7] / 5.0)
        + 0.25 * rng.normal(size=n_rows)
    )
    y = np.digitize(score, np.quantile(score, [0.25, 0.5, 0.75]))
    return x, y.astype(int)


@contextmanager
def _legacy_onehot_splitter():
    """Swap the seed one-hot exact splitter back in (timing baseline).

    The seed engine called the one-hot splitter once per (node,
    candidate feature); the growth loop now routes through the batched
    ``best_classification_split_multi``, so the legacy baseline is
    restored by patching that entry with a per-column one-hot loop --
    reproducing the seed's per-call overhead profile as well as its
    arithmetic.  The pool workers see the patch too: fork happens at
    pool creation, after the class attribute is swapped.
    """

    def _onehot_multi(cols, y, n_classes, criterion, nan_free=False):
        return [
            _SplitSearch.best_classification_split_onehot(
                cols[:, j], y, n_classes, criterion
            )
            for j in range(cols.shape[1])
        ]

    original = _SplitSearch.__dict__["best_classification_split_multi"]
    _SplitSearch.best_classification_split_multi = staticmethod(  # type: ignore[method-assign]
        _onehot_multi
    )
    try:
        yield
    finally:
        _SplitSearch.best_classification_split_multi = original  # type: ignore[method-assign]


def train_matrix(
    train_rows: int = 50_000,
    eval_rows: int = 10_000,
    workers_list=(1, 4),
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    repeats: int = 1,
) -> dict:
    """Time the three training engines over feature set S.

    Engines: ``exact-onehot-legacy`` (the seed splitter, patched back
    in), ``exact`` (allocation-free integer-count rewrite) and ``hist``
    (pre-binned histogram engine), the latter two across
    ``workers_list``.  Contracts asserted, not just reported:

    * exact == legacy bit for bit (same trees, same payload);
    * exact and hist are each bit-identical across worker counts;
    * hist holdout accuracy within one point of exact's (all S
      cardinalities are < 256, so hist scans the same candidate
      thresholds the exact engine does).
    """
    workers_list = tuple(sorted({1, *workers_list}))
    x_all, y_all = _feature_set_s(train_rows + eval_rows)
    x, y = x_all[:train_rows], y_all[:train_rows]
    x_eval, y_eval = x_all[train_rows:], y_all[train_rows:]

    def fit(splitter: str, workers: int) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=2,
            seed=20151231,
            workers=workers,
            splitter=splitter,
        ).fit(x, y)

    records: list[dict] = []

    with _legacy_onehot_splitter():
        legacy_s, legacy = _time(lambda: fit("exact", 1), repeats)
    legacy_payload = dumps(forest_to_dict(legacy))
    records.append(
        {
            "engine": "exact-onehot-legacy",
            "workers": 1,
            "seconds": round(legacy_s, 4),
            "train_rows_per_sec": round(train_rows / legacy_s, 1),
            "holdout_accuracy": round(
                float(np.mean(legacy.predict(x_eval) == y_eval)), 4
            ),
        }
    )

    timings: dict[tuple[str, int], float] = {}
    payloads: dict[tuple[str, int], str] = {}
    accuracy: dict[str, float] = {}
    for splitter in ("exact", "hist"):
        for workers in workers_list:
            t_s, forest = _time(lambda: fit(splitter, workers), repeats)
            timings[(splitter, workers)] = t_s
            payloads[(splitter, workers)] = dumps(forest_to_dict(forest))
            acc = float(np.mean(forest.predict(x_eval) == y_eval))
            accuracy[splitter] = acc
            records.append(
                {
                    "engine": splitter,
                    "workers": workers,
                    "seconds": round(t_s, 4),
                    "train_rows_per_sec": round(train_rows / t_s, 1),
                    "holdout_accuracy": round(acc, 4),
                    "speedup_vs_legacy": round(legacy_s / t_s, 2),
                }
            )

    # -- contracts ----------------------------------------------------------
    for workers in workers_list:
        assert payloads[("exact", workers)] == legacy_payload, (
            f"exact (workers={workers}) diverged from the legacy one-hot engine"
        )
    hist_reference = payloads[("hist", 1)]
    for workers in workers_list:
        assert payloads[("hist", workers)] == hist_reference, (
            f"hist workers={workers} diverged from sequential"
        )
    assert accuracy["hist"] >= accuracy["exact"] - 0.01, (
        f"hist accuracy {accuracy['hist']:.4f} fell more than a point below "
        f"exact {accuracy['exact']:.4f}"
    )

    return {
        "benchmark": "forest_train",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "train_rows": train_rows,
        "eval_rows": eval_rows,
        "feature_cardinalities": list(S_CARDINALITIES),
        **provenance(),
        "speedups": {
            "exact_vs_legacy": round(legacy_s / timings[("exact", 1)], 2),
            "hist_vs_legacy": round(legacy_s / timings[("hist", 1)], 2),
            "hist_vs_exact": round(
                timings[("exact", 1)] / timings[("hist", 1)], 2
            ),
        },
        "runs": records,
    }


def _render_train(record: dict) -> list[str]:
    lines = [
        f"Price-forest training engines ({record['n_estimators']} trees, "
        f"max depth {record['max_depth']}, {record['train_rows']:,} rows, "
        f"feature set S, {record['cpu_count']} CPUs, git {record['git_sha']}):",
        "",
        f"{'engine':<22} {'workers':>7} {'seconds':>9} {'rows/sec':>12} "
        f"{'acc':>7} {'vs legacy':>9}",
    ]
    for run in record["runs"]:
        lines.append(
            f"{run['engine']:<22} {run['workers']:>7} {run['seconds']:>9.3f} "
            f"{run['train_rows_per_sec']:>12,.1f} "
            f"{run['holdout_accuracy']:>7.4f} "
            f"{str(run.get('speedup_vs_legacy', '')):>9}"
        )
    s = record["speedups"]
    lines += [
        "",
        f"exact vs legacy one-hot: {s['exact_vs_legacy']}x (bit-identical); "
        f"hist vs legacy: {s['hist_vs_legacy']}x; "
        f"hist vs exact: {s['hist_vs_exact']}x "
        "(hist bit-identical across workers; accuracy within a point).",
    ]
    return lines


def inference_runs(
    forest: RandomForestClassifier,
    x_pred: np.ndarray,
    n_single: int = 500,
    repeats: int = 1,
    per_row_cap: int | None = None,
) -> list[dict]:
    """Time fused inference; every timed output is held to the oracle.

    * ``per-row-oracle`` -- the test oracle's per-row recursive descent
      over the first ``per_row_cap`` rows (it is slow); its result is
      the reference for the two fused runs.
    * ``fused-single-row`` -- ``predict_proba`` on one row at a time
      over the first ``n_single`` rows: p50/p90 latency per call.
    * ``fused-batch`` -- one ``predict_proba`` over all of ``x_pred``.

    The batch speedup is computed rate-to-rate against the oracle,
    which favours the oracle if anything (no cold-start amortisation).
    """
    n_rows = x_pred.shape[0]
    n_oracle = min(n_rows, per_row_cap or n_rows)
    n_single = min(n_single, n_oracle)
    oracle_s, expected = _time(lambda: oracle_proba(forest, x_pred[:n_oracle]))
    oracle_rate = n_oracle / oracle_s

    latencies = []
    for i in range(n_single):
        row = x_pred[i : i + 1]
        start = time.perf_counter()
        probs = forest.predict_proba(row)
        latencies.append(time.perf_counter() - start)
        assert np.array_equal(probs, expected[i : i + 1]), (
            f"fused single-row predict diverged from the oracle at row {i}"
        )
    latencies_ms = np.asarray(latencies) * 1e3

    batch_s, batch_out = _time(lambda: forest.predict_proba(x_pred), repeats)
    assert np.array_equal(batch_out[:n_oracle], expected), (
        "fused batch predict diverged from the oracle"
    )
    batch_rate = n_rows / batch_s
    return [
        {
            "phase": "predict",
            "mode": "per-row-oracle",
            "rows": n_oracle,
            "seconds": round(oracle_s, 4),
            "predict_rows_per_sec": round(oracle_rate, 1),
        },
        {
            "phase": "predict",
            "mode": "fused-single-row",
            "rows": n_single,
            "p50_ms": round(float(np.percentile(latencies_ms, 50)), 4),
            "p90_ms": round(float(np.percentile(latencies_ms, 90)), 4),
            "predict_rows_per_sec": round(n_single / sum(latencies), 1),
        },
        {
            "phase": "predict",
            "mode": "fused-batch",
            "rows": n_rows,
            "seconds": round(batch_s, 4),
            "predict_rows_per_sec": round(batch_rate, 1),
            "speedup_vs_per_row": round(batch_rate / oracle_rate, 2),
        },
    ]


def install_runs(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    repeats: int = 5,
) -> list[dict]:
    """Time a YourAdValue model install of a price model trained on
    ``x`` (one ordinal feature per column) and price classes ``y``.

    * ``from-package`` -- ``EncryptedPriceModel.from_package``, which
      compiles the node table straight from the payload dicts.
    * ``tree-nodes`` -- the path it replaced: rebuild every member tree
      as ``TreeNode``s (``tree_from_dict``), then compile those.

    Both are best-of-``repeats``; every timed install's table is
    asserted byte-identical (all six arrays) to the ``TreeNode`` one.
    """
    from repro.core.price_model import EncryptedPriceModel

    names = [f"f{i}" for i in range(x.shape[1])]
    rows = [dict(zip(names, row.tolist())) for row in x]
    prices = 0.25 * 2.0 ** y * np.linspace(0.9, 1.1, len(y))
    model = EncryptedPriceModel.train(
        rows, prices.tolist(), feature_names=names, n_classes=4,
        n_estimators=n_estimators, max_depth=max_depth, seed=20151231,
    )
    package = loads(dumps(model.to_package()))   # what a client downloads
    forest = package["forest"]

    def tree_nodes():
        trees = [tree_from_dict(t) for t in forest["trees"]]
        return compile_classifier(
            [tree.root_ for tree in trees], forest["n_classes"],
            [tree.classes_ for tree in trees],
        )

    nodes_s, reference = _time(tree_nodes, repeats)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        model = EncryptedPriceModel.from_package(package)
        best = min(best, time.perf_counter() - start)
        for field in ("feature", "threshold", "left", "right", "value", "roots"):
            got, want = getattr(model.forest.flat_, field), getattr(reference, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                f"installed table diverged from the TreeNode compile ({field})"
            )
    nodes = reference.n_nodes
    return [
        {"phase": "install", "mode": "tree-nodes", "nodes": nodes,
         "ms": round(nodes_s * 1e3, 3)},
        {"phase": "install", "mode": "from-package", "nodes": nodes,
         "ms": round(best * 1e3, 3),
         "speedup_vs_tree_nodes": round(nodes_s / best, 2)},
    ]


def run_matrix(
    train_rows: int = 4_000,
    predict_rows: int = 50_000,
    workers_list=(1, 2, 4),
    n_estimators: int = N_ESTIMATORS,
    max_depth: int = MAX_DEPTH,
    repeats: int = 1,
    per_row_cap: int | None = None,
) -> dict:
    """Time training per worker count, then fused inference
    (:func:`inference_runs`)."""
    x_train, y_train = _synthetic(train_rows, seed=20151231)
    x_pred, _ = _synthetic(predict_rows, seed=715517)

    records: list[dict] = []

    # -- training: workers sweep, bit-identity asserted ---------------------
    def fit_with(workers: int) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=2,
            seed=20151231,
            workers=workers,
        ).fit(x_train, y_train)

    seq_s, forest = _time(lambda: fit_with(1), repeats)
    reference_payload = dumps(forest_to_dict(forest))
    records.append(
        {
            "phase": "train",
            "workers": 1,
            "seconds": round(seq_s, 4),
            "train_rows_per_sec": round(train_rows / seq_s, 1),
        }
    )
    for workers in workers_list:
        if workers == 1:
            continue
        par_s, par = _time(lambda w=workers: fit_with(w), repeats)
        assert dumps(forest_to_dict(par)) == reference_payload, (
            f"workers={workers} training diverged from sequential"
        )
        records.append(
            {
                "phase": "train",
                "workers": workers,
                "seconds": round(par_s, 4),
                "train_rows_per_sec": round(train_rows / par_s, 1),
                "speedup_vs_sequential": round(seq_s / par_s, 2),
            }
        )

    records += inference_runs(
        forest, x_pred, repeats=repeats, per_row_cap=per_row_cap
    )
    records += install_runs(
        x_train, y_train, n_estimators, max_depth, repeats=max(5, repeats)
    )

    return {
        "benchmark": "forest",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "fitted_depth_max": max(t.depth() for t in forest.trees_),
        "train_rows": train_rows,
        "predict_rows": predict_rows,
        **provenance(),
        "runs": records,
    }


def _render(record: dict) -> list[str]:
    lines = [
        f"Price-forest throughput ({record['n_estimators']} trees, "
        f"max depth {record['max_depth']}, {record['cpu_count']} CPUs, "
        f"git {record['git_sha']}):",
        "",
        f"{'phase':<8} {'config':<22} {'rows/sec':>12} {'speedup':>8}",
    ]
    for run in record["runs"]:
        if run["phase"] == "install":
            continue
        config = (
            f"workers={run['workers']}" if run["phase"] == "train"
            else run["mode"]
        )
        rate = run.get("train_rows_per_sec", run.get("predict_rows_per_sec"))
        speed = run.get("speedup_vs_sequential", run.get("speedup_vs_per_row", ""))
        lines.append(f"{run['phase']:<8} {config:<22} {rate:>12,.1f} {str(speed):>8}")
    single = next(r for r in record["runs"] if r.get("mode") == "fused-single-row")
    lines += [
        "",
        f"fused single-row latency: p50 {single['p50_ms']} ms, "
        f"p90 {single['p90_ms']} ms.",
        "train speedup: vs workers=1 (bit-identical output asserted); "
        "predict speedup: vs per-row recursive descent (fused output "
        "asserted bit-identical to it).",
    ]
    lines += [
        f"install ({run['nodes']} nodes, {run['mode']}): {run['ms']} ms"
        for run in record["runs"] if run["phase"] == "install"
    ]
    return lines


# -- pytest entry points -----------------------------------------------------

def test_forest_training_engines():
    """CI smoke of the training-engine matrix (scaled by
    ``REPRO_BENCH_SCALE``); writes ``BENCH_forest_train.json``."""
    from .conftest import OUTPUT_DIR, bench_scale, emit

    scale = bench_scale()
    record = train_matrix(
        train_rows=max(2_000, int(50_000 * scale)),
        # Holdout stays full-size at every scale: scoring is cheap and
        # the accuracy-parity contract needs the binomial noise floor
        # well under the one-point tolerance.
        eval_rows=10_000,
        workers_list=(1, 4),
        n_estimators=max(12, int(N_ESTIMATORS * scale)),
        # Best-of-2 at full scale: single-CPU wall times swing by
        # ~+-20% run to run, and the acceptance bars compare ratios of
        # single measurements.  Minimum-of-N is the standard antidote.
        repeats=2 if scale >= 0.999 else 1,
    )
    emit("BENCH_forest_train", _render_train(record) + ["", json.dumps(record)])
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_forest_train.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    speedups = record["speedups"]
    # The acceptance bars, relaxed at smoke scales (fewer rows per node
    # means less sorting for the exact engines to lose).
    if scale >= 0.999:
        assert speedups["hist_vs_legacy"] >= 5.0
        assert speedups["exact_vs_legacy"] >= 1.5
    else:
        assert speedups["hist_vs_legacy"] >= 2.0
        assert speedups["exact_vs_legacy"] >= 1.1


def test_forest_throughput(benchmark):
    from .conftest import bench_scale, emit

    scale = bench_scale()
    record = run_matrix(
        train_rows=max(400, int(4_000 * scale)),
        predict_rows=max(5_000, int(50_000 * scale)),
        workers_list=(1, 2, 4),
        per_row_cap=max(500, int(5_000 * scale)),
    )
    x_pred, _ = _synthetic(max(5_000, int(50_000 * scale)), seed=715517)
    x_train, y_train = _synthetic(max(400, int(4_000 * scale)), seed=20151231)
    forest = RandomForestClassifier(
        n_estimators=N_ESTIMATORS, max_depth=MAX_DEPTH, min_samples_leaf=2,
        seed=20151231,
    ).fit(x_train, y_train)
    benchmark(lambda: forest.predict_proba(x_pred))
    emit("BENCH_forest", _render(record) + ["", json.dumps(record)])
    fused = next(r for r in record["runs"] if r.get("mode") == "fused-batch")
    # The batch acceptance bar, relaxed only at tiny scales.
    if scale >= 0.999:
        assert fused["speedup_vs_per_row"] >= 5.0
    else:
        assert fused["speedup_vs_per_row"] >= 2.0


def test_forest_inference():
    """CI smoke of fused inference (scaled by ``REPRO_BENCH_SCALE``).

    Checks bit-identity with the per-row oracle only -- single rows and
    the batch -- and records the timings with no wall-clock gate.
    """
    from .conftest import bench_scale, emit

    scale = bench_scale()
    x_train, y_train = _synthetic(max(400, int(4_000 * scale)), seed=20151231)
    x_pred, _ = _synthetic(max(2_000, int(50_000 * scale)), seed=715517)
    forest = RandomForestClassifier(
        n_estimators=N_ESTIMATORS, max_depth=MAX_DEPTH, min_samples_leaf=2,
        seed=20151231,
    ).fit(x_train, y_train)
    runs = inference_runs(
        forest, x_pred, n_single=max(100, int(500 * scale)),
        per_row_cap=max(500, int(5_000 * scale)),
    )
    emit("BENCH_forest_inference", [json.dumps(run) for run in runs])


def test_model_install():
    """CI smoke of model install (scaled by ``REPRO_BENCH_SCALE``).

    Checks that the table ``EncryptedPriceModel.from_package`` compiles
    from the payload is byte-identical to the ``TreeNode`` compile, and
    records both timings with no wall-clock gate.
    """
    from .conftest import bench_scale, emit

    scale = bench_scale()
    x_train, y_train = _synthetic(max(400, int(4_000 * scale)), seed=20151231)
    runs = install_runs(x_train, y_train, repeats=5 if scale >= 0.999 else 3)
    emit("BENCH_forest_install", [json.dumps(run) for run in runs])


# -- standalone script -------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-bench", action="store_true",
                        help="run the training-engine matrix (legacy "
                             "one-hot vs exact vs hist over feature set "
                             "S) instead of the throughput matrix")
    parser.add_argument("--train-rows", type=int, default=None,
                        help="default 4000 (throughput) / 50000 (train "
                             "bench)")
    parser.add_argument("--eval-rows", type=int, default=10_000,
                        help="holdout rows for the train bench's "
                             "accuracy parity check")
    parser.add_argument("--predict-rows", type=int, default=50_000)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="default 1 2 4 (throughput) / 1 4 (train "
                             "bench)")
    parser.add_argument("--trees", type=int, default=N_ESTIMATORS)
    parser.add_argument("--max-depth", type=int, default=MAX_DEPTH)
    parser.add_argument("--repeats", type=int, default=1,
                        help="best-of-N timing repeats (default 1)")
    parser.add_argument("--per-row-cap", type=int, default=None,
                        help="cap rows scored by the slow per-row oracle")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    if args.train_bench:
        record = train_matrix(
            train_rows=args.train_rows or 50_000,
            eval_rows=args.eval_rows,
            workers_list=tuple(args.workers or (1, 4)),
            n_estimators=args.trees,
            max_depth=args.max_depth,
            repeats=args.repeats,
        )
        print("\n".join(_render_train(record)), file=sys.stderr)
    else:
        record = run_matrix(
            train_rows=args.train_rows or 4_000,
            predict_rows=args.predict_rows,
            workers_list=tuple(args.workers or (1, 2, 4)),
            n_estimators=args.trees,
            max_depth=args.max_depth,
            repeats=args.repeats,
            per_row_cap=args.per_row_cap,
        )
        print("\n".join(_render(record)), file=sys.stderr)
    print(json.dumps(record, indent=2))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
