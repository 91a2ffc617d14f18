"""CART decision trees (classification and regression), from scratch.

The paper's price model is a Random Forest whose member trees are CART
trees over mixed (ordinally encoded) auction features; the model that
ships to YourAdValue clients is a single decision tree.  scikit-learn is
not available in the reproduction environment, so this is a complete
numpy implementation: exhaustive threshold search per feature using
cumulative class counts, Gini or entropy impurity, optional feature
subsampling per split (the Random Forest hook), and JSON-serialisable
node structure.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

_EPS = 1e-12


@dataclass(slots=True)
class TreeNode:
    """A node of a fitted tree.

    Leaves carry a ``value`` (class-count vector for classifiers, mean
    target for regressors); internal nodes carry a ``feature`` index and
    ``threshold`` -- samples with ``x[feature] <= threshold`` go left.

    ``slots=True`` matters at fitting scale: a depth-18 forest allocates
    tens of thousands of nodes per tree, and both growth bookkeeping and
    the flat compile walk the graph through plain attribute access.
    """

    value: np.ndarray | float
    n_samples: int
    impurity: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def n_leaves(self) -> int:
        """Number of leaves in the subtree rooted here."""
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.n_leaves() + self.right.n_leaves()


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector.

    Short vectors take a pure-Python path: below 8 elements numpy's
    ``add.reduce`` accumulates sequentially from the first element, so
    the Python loop performs the *same* float64 operations in the same
    order and the result is bit-identical -- while skipping ~5 numpy
    dispatches per call, which matters because growth evaluates this
    once per node (tens of thousands of times per fitted tree).
    """
    if counts.shape[0] < 8:
        c = counts.tolist()
        total = c[0]
        for v in c[1:]:
            total += v
        if total == 0:
            return 0.0
        first = c[0] / total
        s = first * first
        for v in c[1:]:
            p = v / total
            s += p * p
        return 1.0 - s
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _variance(y: np.ndarray) -> float:
    """Population variance (regression impurity)."""
    if y.size == 0:
        return 0.0
    return float(y.var())


#: Split-finding engines accepted by the trees and forests.
SPLITTERS = ("exact", "hist")


def _check_splitter(splitter: str) -> str:
    if splitter not in SPLITTERS:
        raise ValueError(f"unknown splitter {splitter!r}; use one of {SPLITTERS}")
    return splitter


#: Node size at or below which the exact Gini search runs as a pure
#: Python scan.  Crossover sits well above this: ~35 numpy dispatches
#: cost ~70us regardless of n, while the scan is ~10us at n=32.
_SMALL_NODE_N = 128


def _small_gini_split(
    col: list, y_l: list, n_classes: int
) -> tuple[float, float] | None:
    """Exact Gini split of one small column, evaluated in pure Python.

    Bit-identical to the array path by construction, which is why it is
    gated the way it is:

    * every count is a Python int (exact), and ``int / int`` true
      division equals numpy's float64 divide on the same values;
    * per-candidate class sums accumulate left-to-right starting from
      the first element -- numpy's ``add.reduce`` does exactly that for
      rows shorter than 8 elements, hence the ``n_classes < 8`` gate in
      the caller (at >= 8 numpy switches to an 8-way unrolled order);
    * Gini needs no transcendentals, so no libm-vs-numpy rounding can
      creep in (entropy stays on the array path for that reason);
    * NaNs would break Python ``sorted``'s ordering, so the caller
      screens them out (numpy argsort sorts them to the end instead).

    The score expression mirrors the array code operation for
    operation: ``p = lc/nl``, ``il = 1.0 - sum(p*p)``,
    ``w = (nl*il + nr*ir) / n``, first strict minimum wins.
    """
    n = len(col)
    pairs = sorted(zip(col, y_l))
    total = [0] * n_classes
    for _, c in pairs:
        total[c] += 1
    left = [0] * n_classes
    best_i = -1
    best_w = 0.0
    for i in range(n - 1):
        left[pairs[i][1]] += 1
        if pairs[i + 1][0] - pairs[i][0] > _EPS:
            nl = i + 1
            nr = n - nl
            sl = -1.0
            sr = -1.0
            for c in range(n_classes):
                p = left[c] / nl
                q = (total[c] - left[c]) / nr
                if sl < 0.0:
                    sl = p * p
                    sr = q * q
                else:
                    sl += p * p
                    sr += q * q
            w = (nl * (1.0 - sl) + nr * (1.0 - sr)) / n
            if best_i < 0 or w < best_w:
                best_w = w
                best_i = i
    if best_i < 0:
        return None
    return (pairs[best_i][0] + pairs[best_i + 1][0]) / 2.0, best_w


class _SplitSearch:
    """Vectorised best-split search shared by classifier and regressor."""

    @staticmethod
    def best_classification_split(
        x_col: np.ndarray, y: np.ndarray, n_classes: int, criterion: str
    ) -> tuple[float, float] | None:
        """Best (threshold, impurity_decrease_proxy) for one feature.

        Returns ``None`` when the column is constant.  The returned score
        is the weighted child impurity (lower is better).

        Cumulative class counts are built as *integers* with a single
        segment ``bincount``, instead of materialising an
        ``n x n_classes`` float one-hot matrix per feature (the seed
        implementation, kept as
        :meth:`best_classification_split_onehot` for the regression
        gate and the training benchmark's legacy baseline): rows between
        consecutive candidate boundaries form a segment, one
        ``bincount`` of ``segment * n_classes + class`` counts every
        (segment, class) cell in one pass, and a short cumulative sum
        over the ``m + 1`` segments yields the left-counts at every
        candidate -- two O(n) passes total, none of them per-class and
        none of them float.

        The integer counts are exactly the values the one-hot cumsum
        produces, and every downstream operation runs in the same
        order, so the result is **bit-identical** to the one-hot path
        -- ``tests/ml/test_exact_splitter.py`` holds the two to
        equality over random datasets at tier 1.  (The sort here is the
        default introsort, not the reference's stable mergesort: equal
        feature values land in the same segment, so per-segment class
        counts -- and therefore thresholds and scores -- are invariant
        to tie order.)
        """
        order = np.argsort(x_col)
        xs = x_col[order]
        # Candidate split positions: between distinct consecutive values.
        distinct = np.nonzero(np.diff(xs) > _EPS)[0]
        if distinct.size == 0:
            return None
        n = xs.size
        m = distinct.size

        # Segment ids: 0..m, bumped at every candidate boundary.  One
        # bincount of seg*n_classes + y counts each (segment, class)
        # cell; the cumulative sum over segments gives
        # lc[i, c] = #{class c among the first distinct[i]+1 samples}
        # and its final row is the node's total class counts.
        seg = np.zeros(n, dtype=np.int64)
        seg[distinct + 1] = 1
        np.cumsum(seg, out=seg)
        seg *= n_classes
        seg += y[order]
        csc = np.cumsum(
            np.bincount(seg, minlength=(m + 1) * n_classes).reshape(
                m + 1, n_classes
            ),
            axis=0,
        )
        lc = csc[:-1]
        total = csc[-1]
        rc = total[None, :] - lc
        nl = lc.sum(axis=1)
        nr = rc.sum(axis=1)

        if criterion == "gini":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            il = 1.0 - np.sum(pl * pl, axis=1)
            ir = 1.0 - np.sum(pr * pr, axis=1)
        elif criterion == "entropy":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            with np.errstate(divide="ignore", invalid="ignore"):
                il = -np.sum(np.where(pl > 0, pl * np.log(pl), 0.0), axis=1)
                ir = -np.sum(np.where(pr > 0, pr * np.log(pr), 0.0), axis=1)
        else:
            raise ValueError(f"unknown criterion {criterion!r}")

        weighted = (nl * il + nr * ir) / n
        best = int(np.argmin(weighted))
        idx = distinct[best]
        threshold = (xs[idx] + xs[idx + 1]) / 2.0
        return float(threshold), float(weighted[best])

    @staticmethod
    def best_classification_split_multi(
        cols: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        criterion: str,
        nan_free: bool = False,
    ) -> list[tuple[float, float] | None]:
        """Per-column best splits for a ``(n, k)`` block of features.

        Returns one ``(threshold, score)`` (or ``None`` for a constant
        column) per column, **bit-identical** to calling
        :meth:`best_classification_split` column by column -- this is
        the entry the classifier growth loop uses, so one batched
        numpy-call sequence replaces ``max_features`` separate splitter
        invocations per node.  On a depth-capped tree almost every node
        is small, where the fixed interpreter cost of ~30 numpy calls
        dwarfs the arithmetic; batching the candidate features divides
        that fixed cost by ``k``.

        Identity argument: every per-column quantity is assembled from
        the same integer counts (segment ``bincount`` per column,
        stacked, with exact integer prefix subtraction to undo the
        shared cumulative sum), and all float scoring operations are
        elementwise or row-wise over the per-candidate axis -- numpy
        ufuncs are value-deterministic, so stacking candidates from
        several columns into one array cannot change any per-candidate
        result.  Argmin semantics (first strict minimum) are replicated
        per column.

        Small Gini nodes short-circuit to a pure-Python scan
        (:func:`_small_gini_split`): on a depth-capped tree the *count*
        of tiny nodes dwarfs everything else, and at ``n <= 128`` the
        fixed cost of ~35 numpy dispatches exceeds the arithmetic by an
        order of magnitude.  The scan is restricted to cases where
        Python-float evaluation provably reproduces the numpy result
        bit for bit (see its docstring) and falls through to the array
        path otherwise.
        """
        cols = np.asarray(cols)
        n, k = cols.shape
        if (
            n <= _SMALL_NODE_N
            and criterion == "gini"
            and n_classes < 8
            and (nan_free or not np.isnan(cols).any())
        ):
            y_l = y.tolist()
            return [
                _small_gini_split(col, y_l, n_classes)
                for col in cols.T.tolist()
            ]
        order = np.argsort(cols, axis=0)
        # Plain fancy indexing: identical gather to ``take_along_axis``
        # without its per-call index-grid construction overhead.
        xs = cols[order, np.arange(k)]
        d = (xs[1:] - xs[:-1]) > _EPS
        m = d.sum(axis=0)
        out: list[tuple[float, float] | None] = [None] * k
        if not m.any():
            return out

        # Per-row segment ids per column (0..m_j), offset so every
        # (column, segment) pair owns a distinct id, then one bincount
        # of id * n_classes + class counts every cell in a single pass.
        seg = np.zeros((n, k), dtype=np.int64)
        np.cumsum(d, axis=0, dtype=np.int64, out=seg[1:])
        segs_per_col = m + 1
        col_off = np.zeros(k, dtype=np.int64)
        np.cumsum(segs_per_col[:-1], out=col_off[1:])
        ts = int(col_off[-1] + segs_per_col[-1])
        addr = seg + col_off[None, :]
        addr *= n_classes
        addr += y[order]
        counts = np.bincount(
            addr.ravel(), minlength=ts * n_classes
        ).reshape(ts, n_classes)

        # One shared cumulative sum; subtracting each column's integer
        # prefix restores exactly the per-column cumulative counts.
        gcs = np.cumsum(counts, axis=0)
        last = col_off + m                       # each column's final segment
        prefix = np.zeros((k, n_classes), dtype=np.int64)
        prefix[1:] = gcs[col_off[1:] - 1]
        keep = np.ones(ts, dtype=bool)
        keep[last] = False
        lc = gcs[keep] - np.repeat(prefix, m, axis=0)
        tot = gcs[last] - prefix
        rc = np.repeat(tot, m, axis=0) - lc
        nl = lc.sum(axis=1)
        nr = rc.sum(axis=1)

        if criterion == "gini":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            il = 1.0 - np.sum(pl * pl, axis=1)
            ir = 1.0 - np.sum(pr * pr, axis=1)
        elif criterion == "entropy":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            with np.errstate(divide="ignore", invalid="ignore"):
                il = -np.sum(np.where(pl > 0, pl * np.log(pl), 0.0), axis=1)
                ir = -np.sum(np.where(pr > 0, pr * np.log(pr), 0.0), axis=1)
        else:
            raise ValueError(f"unknown criterion {criterion!r}")

        weighted = (nl * il + nr * ir) / n
        # Stacked candidate -> boundary-row map, column-major like the
        # stacked counts (nonzero of the transpose walks column 0's
        # boundaries in order, then column 1's, ...).
        pos = np.nonzero(d.T)[1]
        bounds_l = np.concatenate(([0], np.cumsum(m))).tolist()
        if weighted.size <= 4096:
            # Small candidate sets: scan plain Python floats; ``<``
            # keeps the first minimum exactly like np.argmin.
            w_l = weighted.tolist()
            pos_l = pos.tolist()
            for j in range(k):
                lo, hi = bounds_l[j], bounds_l[j + 1]
                if lo == hi:
                    continue
                best = lo
                bw = w_l[lo]
                for t in range(lo + 1, hi):
                    wt = w_l[t]
                    if wt < bw:
                        bw = wt
                        best = t
                idx = pos_l[best]
                out[j] = (float((xs[idx, j] + xs[idx + 1, j]) / 2.0), bw)
        else:
            for j in range(k):
                lo, hi = bounds_l[j], bounds_l[j + 1]
                if lo == hi:
                    continue
                best = lo + int(np.argmin(weighted[lo:hi]))
                idx = int(pos[best])
                out[j] = (
                    float((xs[idx, j] + xs[idx + 1, j]) / 2.0),
                    float(weighted[best]),
                )
        return out

    @staticmethod
    def best_classification_split_onehot(
        x_col: np.ndarray, y: np.ndarray, n_classes: int, criterion: str
    ) -> tuple[float, float] | None:
        """The seed implementation: dense one-hot + float ``cumsum``.

        Allocates an ``n x n_classes`` float matrix per candidate
        feature per node -- the hot-path cost the integer-count rewrite
        above removes.  Kept (not exported) as the bit-identity
        reference for ``tests/ml/test_exact_splitter.py`` and as the
        "legacy exact" baseline the training benchmark measures the
        satellite speedup against.
        """
        order = np.argsort(x_col, kind="mergesort")
        xs = x_col[order]
        ys = y[order]
        n = xs.size
        onehot = np.zeros((n, n_classes), dtype=float)
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        total = left_counts[-1]

        distinct = np.nonzero(np.diff(xs) > _EPS)[0]
        if distinct.size == 0:
            return None

        lc = left_counts[distinct]            # counts left of each candidate
        rc = total[None, :] - lc
        nl = lc.sum(axis=1)
        nr = rc.sum(axis=1)

        if criterion == "gini":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            il = 1.0 - np.sum(pl * pl, axis=1)
            ir = 1.0 - np.sum(pr * pr, axis=1)
        elif criterion == "entropy":
            pl = lc / np.maximum(nl[:, None], _EPS)
            pr = rc / np.maximum(nr[:, None], _EPS)
            with np.errstate(divide="ignore", invalid="ignore"):
                il = -np.sum(np.where(pl > 0, pl * np.log(pl), 0.0), axis=1)
                ir = -np.sum(np.where(pr > 0, pr * np.log(pr), 0.0), axis=1)
        else:
            raise ValueError(f"unknown criterion {criterion!r}")

        weighted = (nl * il + nr * ir) / n
        best = int(np.argmin(weighted))
        idx = distinct[best]
        threshold = (xs[idx] + xs[idx + 1]) / 2.0
        return float(threshold), float(weighted[best])

    @staticmethod
    def best_regression_split(x_col: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
        """Best (threshold, weighted child variance) for one feature."""
        order = np.argsort(x_col, kind="mergesort")
        xs = x_col[order]
        ys = y[order]
        n = xs.size
        distinct = np.nonzero(np.diff(xs) > _EPS)[0]
        if distinct.size == 0:
            return None

        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        nl = (distinct + 1).astype(float)
        nr = n - nl
        sum_l = csum[distinct]
        sum_r = csum[-1] - sum_l
        sum2_l = csum2[distinct]
        sum2_r = csum2[-1] - sum2_l
        var_l = np.maximum(sum2_l / nl - (sum_l / nl) ** 2, 0.0)
        var_r = np.maximum(sum2_r / nr - (sum_r / nr) ** 2, 0.0)
        weighted = (nl * var_l + nr * var_r) / n
        best = int(np.argmin(weighted))
        idx = distinct[best]
        threshold = (xs[idx] + xs[idx + 1]) / 2.0
        return float(threshold), float(weighted[best])


@dataclass
class _GrowthParams:
    max_depth: int | None
    min_samples_split: int
    min_samples_leaf: int
    min_impurity_decrease: float
    max_features: int | None
    rng: np.random.Generator | None
    #: Whole training matrix proven NaN-free at ``fit`` time.  Every
    #: node's column block is a subset of that matrix, so the per-call
    #: NaN screen in the batched splitter can be skipped for the whole
    #: growth (it would otherwise cost two numpy dispatches at each of
    #: the ~10k small nodes of a depth-capped tree).
    nan_free: bool = False


class DecisionTreeClassifier:
    """CART classifier.

    Parameters mirror the scikit-learn names so readers can orient
    themselves; ``max_features``/``rng`` enable the per-split feature
    subsampling used by :class:`repro.ml.forest.RandomForestClassifier`.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        criterion: str = "gini",
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
        splitter: str = "exact",
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.min_impurity_decrease = float(min_impurity_decrease)
        self.criterion = criterion
        self.max_features = max_features
        self.rng = rng
        self.splitter = _check_splitter(splitter)
        self.root_: TreeNode | None = None
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.flat_ = None  # NodeTable, compiled on first predict

    # -- fitting -----------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray,
            sample_indices: np.ndarray | None = None,
            n_classes: int | None = None,
            binned=None) -> "DecisionTreeClassifier":
        """Fit on ``x`` (n_samples, n_features) and integer labels ``y``.

        ``n_classes`` pins the tree's class space to an enclosing
        ensemble's (a bootstrap sample can miss the highest labels; the
        forest passes its own class count so every member tree carries
        full-width leaf count vectors).  Left ``None``, the class space
        is inferred from ``y`` as before.

        ``binned`` is a pre-built
        :class:`repro.ml.histsplit.BinnedDataset` over the *full* ``x``
        for the ``splitter="hist"`` engine -- the forest quantises once
        and shares it read-only across member trees (and fork-pool
        workers), so bootstrap resamples never re-bin the matrix.  Left
        ``None`` with ``splitter="hist"``, the tree bins ``x`` itself;
        ignored by the exact splitter.  Hist growth walks **index
        subsets** of the shared code matrix instead of copying
        ``x[mask]``/``y[mask]`` at every node.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        if np.any(y < 0):
            raise ValueError("labels must be non-negative integers")

        hist = self.splitter == "hist"
        if hist:
            idx = (
                np.arange(x.shape[0], dtype=np.intp)
                if sample_indices is None
                else np.asarray(sample_indices, dtype=np.intp)
            )
            y_sub = y[idx]
        elif sample_indices is not None:
            x = x[sample_indices]
            y = y[sample_indices]
            y_sub = y
        else:
            y_sub = y

        observed = int(y_sub.max()) + 1
        if n_classes is not None:
            if n_classes < observed:
                raise ValueError(
                    f"n_classes={n_classes} smaller than max label {observed - 1}"
                )
            self.n_classes_ = int(n_classes)
        else:
            self.n_classes_ = observed
        self.n_features_ = x.shape[1]
        # Leaf count vectors index by label (np.bincount with minlength
        # n_classes_), so column j of any output is class label j.
        self.classes_ = np.arange(self.n_classes_)
        self.flat_ = None
        self._importance_acc = np.zeros(self.n_features_)
        params = self._growth_params()
        if hist:
            from repro import obs
            from repro.ml.histsplit import BinnedDataset, HistClassifierGrower

            if binned is None:
                with obs.stage("tree.bin", rows=x.shape[0],
                               features=x.shape[1]):
                    binned = BinnedDataset.from_matrix(x)
            binned.check_matches(x)
            with obs.stage("tree.hist_split", rows=int(idx.size)):
                grower = HistClassifierGrower(
                    binned=binned,
                    y=y,
                    n_classes=self.n_classes_,
                    criterion=self.criterion,
                    params=params,
                    importance_acc=self._importance_acc,
                )
                self.root_ = grower.grow(idx)
        else:
            # One whole-matrix NaN screen lets every per-node splitter
            # call skip its own (see _GrowthParams.nan_free).
            params.nan_free = not bool(np.isnan(x).any())
            self.root_ = self._grow(x, y, depth=0, params=params)
        total = self._importance_acc.sum()
        self.feature_importances_ = (
            self._importance_acc / total if total > 0 else self._importance_acc
        )
        del self._importance_acc
        return self

    def compile_flat(self):
        """(Re)compile the one-root :class:`repro.ml.flat.NodeTable`.

        Runs on the first prediction after ``fit`` or deserialisation;
        call it again after manual ``root_`` surgery.  Forest member
        trees never compile their own table -- the forest compiles all
        of them into one.
        """
        from repro.ml.flat import compile_classifier

        root = self._check_fitted()
        self.flat_ = compile_classifier(
            [root], self.n_classes_, [self.classes_], n_features=self.n_features_
        )
        return self.flat_

    def _table(self):
        return self.flat_ if self.flat_ is not None else self.compile_flat()

    def _growth_params(self) -> _GrowthParams:
        max_features: int | None
        if self.max_features is None:
            max_features = None
        elif self.max_features == "sqrt":
            max_features = max(1, int(np.sqrt(self.n_features_)))
        elif isinstance(self.max_features, int):
            max_features = max(1, min(self.max_features, self.n_features_))
        else:
            raise ValueError(f"bad max_features {self.max_features!r}")
        rng = self.rng
        if max_features is not None and rng is None:
            rng = np.random.default_rng(0)
        return _GrowthParams(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=max_features,
            rng=rng,
        )

    def _impurity(self, counts: np.ndarray) -> float:
        return _gini(counts) if self.criterion == "gini" else _entropy(counts)

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int,
              params: _GrowthParams) -> TreeNode:
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        impurity = self._impurity(counts)
        node = TreeNode(value=counts, n_samples=y.size, impurity=impurity)

        if (
            impurity <= _EPS
            or y.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return node

        feature_ids = np.arange(self.n_features_)
        cols = x
        if params.max_features is not None and params.max_features < self.n_features_:
            assert params.rng is not None
            feature_ids = params.rng.choice(
                self.n_features_, size=params.max_features, replace=False
            )
            cols = x[:, feature_ids]

        # One batched splitter call scores every candidate feature;
        # per-column results (and hence the selection below) are
        # bit-identical to the former per-feature loop.
        best_feature = -1
        best_threshold = 0.0
        best_score = np.inf
        results = _SplitSearch.best_classification_split_multi(
            cols, y, self.n_classes_, self.criterion,
            nan_free=params.nan_free,
        )
        for j, found in zip(feature_ids.tolist(), results):
            if found is None:
                continue
            threshold, score = found
            if score < best_score - _EPS:
                best_feature, best_threshold, best_score = int(j), threshold, score

        if best_feature < 0:
            return node

        mask = x[:, best_feature] <= best_threshold
        n_left = int(mask.sum())
        n_right = y.size - n_left
        if n_left < params.min_samples_leaf or n_right < params.min_samples_leaf:
            return node

        decrease = impurity - best_score
        if decrease < params.min_impurity_decrease:
            return node

        self._importance_acc[best_feature] += y.size * decrease
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, params)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, params)
        return node

    # -- prediction --------------------------------------------------------

    def _check_fitted(self) -> TreeNode:
        if self.root_ is None:
            raise RuntimeError("tree is not fitted")
        return self.root_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-frequency probabilities of the reached leaf, per row."""
        self._check_fitted()
        return self._table().predict_value(x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Node-table leaf id per row."""
        self._check_fitted()
        return self._table().apply(x)[:, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.predict_proba(x), axis=1)

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        return self._check_fitted().depth()

    def n_leaves(self) -> int:
        return self._check_fitted().n_leaves()

    def decision_path(self, row: np.ndarray) -> list[tuple[int, float, bool]]:
        """The (feature, threshold, went_left) sequence for one sample
        (:meth:`repro.ml.flat.NodeTable.decision_path`)."""
        return self._table().decision_path(row)


class DecisionTreeRegressor:
    """CART regressor (variance reduction splits).

    Used by the regression baseline the paper tried first and rejected
    for the high-variance charge prices.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
        splitter: str = "exact",
    ):
        self.max_depth = max_depth
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self.rng = rng
        self.splitter = _check_splitter(splitter)
        self.root_: TreeNode | None = None
        self.n_features_: int = 0
        self.flat_ = None  # NodeTable, compiled on first predict

    def compile_flat(self):
        """(Re)compile the one-root :class:`repro.ml.flat.NodeTable`."""
        from repro.ml.flat import compile_regressor

        if self.root_ is None:
            raise RuntimeError("tree is not fitted")
        self.flat_ = compile_regressor([self.root_])
        return self.flat_

    def fit(self, x: np.ndarray, y: np.ndarray,
            sample_indices: np.ndarray | None = None,
            binned=None) -> "DecisionTreeRegressor":
        """Fit on ``x`` and float targets ``y``.

        ``sample_indices``/``binned`` mirror the classifier: with
        ``splitter="hist"`` the tree grows over index subsets of a
        shared :class:`repro.ml.histsplit.BinnedDataset` (built from
        the full ``x`` when not supplied); the exact splitter subsets
        the matrix as before.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("bad shapes for x/y")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        hist = self.splitter == "hist"
        if hist:
            idx = (
                np.arange(x.shape[0], dtype=np.intp)
                if sample_indices is None
                else np.asarray(sample_indices, dtype=np.intp)
            )
        elif sample_indices is not None:
            x = x[sample_indices]
            y = y[sample_indices]
        self.n_features_ = x.shape[1]
        max_features: int | None
        if self.max_features is None:
            max_features = None
        elif self.max_features == "sqrt":
            max_features = max(1, int(np.sqrt(self.n_features_)))
        else:
            max_features = max(1, min(int(self.max_features), self.n_features_))
        rng = self.rng
        if max_features is not None and rng is None:
            rng = np.random.default_rng(0)
        params = _GrowthParams(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=0.0,
            max_features=max_features,
            rng=rng,
        )
        if hist:
            from repro import obs
            from repro.ml.histsplit import BinnedDataset, HistRegressorGrower

            if binned is None:
                with obs.stage("tree.bin", rows=x.shape[0],
                               features=x.shape[1]):
                    binned = BinnedDataset.from_matrix(x)
            binned.check_matches(x)
            with obs.stage("tree.hist_split", rows=int(idx.size)):
                grower = HistRegressorGrower(
                    binned=binned, y=y, params=params,
                )
                self.root_ = grower.grow(idx)
        else:
            self.root_ = self._grow(x, y, 0, params)
        self.flat_ = None
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int,
              params: _GrowthParams) -> TreeNode:
        impurity = _variance(y)
        node = TreeNode(value=float(y.mean()), n_samples=y.size, impurity=impurity)
        if (
            impurity <= _EPS
            or y.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return node

        feature_ids = np.arange(self.n_features_)
        if params.max_features is not None and params.max_features < self.n_features_:
            assert params.rng is not None
            feature_ids = params.rng.choice(
                self.n_features_, size=params.max_features, replace=False
            )

        best_feature = -1
        best_threshold = 0.0
        best_score = np.inf
        for j in feature_ids:
            found = _SplitSearch.best_regression_split(x[:, j], y)
            if found is None:
                continue
            threshold, score = found
            if score < best_score - _EPS:
                best_feature, best_threshold, best_score = int(j), threshold, score

        if best_feature < 0 or best_score >= impurity - _EPS:
            return node

        mask = x[:, best_feature] <= best_threshold
        if mask.sum() < params.min_samples_leaf or (~mask).sum() < params.min_samples_leaf:
            return node

        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, params)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, params)
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise RuntimeError("tree is not fitted")
        table = self.flat_ if self.flat_ is not None else self.compile_flat()
        return table.predict_value(x)[:, 0]
