"""Classifiers over binary n-gram feature vectors, built from scratch.

Five algorithm families cover the comparison grid: ExtraTrees and
RandomForest ensembles (100 trees, gini impurity, sqrt-F feature
subsampling per node), Bernoulli naive Bayes with add-one smoothing, a
linear SVM trained by Pegasos-style stochastic subgradient descent, and
k-nearest-neighbours under Jaccard distance on feature index sets.
Each is one class, listed once in ``_LEARNERS``, that fits, scores
and saves itself.  ``merged_hyperparameters`` checks a learner's
hyperparameters against its ``defaults``, for ``train`` and
``load_model`` alike.  The algorithm names (``ALGORITHMS``) and
``Label`` are defined in ``datasetio``, which needs no numpy, so the
CLI can offer them without importing this module.

``predict_proba_batch`` is the one scorer.  It scores in chunks of
``SCORE_CHUNK_ROWS`` rows, so a learner's temporaries (naive Bayes's
float copy of the query, KNN's query x training-row distances) are
bounded by the chunk, not by the table.
Every learner scores each row on its own, so chunking changes no
score.  Naive Bayes and the SVM sum each row in a BLAS matrix-vector
product; the tests check those sums bit for bit against one
whole-matrix product at the chunk boundaries.

``featurize`` turns tokenized training comments into their vocabulary
and ``Dataset``, for ``train`` and for each training fold of
``evaluate`` alike, so ``evaluate`` measures the model ``train`` ships.

A labeled row has one form: a row of a ``Dataset``'s 0/1 matrix, which
``ngrams.term_matrix`` builds from tokens and ``feature_matrix`` from
``FeatureVector``s.  Rows enter a
``Dataset`` sorted by a content hash of each row, and every random
choice (bootstrap draws, feature subsets, SGD order) is made on that
order, so permuting the input rows cannot change a fitted model.  A
subset of sorted rows is still sorted, so inner CV folds are slices.

On 0/1 features the ExtraTrees "uniformly random threshold between
observed feature values" degenerates to the midpoint 0.5, which makes
the two forests differ only in bootstrapping.  Both grow and score on
column bitsets: each feature column and the positive labels are one
Python int whose bit i is row i, and a tree node's rows are one int
mask.  A split's counts are popcounts of ``mask & col`` and
``mask & ypos & col``, and its children are ``mask & col`` and
``mask & ~col``.  ExtraTrees builds the columns once for all its trees;
RandomForest builds them per tree over its bootstrap draws, one bit per
draw, so a row drawn twice counts twice.  Scoring builds the query
matrix's columns once, and each tree ORs its OnHold leaves' masks into
one int.

A node's sqrt-F feature subset is the one ``Generator.choice`` would
draw (Breiman 2001), but each tree makes the bounded draws of
Floyd's sampling algorithm (Bentley & Floyd 1987) for a block of
nodes in one ``integers`` call, and Floyd's rule is replayed over them
in numpy, for the first block of every tree of a forest at once, so
the trees equal per-node ``choice`` trees.  When every sampled feature
is constant at a node, the fallback scans only the features some row
of the node has, since no other one can split it.

``select_model`` runs its (candidate, inner fold) fits in up to one
forked worker process per usable CPU, and in this process when there
is one.  Each fit keeps its own seed and each candidate's scores are
averaged in fold order, so the choice and the refitted model equal a
serial run's.  Memory is about the workers times one fit.  Forking is
safe here: OpenBLAS stops its threads at fork, and ``tracker`` joins
its thread pool before ``fetch_many`` returns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from . import ngrams
from .datasetio import ALGORITHMS, Label
from .errors import ConfigError, DataFormatError, TrainingError, WorkerError
from .ngrams import FeatureVector, NGramVocabulary, format_vocabulary


def feature_matrix(vectors: Sequence[FeatureVector], n_features: int) -> np.ndarray:
    """0/1 matrix with one row per feature vector."""
    x = np.zeros((len(vectors), n_features), dtype=np.uint8)
    for i, indices in enumerate(vector.indices for vector in vectors):
        if indices and not 0 <= min(indices) <= max(indices) < n_features:
            raise ValueError(f"feature indices {list(indices)} outside 0..{n_features - 1}")
        x[i, list(indices)] = 1
    return x


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled rows in a fixed feature space, as read-only arrays.

    ``x`` (0/1 features) and ``y`` (1 = OnHold) hold the rows in
    canonical order; row j came from input position ``order[j]``.
    Build one with ``make_dataset`` and cut it with ``subset``.
    """

    x: np.ndarray
    y: np.ndarray
    order: np.ndarray = field(repr=False)
    provenance: str = ""

    def __post_init__(self) -> None:
        for array in (self.x, self.y, self.order):
            array.flags.writeable = False

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.y)

    @property
    def rows(self) -> tuple[tuple[FeatureVector, Label], ...]:
        """(vector, label) pairs in input order; SMOTE's rows come last."""
        return tuple(
            (FeatureVector(tuple(np.flatnonzero(self.x[j]).tolist())),
             Label.ON_HOLD if self.y[j] else Label.CROSS_REFERENCE)
            for j in np.argsort(self.order)
        )

    def class_counts(self) -> dict[Label, int]:
        on_hold = int(self.y.sum())
        return {Label.ON_HOLD: on_hold, Label.CROSS_REFERENCE: len(self) - on_hold}

    def subset(self, positions: Sequence[int]) -> "Dataset":
        """The rows at these canonical positions, with this dataset's input positions.

        A subset of sorted rows is still sorted, so nothing is hashed again.
        """
        kept = np.sort(np.asarray(positions, dtype=np.intp))
        return Dataset(self.x[kept], self.y[kept], self.order[kept], self.provenance)


def _canonical(x: np.ndarray, y: np.ndarray, provenance: str) -> Dataset:
    """Dataset of input-order rows sorted by blake2b over "i,j,...|y"."""

    def digest(i: int) -> bytes:
        text = ",".join(map(str, np.flatnonzero(x[i]).tolist())) + f"|{y[i]}"
        return hashlib.blake2b(text.encode("ascii"), digest_size=16).digest()

    order = np.array(sorted(range(len(y)), key=digest), dtype=np.intp)
    return Dataset(x[order], y[order], order, provenance)


def make_dataset(
    vectors: Sequence[FeatureVector] | np.ndarray,
    labels: Sequence[Label],
    n_features: int,
    provenance: str = "",
) -> Dataset:
    """The dataset of these rows, given as feature vectors or as a 0/1 matrix."""
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels differ in length")
    if isinstance(vectors, np.ndarray):
        if vectors.shape[1:] != (n_features,):
            raise ValueError(f"a {vectors.shape} matrix does not have {n_features} features")
        x = vectors
    else:
        x = feature_matrix(vectors, n_features)
    y = np.array([label is Label.ON_HOLD for label in labels], dtype=np.uint8)
    return _canonical(x, y, provenance)


def featurize(
    tokens: Sequence[Sequence[str]], labels: Sequence[Label], bow: bool = False
) -> tuple[NGramVocabulary, Dataset]:
    """The vocabulary of these training comments, and their dataset in it.

    The vocabulary is the n-gram terms of the OnHold comments, or with
    ``bow`` the unigrams of every comment.  Raises TrainingError when
    no term survives.
    """
    if bow:
        vocab = ngrams.build_bow_vocabulary(tokens)
    else:
        vocab = ngrams.extract_terms(
            [tok for tok, label in zip(tokens, labels) if label is Label.ON_HOLD]
        )
    if len(vocab) == 0:
        source = "comments" if bow else "OnHold comments"
        raise TrainingError(f"no vocabulary term survived extraction from the {source}")
    return vocab, make_dataset(ngrams.term_matrix(tokens, vocab), labels, len(vocab))


def vocabulary_digest(vocab: NGramVocabulary) -> str:
    return hashlib.blake2b(
        format_vocabulary(vocab).encode("utf-8"), digest_size=16
    ).hexdigest()


# --------------------------------------------------------------------------
# decision trees

_LEAF = -1


_BIT_WEIGHTS = (1 << np.arange(8)).astype(np.uint8)


def _column_bits(x: np.ndarray) -> list[int]:
    """One int per column of a 0/1 matrix; bit i of int j is x[i, j].

    Each group of 8 rows (zero-padded) packs into one byte per column as
    a weighted sum, so column j's bytes are row j of ``packed``.
    """
    n_rows, n_cols = x.shape
    groups = -(-n_rows // 8)
    padded = np.zeros((groups * 8, n_cols), dtype=np.uint8)
    padded[:n_rows] = x
    packed = np.einsum("gbf,b->fg", padded.reshape(groups, 8, n_cols), _BIT_WEIGHTS,
                       dtype=np.uint8)
    data = packed.tobytes()
    return [int.from_bytes(data[j * groups:(j + 1) * groups], "little") for j in range(n_cols)]


@dataclass
class _Tree:
    feature: list[int]
    left: list[int]
    right: list[int]
    value: list[float]

    def positive_rows(self, cols: list[int], rows: int) -> int:
        """Mask of the rows in ``rows`` whose leaf votes OnHold, given query columns."""
        positive = 0
        stack = [(0, rows)]
        while stack:
            node, mask = stack.pop()
            if not mask:
                continue
            f = self.feature[node]
            if f == _LEAF:
                # Leaf ties (value exactly 0.5) vote positive.
                if self.value[node] >= 0.5:
                    positive |= mask
            else:
                stack.append((self.right[node], mask & cols[f]))
                stack.append((self.left[node], mask & ~cols[f]))
        return positive


def _best_split(
    cols: list[int], mask: int, mask_pos: int, n: int, npos: int, feats: Sequence[int]
) -> int | None:
    """Feature among feats with the lowest weighted child gini, or None.

    The first strict minimum wins.  Other float operations, or another
    order of them, can flip near-ties and so change fitted models.
    """
    best, best_score = None, math.inf
    for f in feats:
        col = cols[f]
        n1 = (mask & col).bit_count()
        if n1 == 0 or n1 == n:
            continue
        p1 = (mask_pos & col).bit_count()
        n0 = n - n1
        p0 = npos - p1
        a, b = p1 / n1, (n1 - p1) / n1
        c, d = p0 / n0, (n0 - p0) / n0
        score = (n0 * (1.0 - c * c - d * d) + n1 * (1.0 - a * a - b * b)) / n
        if score < best_score:
            best, best_score = f, score
    return best


# Nodes whose feature subsets the first draw makes; later draws double
# it, up to 256.
_FIRST_BLOCK = 32


def _floyd_bounds(n_features: int, n_sample: int) -> np.ndarray:
    """The bounds h of the ``rng.integers(0, h)`` draws one ``choice`` call makes.

    For these sizes ``choice`` runs Floyd's algorithm, one bounded draw
    in [0, j] for each j from n_features - n_sample to n_features - 1,
    then shuffles its picks with one draw in [0, i] for each i from
    n_sample - 1 down to 1.
    """
    return np.array([*range(n_features - n_sample + 1, n_features + 1), *range(n_sample, 1, -1)])


def _floyd_subsets(draws: np.ndarray, n_features: int, n_sample: int) -> np.ndarray:
    """The sorted feature subset each row of draws (last axis) makes, in one pass.

    Floyd's rule, column by column over every row at once: the draw in
    [0, j] is taken unless an earlier column of its row took it, and
    then j, which none did, is taken.  The sort undoes the shuffle, so
    its draws are only consumed.
    """
    lo = n_features - n_sample
    picks = draws[..., :n_sample].copy()
    for c in range(1, n_sample):
        taken = (picks[..., :c] == picks[..., c, None]).any(axis=-1)
        picks[..., c] = np.where(taken, lo + c, picks[..., c])
    picks.sort(axis=-1)
    return picks


def _feature_subsets(
    rng: np.random.Generator, n_features: int, n_sample: int, first: np.ndarray | None = None
) -> Iterator[list[int]]:
    """``np.sort(rng.choice(n_features, n_sample, replace=False)).tolist()``, call after call.

    One ``integers`` call over a block of rows of ``_floyd_bounds``
    makes the draws of many ``choice`` calls.  ``first``, the first
    block's subsets, is given when the caller has drawn them from rng
    already.  Draws past the tree's last node are never used, so the
    caller must not use the generator afterwards.
    """
    bounds = _floyd_bounds(n_features, n_sample)
    block = _FIRST_BLOCK
    if first is None:
        first = _floyd_subsets(rng.integers(0, bounds, size=(block, len(bounds))),
                               n_features, n_sample)
    yield from first.tolist()
    while True:
        block = min(2 * block, 256)
        draws = rng.integers(0, bounds, size=(block, len(bounds)))
        yield from _floyd_subsets(draws, n_features, n_sample).tolist()


def _live_features(mask: int, bit_features: Sequence[Sequence[int]]) -> list[int]:
    """Sorted features present in some row of the mask; bit i's row has bit_features[i]."""
    live: set[int] = set()
    while mask:
        low = mask & -mask
        live.update(bit_features[low.bit_length() - 1])
        mask ^= low
    return sorted(live)


def _grow_tree(
    cols: list[int],
    ypos: int,
    n_rows: int,
    subsets: Iterator[list[int]],
    max_depth: int | None,
    bit_features: Sequence[Sequence[int]],
) -> _Tree:
    """Grow one tree over rows 0..n_rows-1 of the column bitsets cols.

    Each split node takes the next of ``subsets``, in node order.
    ``bit_features[i]`` lists the features of the row behind bit i.
    """
    tree = _Tree([], [], [], [])
    feature, left, right, value = tree.feature, tree.left, tree.right, tree.value
    # (row mask, depth, parent, is_right); parent -1 marks the root.
    stack: list[tuple[int, int, int, bool]] = [((1 << n_rows) - 1, 0, -1, False)]
    while stack:
        mask, depth, parent, is_right = stack.pop()
        n = mask.bit_count()
        mask_pos = mask & ypos
        npos = mask_pos.bit_count()
        node = len(feature)
        feature.append(_LEAF)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(npos / n)
        if parent >= 0:
            if is_right:
                right[parent] = node
            else:
                left[parent] = node
        if npos == 0 or npos == n or (max_depth is not None and depth >= max_depth):
            continue
        split = _best_split(cols, mask, mask_pos, n, npos, next(subsets))
        if split is None:
            # Sampled features were all constant here; scan the others
            # so a splittable node is not wasted.  A feature no row here
            # has is constant too, so only the live ones need scanning.
            split = _best_split(cols, mask, mask_pos, n, npos, _live_features(mask, bit_features))
        if split is None:
            continue
        feature[node] = split
        stack.append((mask & cols[split], depth + 1, node, True))
        stack.append((mask & ~cols[split], depth + 1, node, False))
    return tree


def _tree_fits(tree: dict[str, Any], n_features: int) -> bool:
    """Leaves have no children; a split's children come after it, so no path loops.

    Every node's value is an OnHold fraction in [0, 1].
    """
    columns = [tree[key] for key in ("feature", "left", "right", "value")]
    size = len(columns[0])
    if size == 0 or any(len(column) != size for column in columns):
        return False
    if not all(type(v) in (int, float) and 0 <= v <= 1 for v in columns[3]):
        return False
    for node, (f, lo, hi) in enumerate(zip(*columns[:3])):
        leaf = f == lo == hi == _LEAF
        split = 0 <= f < n_features and node < lo < size and node < hi < size
        if not (all(type(v) is int for v in (f, lo, hi)) and (leaf or split)):
            return False
    return True


# --------------------------------------------------------------------------
# the learners
#
# One class per algorithm holds its ``defaults``, the ``grid`` entries
# ``select_model`` searches, the classmethod ``fit(x, y, hp, seed)`` of
# hyperparameters that ``merged_hyperparameters`` has checked, ``predict_proba``
# of a 0/1 matrix, and ``state``/``from_state`` for the model file.
# ``from_state`` raises ValueError when a saved state does not fit
# ``n_features``.

@dataclass
class _ExtraTrees:
    """Trees grown on every row; ``_RandomForest`` grows each on a bootstrap draw."""

    trees: list[_Tree]

    defaults = {"n_trees": 100, "max_depth": None}
    grid = ({"n_trees": 100, "max_depth": None}, {"n_trees": 100, "max_depth": 10})
    bootstrap = False

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, hp: dict[str, Any], seed: int) -> "_ExtraTrees":
        n_rows, n_features = x.shape
        n_sample = max(1, math.isqrt(n_features))
        streams = np.random.SeedSequence(seed).spawn(hp["n_trees"])
        rngs = [np.random.default_rng(stream) for stream in streams]
        # Each tree's generator draws its bootstrap rows, then its
        # subset blocks, so every tree's first block can be drawn now
        # and Floyd's rule replayed over all of them in one pass.
        draws = [rng.integers(0, n_rows, size=n_rows) if cls.bootstrap else None for rng in rngs]
        bounds = _floyd_bounds(n_features, n_sample)
        firsts = _floyd_subsets(
            np.stack([rng.integers(0, bounds, size=(_FIRST_BLOCK, len(bounds))) for rng in rngs]),
            n_features, n_sample,
        )
        row_features = bit_features = [np.flatnonzero(row).tolist() for row in x]
        if not cls.bootstrap:
            # ExtraTrees grows every tree on all rows, so the columns are built once.
            cols, ypos = _column_bits(x), _column_bits(y[:, None])[0]
        trees = []
        for rng, rows, first in zip(rngs, draws, firsts):
            if cls.bootstrap:
                # Bit i stands for draw i, so a row drawn twice counts twice.
                cols, ypos = _column_bits(x[rows]), _column_bits(y[rows, None])[0]
                bit_features = [row_features[r] for r in rows.tolist()]
            subsets = _feature_subsets(rng, n_features, n_sample, first)
            trees.append(_grow_tree(cols, ypos, n_rows, subsets, hp["max_depth"], bit_features))
        return cls(trees)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        cols = _column_bits(x)
        every = (1 << n) - 1
        votes = np.zeros(n, dtype=np.float64)
        for tree in self.trees:
            positive = tree.positive_rows(cols, every)
            packed = np.frombuffer(positive.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
            votes += np.unpackbits(packed, count=n, bitorder="little")
        return votes / len(self.trees)

    def state(self) -> dict[str, Any]:
        return {
            "trees": [
                {"feature": t.feature, "left": t.left, "right": t.right, "value": t.value}
                for t in self.trees
            ]
        }

    @classmethod
    def from_state(cls, state: dict[str, Any], n_features: int) -> "_ExtraTrees":
        trees = state["trees"]
        if not (trees and all(_tree_fits(t, n_features) for t in trees)):
            raise ValueError(f"state does not fit a {n_features}-feature forest")
        return cls(
            [_Tree(t["feature"], t["left"], t["right"], [float(v) for v in t["value"]])
             for t in trees]
        )


class _RandomForest(_ExtraTrees):
    bootstrap = True


@dataclass
class _NaiveBayes:
    """Bernoulli naive Bayes with add-alpha smoothing."""

    log_prior: np.ndarray  # shape (2,), order [negative, positive]
    log_p1: np.ndarray     # shape (2, F)
    log_p0: np.ndarray

    defaults = {"alpha": 1.0}
    grid = ({"alpha": 1.0},)

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, hp: dict[str, Any], seed: int) -> "_NaiveBayes":
        alpha = hp["alpha"]
        n_features = x.shape[1]
        log_prior = np.zeros(2)
        log_p1 = np.zeros((2, n_features))
        log_p0 = np.zeros((2, n_features))
        for c in (0, 1):
            members = x[y == c]
            theta = (members.sum(axis=0) + alpha) / (len(members) + 2.0 * alpha)
            log_prior[c] = math.log(len(members) / len(x))
            log_p1[c] = np.log(theta)
            log_p0[c] = np.log(1.0 - theta)
        return cls(log_prior, log_p1, log_p0)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        # One float copy of the chunk serves both terms: the present
        # features' sums first, then, turned into 1 - x in place, the
        # absent ones'.  The products and their sum order are unchanged.
        xf = x.astype(np.float64)
        ones = [xf @ self.log_p1[c] for c in (0, 1)]
        np.subtract(1.0, xf, out=xf)
        joint = np.stack(
            [self.log_prior[c] + ones[c] + xf @ self.log_p0[c] for c in (0, 1)], axis=1
        )
        peak = joint.max(axis=1, keepdims=True)
        expd = np.exp(joint - peak)
        return expd[:, 1] / expd.sum(axis=1)

    def state(self) -> dict[str, Any]:
        return {
            "log_prior": self.log_prior.tolist(),
            "log_p1": self.log_p1.tolist(),
            "log_p0": self.log_p0.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any], n_features: int) -> "_NaiveBayes":
        shapes = {"log_prior": (2,), "log_p1": (2, n_features), "log_p0": (2, n_features)}
        arrays = [np.array(state[key], dtype=np.float64) for key in shapes]
        # numpy reads a JSON null as NaN, which would score every row NaN.
        if [a.shape for a in arrays] != list(shapes.values()) or not all(
            np.isfinite(a).all() for a in arrays
        ):
            raise ValueError(f"state does not fit a {n_features}-feature naive Bayes model")
        return cls(*arrays)


@dataclass
class _LinearSVM:
    """Linear SVM trained by Pegasos-style stochastic subgradient descent."""

    weights: np.ndarray  # length F + 1; last entry is the bias weight

    defaults = {"lam": 1e-2, "epochs": 30}
    grid = ({"lam": 1e-2, "epochs": 30}, {"lam": 1e-4, "epochs": 30})

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, hp: dict[str, Any], seed: int) -> "_LinearSVM":
        lam, epochs = hp["lam"], hp["epochs"]
        n_rows = x.shape[0]
        xa = np.empty((n_rows, x.shape[1] + 1))
        xa[:, :-1] = x
        xa[:, -1] = 1.0
        yv = np.where(y == 1, 1.0, -1.0)
        w = np.zeros(xa.shape[1])
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n_rows):
                t += 1
                eta = 1.0 / (lam * t)
                margin = yv[i] * (w @ xa[i])
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * yv[i] * xa[i]
        return cls(w)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        margin = x.astype(np.float64) @ self.weights[:-1] + self.weights[-1]
        return 1.0 / (1.0 + np.exp(-np.clip(margin, -500.0, 500.0)))

    def state(self) -> dict[str, Any]:
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_state(cls, state: dict[str, Any], n_features: int) -> "_LinearSVM":
        weights = np.array(state["weights"], dtype=np.float64)
        if weights.shape != (n_features + 1,) or not np.isfinite(weights).all():
            raise ValueError(f"state does not fit a {n_features}-feature linear SVM")
        return cls(weights)


@dataclass
class _KNN:
    """k nearest neighbours under Jaccard distance; the training rows are the model."""

    x: np.ndarray
    y: np.ndarray
    k: int

    defaults = {"k": 5}
    grid = ({"k": 1}, {"k": 5})

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, hp: dict[str, Any], seed: int) -> "_KNN":
        return cls(x, y, hp["k"])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        # A float32 BLAS product counts exactly while counts stay below
        # 2**24, and no intersection exceeds the feature count.
        if self.x.shape[1] >= 1 << 24:
            raise ValueError("KNN cannot count intersections of 2**24 or more features exactly")
        inter = (x.astype(np.float32) @ self.x.astype(np.float32).T).astype(np.int64)
        sizes_q = x.sum(axis=1, dtype=np.int64)[:, None]
        sizes_t = self.x.sum(axis=1, dtype=np.int64)[None, :]
        union = sizes_q + sizes_t - inter
        similarity = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        distance = 1.0 - similarity
        k = min(self.k, self.x.shape[0])
        # Stable sort breaks distance ties by canonical training order.
        neighbours = np.argsort(distance, axis=1, kind="stable")[:, :k]
        return self.y[neighbours].mean(axis=1)

    def state(self) -> dict[str, Any]:
        return {
            "rows": [np.flatnonzero(row).tolist() for row in self.x],
            "labels": self.y.tolist(),
            "k": self.k,
            "n_features": int(self.x.shape[1]),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any], n_features: int) -> "_KNN":
        rows, labels = state["rows"], state["labels"]
        if not (
            all(type(i) is int for row in rows for i in row)
            and len(labels) == len(rows)
            and set(labels) <= {0, 1}
            and int(state["k"]) >= 1
            and int(state["n_features"]) == n_features
        ):
            raise ValueError(f"state does not fit a {n_features}-feature KNN model")
        x = feature_matrix([FeatureVector(tuple(row)) for row in rows], n_features)
        return cls(x, np.array(labels, dtype=np.uint8), int(state["k"]))


_LEARNERS: dict[str, Any] = dict(
    zip(ALGORITHMS, (_ExtraTrees, _RandomForest, _NaiveBayes, _LinearSVM, _KNN), strict=True)
)

# Candidate grid for select_model: one entry per algorithm/setting the
# comparison tables report, searched by inner cross-validation.
DEFAULT_GRID: tuple[tuple[str, dict[str, Any]], ...] = tuple(
    (name, hp) for name, learner in _LEARNERS.items() for hp in learner.grid
)

# Each value takes its default's type and is positive.  An int may stand
# for a float, and a None default (no depth bound) also takes an int.
_HP_RULES = {
    int: ((int,), ">= 1 (an int)"),
    float: ((int, float), "> 0 (a finite int or float)"),
    type(None): ((type(None), int), "None or >= 1 (an int)"),
}


def merged_hyperparameters(algorithm: str, given: dict, complete: bool = False) -> dict[str, Any]:
    """The algorithm's defaults updated by ``given``; ConfigError unless each value fits.

    ``given`` holds only the defaults' keys, and all of them when
    ``complete``, as ``save_model`` writes them.  A bool is no int.
    """
    defaults = _LEARNERS[algorithm].defaults
    if not given.keys() <= defaults.keys() or complete and len(given) < len(defaults):
        raise ConfigError(
            f"bad hyperparameters for {algorithm}: got keys {list(given)}, known {list(defaults)}"
        )
    hp = {**defaults, **given}
    for key, value in hp.items():
        types, rule = _HP_RULES[type(defaults[key])]
        if type(value) not in types or value is not None and not 0 < value < math.inf:
            raise ConfigError(
                f"bad hyperparameters for {algorithm}: {key} must be {rule}, got {value!r}"
            )
    return hp


# --------------------------------------------------------------------------
# public API

@dataclass(eq=False)
class TrainedModel:
    algorithm: str
    hyperparameters: dict[str, Any]
    n_features: int
    decision_threshold: float
    seed: int
    vocabulary_hash: str | None
    _impl: Any = field(repr=False)
    # select_model's ranking of the grid; never saved.
    inner_cv: tuple["CandidateScore", ...] = field(default=(), repr=False)

    def label(self, score: float) -> Label:
        """OnHold iff the score reaches the threshold; ties classify positive."""
        return Label.ON_HOLD if score >= self.decision_threshold else Label.CROSS_REFERENCE


def train(
    dataset: Dataset,
    algorithm: str,
    hyperparameters: dict[str, Any] | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Fit one classifier on the dataset.

    Raises TrainingError when a class is absent and ConfigError for an
    unknown algorithm or hyperparameters ``merged_hyperparameters`` refuses.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    counts = dataset.class_counts()
    if min(counts.values()) == 0:
        raise TrainingError(
            "training needs both classes; got "
            f"{counts[Label.ON_HOLD]} OnHold / {counts[Label.CROSS_REFERENCE]} CrossReference"
        )
    hp = merged_hyperparameters(algorithm, hyperparameters or {})
    return TrainedModel(
        algorithm=algorithm,
        hyperparameters=hp,
        n_features=dataset.n_features,
        decision_threshold=0.5,
        seed=seed,
        vocabulary_hash=None,
        _impl=_LEARNERS[algorithm].fit(dataset.x, dataset.y, hp, seed),
    )


# Rows per call to a learner's predict_proba: bounds the scoring temporaries.
SCORE_CHUNK_ROWS = 1024


def score_chunks(n_rows: int) -> list[tuple[int, int]]:
    """The (start, end) row bounds of the chunks ``predict_proba_batch`` scores.

    Each chunk holds SCORE_CHUNK_ROWS rows.  numpy multiplies a one-row
    matrix by a vector with a dot product, whose sum can differ in the
    last bit from the same row's in a matrix-vector product, so a lone
    last row joins the chunk before it.  No rows are one empty chunk.
    """
    ends = [*range(SCORE_CHUNK_ROWS, n_rows - 1, SCORE_CHUNK_ROWS), n_rows]
    return list(zip([0, *ends], ends))


def predict_proba_batch(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Scores in [0, 1] of the rows of a 0/1 matrix with the model's feature count.

    For the forests a score is the fraction of trees voting OnHold.
    The rows are scored a ``score_chunks`` chunk at a time, so a caller
    that passes one chunk at a time gets the same scores.
    """
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"a {model.n_features}-feature model cannot score a {x.shape} matrix")
    return np.concatenate(
        [model._impl.predict_proba(x[start:end]) for start, end in score_chunks(len(x))]
    )


SMOTE_NEIGHBOURS = 5


def smote_oversample(dataset: Dataset, seed: int = 0) -> Dataset:
    """Synthesize minority rows until the classes balance exactly.

    Each synthetic row lies on the segment between a minority row and
    one of its SMOTE_NEIGHBOURS nearest minority neighbours (Euclidean
    on the dense 0/1 coordinates), re-binarized at 0.5.
    """
    on_hold = int(dataset.y.sum())
    minority_y = int(2 * on_hold < len(dataset))  # CrossReference on a tie
    m = on_hold if minority_y else len(dataset) - on_hold
    if m < 2:
        raise TrainingError(f"SMOTE needs at least 2 minority rows, got {m}")
    need = len(dataset) - 2 * m
    if need == 0:
        return dataset

    # Minority rows in canonical order, so the input row order cannot
    # change the synthetic rows.
    dense = dataset.x[dataset.y == minority_y].astype(np.float64)
    # Hamming distance of 0/1 rows is |a| + |b| - 2 a.b; the float64
    # products are exact integers.
    sizes = dense.sum(axis=1)
    hamming = (sizes[:, None] + sizes[None, :] - 2.0 * (dense @ dense.T)).astype(np.int64)
    np.fill_diagonal(hamming, np.iinfo(np.int64).max)
    k_eff = min(SMOTE_NEIGHBOURS, m - 1)
    neighbour_table = np.argsort(hamming, axis=1, kind="stable")[:, :k_eff]

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    synthetic = np.empty((need, dataset.n_features), dtype=np.uint8)
    for s in range(need):
        parent = int(rng.integers(m))
        neighbour = int(neighbour_table[parent][int(rng.integers(k_eff))])
        gap = rng.random()
        point = dense[parent] + gap * (dense[neighbour] - dense[parent])
        synthetic[s] = point >= 0.5

    # The input rows in input order, then the synthetic ones.
    inputs = np.argsort(dataset.order)
    x = np.vstack([dataset.x[inputs], synthetic])
    y = np.concatenate([dataset.y[inputs], np.full(need, minority_y, dtype=np.uint8)])
    provenance = f"{dataset.provenance}+smote" if dataset.provenance else "smote"
    return _canonical(x, y, provenance)


@dataclass(frozen=True)
class CandidateScore:
    """One grid candidate's inner-CV means, as ``select_model`` ranked it.

    ``mean_fit_s``, the mean wall time of its inner fits, varies from
    run to run, so two rankings compare equal without it.
    """

    algorithm: str
    hyperparameters: dict[str, Any]
    mean_f1: float
    mean_auc: float
    chosen: bool
    mean_fit_s: float = field(compare=False)


def _score_job(cv: tuple, job: tuple[int, int]) -> tuple[float, ...]:
    """Precision, recall, F1, AUC and fit seconds of grid candidate c on inner split f.

    ``cv`` is (grid, inner splits, seed) and ``job`` is (c, f).
    """
    from . import evalstats

    grid, splits, seed = cv
    c, f = job
    inner, held_out = splits[f]
    start = time.perf_counter()
    model = train(inner, *grid[c], seed=seed)
    fit_s = time.perf_counter() - start
    return (*evalstats.score_model(model, held_out), fit_s)


# A forked worker's inner CV, set once by its pool initializer.  Fork
# copies it in, so a job crosses to a worker as two ints and comes back
# as five floats.
_worker_cv: tuple = ()


def _adopt(cv: tuple, parent: int) -> None:
    """Pool initializer: keep the inner CV, and exit once the parent is gone."""
    global _worker_cv
    _worker_cv = cv
    threading.Thread(target=_exit_without, args=(parent,), daemon=True).start()


def _exit_without(parent: int) -> None:
    # A parent killed by a signal never stops its workers, and each
    # would wait for its next job forever.
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _worker_job(job: tuple[int, int]) -> tuple[float, ...]:
    return _score_job(_worker_cv, job)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS cannot say, as on macOS."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_jobs(cv: tuple, jobs: list[tuple[int, int]]) -> list[tuple[float, ...]]:
    """``_score_job`` of every job, in job order.

    With more than one usable CPU the jobs run in forked workers, one
    per CPU at most, and every worker is joined before this returns.
    An exception in a job re-raises as itself.  A worker that dies
    raises WorkerError naming the first job whose scores were lost.
    """
    import multiprocessing

    workers = min(_usable_cpus(), len(jobs))
    # A daemonic process, such as a multiprocessing.Pool worker, may not start processes.
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [_score_job(cv, job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    scores = []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(cv, os.getpid())) as pool:
        try:
            for score in pool.map(_worker_job, jobs):
                scores.append(score)
        except BrokenProcessPool as exc:
            c, f = jobs[len(scores)]
            algorithm, hp = cv[0][c]
            raise WorkerError(
                f"inner CV lost {algorithm} {json.dumps(hp, sort_keys=True)} on inner fold "
                f"{f + 1}: a worker process died (killed for lack of memory?)"
            ) from exc
    return scores


def select_model(
    train_fold: Dataset,
    candidate_grid: Sequence[tuple[str, dict[str, Any]]] | None = None,
    inner_k: int = 3,
    seed: int = 0,
) -> TrainedModel:
    """Pick the grid candidate with the best inner-CV mean F1.

    Inner cross-validation runs on the training fold only.  Ties go to
    the higher mean AUC, then to the earlier grid position.  The winner
    is refitted on the whole training fold, and its ``inner_cv`` lists
    every candidate's means.  Inner test folds that end up single-class
    contribute a neutral AUC of 0.5; inner training folds that do are
    skipped.  A one-candidate grid is fitted without inner CV.  The
    inner fits run in worker processes (see the module docstring).
    """
    from . import evalstats  # runtime import; evalstats imports this module

    grid = tuple(candidate_grid) if candidate_grid is not None else DEFAULT_GRID
    if not grid:
        raise ConfigError("empty candidate grid")

    # Folds over canonical positions, so the input row order cannot
    # change the inner splits and hence the chosen candidate.
    n = len(train_fold)
    folds = evalstats.kfold_split(range(n), k=min(inner_k, n), seed=seed)
    if len(grid) == 1:
        return train(train_fold, *grid[0], seed=seed)
    splits = []
    for fold in folds:
        inner = train_fold.subset(np.setdiff1d(np.arange(n), fold))
        if min(inner.class_counts().values()) == 0:
            continue
        splits.append((inner, train_fold.subset(fold)))
    if not splits:
        return train(train_fold, *grid[0], seed=seed)

    k = len(splits)
    scores = _run_jobs((grid, splits, seed), [(c, f) for c in range(len(grid)) for f in range(k)])
    means, fit_s = [], []
    for c in range(len(grid)):
        per_fold = scores[c * k:(c + 1) * k]
        means.append((sum(s[2] for s in per_fold) / k, sum(s[3] for s in per_fold) / k))
        fit_s.append(sum(s[4] for s in per_fold) / k)
    # max keeps the first of equal keys, so ties go to the earlier grid position.
    best = max(range(len(grid)), key=means.__getitem__)
    model = train(train_fold, *grid[best], seed=seed)
    model.inner_cv = tuple(
        CandidateScore(*candidate, *mean, c == best, seconds)
        for c, (candidate, mean, seconds) in enumerate(zip(grid, means, fit_s))
    )
    return model


def fit(dataset: Dataset, algorithm: str, smote: bool = False, seed: int = 0) -> TrainedModel:
    """Train one algorithm, or select one by inner CV for "auto"; SMOTE first if asked."""
    if smote:
        dataset = smote_oversample(dataset, seed=seed)
    if algorithm == "auto":
        return select_model(dataset, seed=seed)
    return train(dataset, algorithm, seed=seed)


# --------------------------------------------------------------------------
# model persistence

_MODEL_FORMAT = "onhold-model"
# The JSON types of a model file's header fields, compared exactly (a bool is no int).
_HEADER_TYPES = {
    "version": (int,),
    "n_features": (int,),
    "seed": (int,),
    "decision_threshold": (int, float),
    "hyperparameters": (dict,),
    "vocabulary_hash": (str, type(None)),
}


def save_model(model: TrainedModel, path: str | Path) -> None:
    payload = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "algorithm": model.algorithm,
        "hyperparameters": model.hyperparameters,
        "n_features": model.n_features,
        "decision_threshold": model.decision_threshold,
        "seed": model.seed,
        "vocabulary_hash": model.vocabulary_hash,
        "state": model._impl.state(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; DataFormatError names the file when it is malformed."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataFormatError(f"{path}: not a JSON model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model file")
    for name, types in _HEADER_TYPES.items():
        if name in payload and type(payload[name]) not in types:
            raise DataFormatError(f"{path}: {name} has the wrong JSON type: {payload[name]!r}")
    if payload.get("version") != 1:
        raise DataFormatError(f"{path}: unsupported model version {payload.get('version')!r}")
    algorithm = payload.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"{path}: unknown algorithm {algorithm!r}")
    try:
        n_features = payload["n_features"]
        threshold = float(payload["decision_threshold"])
        # A NaN or out-of-range threshold would label every row alike.
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"decision_threshold {threshold!r} is not in [0, 1]")
        return TrainedModel(
            algorithm=algorithm,
            hyperparameters=merged_hyperparameters(
                algorithm, payload["hyperparameters"], complete=True
            ),
            n_features=n_features,
            decision_threshold=threshold,
            seed=payload["seed"],
            vocabulary_hash=payload.get("vocabulary_hash"),
            _impl=_LEARNERS[algorithm].from_state(payload["state"], n_features),
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: model file lacks {exc}") from exc
    # A KNN state's dense rows take rows x n_features bytes, so a file
    # claiming billions of features fails to allocate them.
    except (ConfigError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc
