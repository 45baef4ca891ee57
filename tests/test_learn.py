"""Oracle and property tests for the classifiers and SMOTE.

The naive Bayes posteriors were computed by hand with Laplace
smoothing; the XOR cases exploit that no linear separator gets all
four corners right while a depth-2 tree does.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onhold import learn, textprep
from onhold.errors import ConfigError, DataFormatError, TrainingError, WorkerError
from onhold.evalstats import kfold_split
from onhold.issues import derive_patterns
from onhold.learn import (
    ALGORITHMS,
    DEFAULT_GRID,
    SCORE_CHUNK_ROWS,
    SMOTE_NEIGHBOURS,
    Label,
    feature_matrix,
    featurize,
    load_model,
    make_dataset,
    predict_proba_batch,
    save_model,
    select_model,
    smote_oversample,
    train,
    vocabulary_digest,
)
from onhold.learn import _best_split, _column_bits, _feature_subsets, _live_features
from onhold.ngrams import FeatureVector, build_bow_vocabulary, extract_terms, vectorize

from corpus import generate_corpus


def fv(*indices: int) -> FeatureVector:
    return FeatureVector(tuple(indices))


def score(model, vector: FeatureVector) -> float:
    """The model's score of one row, through the batch scorer."""
    return float(predict_proba_batch(model, feature_matrix([vector], model.n_features))[0])


ON = Label.ON_HOLD
CROSS = Label.CROSS_REFERENCE


def _row_digest(vector: FeatureVector, label: Label) -> bytes:
    """Reference canonical key: blake2b over "i,j,...|1" (OnHold) or "|0"."""
    h = hashlib.blake2b(digest_size=16)
    h.update(",".join(map(str, vector.indices)).encode("ascii"))
    h.update(b"|1" if label is Label.ON_HOLD else b"|0")
    return h.digest()


def reference_arrays(pairs, n_features):
    """(x, y) of (FeatureVector, Label) pairs sorted by digest, densified one by one."""
    x, y = [], []
    for vector, label in sorted(pairs, key=lambda pair: _row_digest(*pair)):
        x.append([int(j in vector.indices) for j in range(n_features)])
        y.append(int(label is Label.ON_HOLD))
    return x, y


N_FEATURES = 6

labeled_rows = st.lists(
    st.tuples(
        st.sets(st.integers(0, N_FEATURES - 1)).map(lambda s: FeatureVector(tuple(sorted(s)))),
        st.sampled_from([Label.ON_HOLD, Label.CROSS_REFERENCE]),
    ),
    max_size=30,
)


def dataset_from(pairs, n_features):
    vectors = [fv(*idx) for idx, _ in pairs]
    labels = [label for _, label in pairs]
    return make_dataset(vectors, labels, n_features)


# Separable toy problem: feature 0 marks OnHold, feature 1 CrossReference.
SEPARABLE = dataset_from(
    [((0,), ON)] * 6 + [((1,), CROSS)] * 6,
    n_features=2,
)

XOR = dataset_from(
    [((), CROSS), ((0,), ON), ((1,), ON), ((0, 1), CROSS)] * 3,
    n_features=2,
)


class TestLabel:
    def test_parse_synonyms(self):
        assert Label.parse("OnHold") is ON
        assert Label.parse("on-hold") is ON
        assert Label.parse("ON_HOLD") is ON
        assert Label.parse("1") is ON
        assert Label.parse("positive") is ON
        assert Label.parse("CrossReference") is CROSS
        assert Label.parse("cross-reference") is CROSS
        assert Label.parse("0") is CROSS

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Label.parse("maybe")


class TestDataset:
    def test_class_counts(self):
        counts = SEPARABLE.class_counts()
        assert counts == {ON: 6, CROSS: 6}

    def test_feature_index_outside_space_is_rejected(self):
        with pytest.raises(ValueError):
            dataset_from([((5,), ON)], n_features=3)

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([fv(0)], [], n_features=1)

    @given(labeled_rows)
    def test_arrays_are_the_digest_sorted_rows(self, pairs):
        ds = make_dataset([v for v, _ in pairs], [label for _, label in pairs], N_FEATURES)
        x, y = reference_arrays(pairs, N_FEATURES)
        assert ds.x.tolist() == x
        assert ds.y.tolist() == y
        assert ds.rows == tuple(pairs)

    @given(labeled_rows, st.data())
    def test_a_positional_slice_is_the_dataset_of_its_rows(self, pairs, data):
        ds = make_dataset([v for v, _ in pairs], [label for _, label in pairs], N_FEATURES)
        positions = data.draw(st.sets(st.integers(0, max(len(ds) - 1, 0))))
        positions = sorted(p for p in positions if p < len(ds))
        kept = [pairs[ds.order[p]] for p in sorted(positions, key=lambda p: ds.order[p])]
        rebuilt = make_dataset([v for v, _ in kept], [label for _, label in kept], N_FEATURES)
        sliced = ds.subset(positions[::-1])
        assert sliced.x.tolist() == rebuilt.x.tolist()
        assert sliced.y.tolist() == rebuilt.y.tolist()
        assert sliced.rows == tuple(kept)

    def test_arrays_are_read_only(self):
        for array in (SEPARABLE.x, SEPARABLE.y, SEPARABLE.order, SEPARABLE.subset([0, 3]).x):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_to_arrays_layout(self):
        ds = dataset_from([((0, 2), ON), ((), CROSS)], n_features=3)
        rows = {(1, 0, 1, 1), (0, 0, 0, 0)}
        assert {(*r, label) for r, label in zip(ds.x.tolist(), ds.y.tolist())} == rows
        reversed_ds = dataset_from(
            [(v.indices, label) for v, label in reversed(ds.rows)], ds.n_features
        )
        assert reversed_ds.x.tolist() == ds.x.tolist()
        assert reversed_ds.y.tolist() == ds.y.tolist()


class TestNaiveBayesOracle:
    def test_hand_computed_posterior(self):
        # theta(+) = (2 + 1) / (2 + 2) = 3/4, theta(-) = 1/4, priors equal:
        # posterior for x=[1] is 0.75, for x=[0] is 0.25.
        ds = dataset_from([((0,), ON), ((0,), ON), ((), CROSS), ((), CROSS)], 1)
        model = train(ds, "NaiveBayes")
        assert score(model, fv(0)) == pytest.approx(0.75)
        assert score(model, fv()) == pytest.approx(0.25)

    def test_symmetric_case_ties_positive(self):
        # One OnHold row [1,0] and one CrossReference row [0,1]: the probe
        # [1,1] is exactly symmetric, so the posterior is 0.5 and the
        # tie-positive rule classifies OnHold.
        ds = dataset_from([((0,), ON), ((1,), CROSS)], 2)
        model = train(ds, "NaiveBayes")
        assert score(model, fv(0, 1)) == pytest.approx(0.5)
        assert model.label(score(model, fv(0, 1))) is ON


class TestExpressiveness:
    def test_trees_fit_xor_but_a_linear_model_cannot(self):
        probes = [fv(), fv(0), fv(1), fv(0, 1)]
        truth = [CROSS, ON, ON, CROSS]

        tree_model = train(XOR, "ExtraTrees", {"n_trees": 50})
        tree_preds = [tree_model.label(score(tree_model, v)) for v in probes]
        assert tree_preds == truth

        svm_model = train(XOR, "LinearSVM")
        svm_hits = sum(
            svm_model.label(score(svm_model, v)) is t for v, t in zip(probes, truth)
        )
        assert svm_hits <= 3

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_fits_the_separable_problem(self, algorithm):
        model = train(SEPARABLE, algorithm)
        assert model.label(score(model, fv(0))) is ON
        assert model.label(score(model, fv(1))) is CROSS

    def test_knn_votes_average_the_neighbourhood(self):
        ds = dataset_from([((0,), ON), ((1,), CROSS)], 2)
        model = train(ds, "KNN", {"k": 1})
        assert score(model, fv(0)) == 1.0
        model2 = train(ds, "KNN", {"k": 2})
        assert score(model2, fv(0)) == pytest.approx(0.5)


class TestTrainValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            train(SEPARABLE, "GradientBoost")

    def test_single_class_dataset(self):
        ds = dataset_from([((0,), ON), ((1,), ON)], 2)
        with pytest.raises(TrainingError):
            train(ds, "NaiveBayes")

    @pytest.mark.parametrize(
        "algorithm,hp",
        [
            ("ExtraTrees", {"n_trees": 0}),
            ("RandomForest", {"max_depth": 0}),
            ("NaiveBayes", {"alpha": 0.0}),
            ("LinearSVM", {"lam": -1.0}),
            ("LinearSVM", {"epochs": 0}),
            ("KNN", {"k": 0}),
        ],
    )
    def test_out_of_range_hyperparameters(self, algorithm, hp):
        with pytest.raises(ConfigError):
            train(SEPARABLE, algorithm, hp)

    def test_prediction_outside_feature_space_is_rejected(self):
        model = train(SEPARABLE, "NaiveBayes")
        with pytest.raises(ValueError):
            predict_proba_batch(model, feature_matrix([fv(2)], 3))


class TestDeterminism:
    PROBES = feature_matrix([fv(), fv(0), fv(1), fv(0, 1)], 2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_same_seed_same_predictions(self, algorithm):
        a = train(XOR, algorithm, seed=7)
        b = train(XOR, algorithm, seed=7)
        assert predict_proba_batch(a, self.PROBES).tolist() == (
            predict_proba_batch(b, self.PROBES).tolist()
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_row_order_does_not_matter(self, algorithm):
        shuffled = dataset_from(
            [(v.indices, label) for v, label in reversed(XOR.rows)], XOR.n_features
        )
        a = train(XOR, algorithm, seed=3)
        b = train(shuffled, algorithm, seed=3)
        assert predict_proba_batch(a, self.PROBES).tolist() == (
            predict_proba_batch(b, self.PROBES).tolist()
        )


class TestPersistence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=20, deadline=None)
    @given(pairs=labeled_rows, probes=st.lists(st.sets(st.integers(0, N_FEATURES - 1))))
    def test_saved_model_scores_like_the_fitted_one(
        self, algorithm, pairs, probes, tmp_path_factory
    ):
        labels = [label for _, label in pairs]
        assume(len(set(labels)) == 2)
        ds = make_dataset([v for v, _ in pairs], labels, N_FEATURES)
        forest = algorithm in ("ExtraTrees", "RandomForest")
        model = train(ds, algorithm, {"n_trees": 5} if forest else None, seed=11)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        x = feature_matrix([FeatureVector(tuple(sorted(p))) for p in probes], N_FEATURES)
        assert predict_proba_batch(load_model(path), x).tolist() == (
            predict_proba_batch(model, x).tolist()
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_preserves_predictions(self, algorithm, tmp_path):
        model = train(XOR, algorithm, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probes = feature_matrix([fv(), fv(0), fv(1), fv(0, 1)], 2)
        assert predict_proba_batch(loaded, probes).tolist() == (
            predict_proba_batch(model, probes).tolist()
        )
        assert loaded.algorithm == model.algorithm
        assert loaded.hyperparameters == model.hyperparameters
        assert loaded.n_features == model.n_features

    def test_non_model_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_model(path)

    @pytest.mark.parametrize(
        "algorithm,corrupt",
        [
            # A child pointing back at its parent would loop forever.
            ("ExtraTrees", lambda state: state["trees"][0]["left"].__setitem__(0, 0)),
            ("RandomForest", lambda state: state["trees"][0]["feature"].__setitem__(0, 9)),
            ("NaiveBayes", lambda state: state.pop("log_prior")),
            ("LinearSVM", lambda state: state.update(weights=[])),
            ("KNN", lambda state: state["rows"].__setitem__(0, [7])),
            ("KNN", lambda state: state.update(labels=[2] * len(state["labels"]))),
        ],
        ids=["child-loop", "feature-range", "missing-key", "shape", "index-range", "label"],
    )
    def test_malformed_state_is_a_data_format_error(self, algorithm, corrupt, tmp_path):
        path = tmp_path / "model.json"
        save_model(train(XOR, algorithm), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupt(payload["state"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match=str(path)):
            load_model(path)

    @pytest.mark.parametrize("threshold", [float("nan"), 2.0, -0.5], ids=str)
    def test_threshold_outside_the_unit_interval_is_a_data_format_error(
        self, threshold, tmp_path
    ):
        path = tmp_path / "model.json"
        save_model(train(XOR, "NaiveBayes"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["decision_threshold"] = threshold
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match=str(path)):
            load_model(path)

    def test_file_that_is_not_json_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff not json")
        with pytest.raises(DataFormatError, match=str(path)):
            load_model(path)

    def test_vocabulary_hash_round_trips(self, tmp_path):
        vocab = extract_terms([["a", "b"], ["a", "b"]])
        model = train(SEPARABLE, "NaiveBayes")
        assert model.vocabulary_hash is None
        model.vocabulary_hash = vocabulary_digest(vocab)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).vocabulary_hash == vocabulary_digest(vocab)


class TestFeaturize:
    TOKENS = [["a", "b"], ["a", "b", "c"], ["a", "x"], ["x", "y"], ["b"]]
    LABELS = [ON, ON, CROSS, CROSS, ON]

    @pytest.mark.parametrize(
        "bow,expected",
        [(False, extract_terms([["a", "b"], ["a", "b", "c"], ["b"]])),
         (True, build_bow_vocabulary(TOKENS))],
        ids=["ngram", "bow"],
    )
    def test_vocabulary_and_every_row_in_it(self, bow, expected):
        vocab, dataset = featurize(self.TOKENS, self.LABELS, bow=bow)
        assert vocab == expected
        reference = make_dataset([vectorize(t, vocab) for t in self.TOKENS], self.LABELS,
                                 len(vocab))
        assert np.array_equal(dataset.x, reference.x)
        assert np.array_equal(dataset.y, reference.y)
        assert np.array_equal(dataset.order, reference.order)

    @pytest.mark.parametrize(
        "bow,tokens",
        [(False, [["a"], ["b"], ["a"], ["a"]]), (True, [[], [], [], []])],
        ids=["on-hold-comments-share-no-term", "no-tokens"],
    )
    def test_no_surviving_term_is_a_training_error(self, bow, tokens):
        with pytest.raises(TrainingError, match="no vocabulary term"):
            featurize(tokens, [ON, ON, CROSS, CROSS], bow=bow)


def noisy_forest_dataset():
    """320 sparse rows over 250 features with 12 % of the labels flipped.

    The flipped labels make the trees grow deep, and at 4 % density most
    small nodes see only constant columns among their sqrt(F) sampled
    features, so the full-scan fallback runs often.
    """
    rng = np.random.default_rng(20240905)
    x = (rng.random((320, 250)) < 0.04).astype(np.uint8)
    y = x[:, 0] | (x[:, 1] & x[:, 2]) | x[:, 3] | x[:, 4]
    y ^= (rng.random(320) < 0.12).astype(np.uint8)
    queries = (rng.random((90, 250)) < 0.04).astype(np.uint8)
    vectors = [FeatureVector(tuple(np.flatnonzero(row).tolist())) for row in x]
    ds = make_dataset(vectors, [ON if v else CROSS for v in y], 250)
    return ds, np.vstack([ds.x, queries])


class TestForestGolden:
    """sha256 of the saved model and of its scores, for each forest grid candidate.

    The digests were recorded with the per-node numpy tree grower; any
    change to the random calls, the split rule or the gini arithmetic
    changes them.
    """

    GOLDEN = {
        ("ExtraTrees", None): (
            "6c34354054457f725cde1782e5a47bdde192c3f5cde9d66289bb16885f34fffe",
            "fdca49848c690f12b87515e7d5007a695c51e7654c3efde9d68e7a6b2cf06087",
        ),
        ("ExtraTrees", 10): (
            "0288ec1f2c549c3b5a3e68acf15817d622eebce5430d43b9b1cc96d1b7160697",
            "b331a75b116961b1e86f5004c3f6e76ee218199a365812c9714ba1ce2e5b5a5f",
        ),
        ("RandomForest", None): (
            "6757deb1350b845319fd907c5d26c6ff469983889c71788f88287884d628a6b5",
            "5bb76136cf11ee6f23eb1a57fa8f9562500d419beacd03436d03679693a847eb",
        ),
        ("RandomForest", 10): (
            "9738e180a5f8b11289c2e92e0ce843229e67da2c812281ccef191e5a2b8d4713",
            "c9a9cf08b77c6ee1821ac96a9a466069ede6f755f869d6b2112e366158a22148",
        ),
    }

    @pytest.mark.parametrize("algorithm,max_depth", list(GOLDEN), ids=str)
    def test_model_and_scores_are_pinned(self, algorithm, max_depth, tmp_path):
        ds, probes = noisy_forest_dataset()
        model = train(ds, algorithm, {"n_trees": 100, "max_depth": max_depth}, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        digests = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(predict_proba_batch(model, probes).tobytes()).hexdigest(),
        )
        assert digests == self.GOLDEN[algorithm, max_depth]


class TestLearnerGolden:
    """sha256 of the saved model and of its scores, for the other grid candidates.

    Same noisy matrix as ``TestForestGolden``.  Any change to the random
    calls, the float operations or the model file format changes them.
    """

    GOLDEN = {
        ("NaiveBayes", (("alpha", 1.0),)): (
            "65dce464cdfe08188638cbbc1c095d7ce29344e5a741d2faaef72b7aa11d0264",
            "ce0d843880cd8ebd239f2a36d5973a556c7ad56aaca13cb4ce1bd28762fe5ef4",
        ),
        ("LinearSVM", (("lam", 1e-2), ("epochs", 30))): (
            "f1538a708be623f390802ca4e5044a871807e18004a6dd5710bea47f35dcc50a",
            "06155e63fa418addf64622a497360e4453f9a971f1b2c1c2274f160d2731f388",
        ),
        ("LinearSVM", (("lam", 1e-4), ("epochs", 30))): (
            "6ab76b0ad51c5932b5a4e5ff4498ac4992b03a91bbab969f31fc80147682ccaa",
            "09f1ab3cb045b5f08ce4a8b812bf2c496a37a4e00145c2c81ea383071e4c8569",
        ),
        ("KNN", (("k", 1),)): (
            "431313058fadac1f009ff7a0bab951d97132e3bad13698bdb9ab5a8f4c9a5ad8",
            "3fe792fe5a63efcc6a1b2d424c23bce7015844905fad67c12d05be7e91bfe7a8",
        ),
        ("KNN", (("k", 5),)): (
            "c55b1a5323ffcb8af0a7edfc766a61373822c56f64cfa971e20eb2a49e41e0ec",
            "9bd5bfcb9272f2c436a0a8c12b2ae3f8de0f74bfa0c2e393dce022e0aa2a63f4",
        ),
    }

    @pytest.mark.parametrize("algorithm,hp", list(GOLDEN), ids=str)
    def test_model_and_scores_are_pinned(self, algorithm, hp, tmp_path):
        ds, probes = noisy_forest_dataset()
        model = train(ds, algorithm, dict(hp), seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        digests = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(predict_proba_batch(model, probes).tobytes()).hexdigest(),
        )
        assert digests == self.GOLDEN[algorithm, hp]


def reference_forest_scores(model, x):
    """Fraction of trees voting OnHold, walking each tree row by row."""
    trees = model._impl.trees
    scores = []
    for row in x.tolist():
        votes = 0
        for tree in trees:
            node = 0
            while tree.feature[node] != -1:
                f = tree.feature[node]
                node = tree.right[node] if row[f] == 1 else tree.left[node]
            votes += tree.value[node] >= 0.5
        scores.append(votes / len(trees))
    return scores


class TestForestScoring:
    """Batch scores equal a per-row walk of each tree, full last mask byte or not."""

    @pytest.mark.parametrize("algorithm", ["ExtraTrees", "RandomForest"])
    @pytest.mark.parametrize("n_rows", [0, 1, 8, 9, 65])
    def test_batch_scores_match_a_per_row_walk(self, algorithm, n_rows, tmp_path):
        ds, probes = noisy_forest_dataset()
        model = train(ds, algorithm, {"n_trees": 10}, seed=3)
        x = probes[::5][:n_rows]
        scores = predict_proba_batch(model, x)
        assert scores.dtype == np.float64
        assert scores.tolist() == reference_forest_scores(model, x)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert predict_proba_batch(load_model(path), x).tolist() == scores.tolist()


class TestExactArithmetic:
    """Column packing and KNN intersections equal plain integer references."""

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 8, 9, 200])
    def test_column_bits_match_a_per_bit_loop(self, n_rows):
        x = (np.random.default_rng(n_rows).random((n_rows, 13)) < 0.3).astype(np.uint8)
        assert _column_bits(x) == [
            sum(1 << i for i in range(n_rows) if x[i, j]) for j in range(13)
        ]

    def test_knn_scores_match_int64_intersections(self):
        rng = np.random.default_rng(5)
        x = (rng.random((300, 600)) < 0.05).astype(np.uint8)
        y = (rng.random(300) < 0.3).astype(np.uint8)
        model = train(make_dataset(
            [FeatureVector(tuple(np.flatnonzero(row).tolist())) for row in x],
            [ON if v else CROSS for v in y], 600,
        ), "KNN", {"k": 5})
        queries = (rng.random((700, 600)) < 0.05).astype(np.uint8)
        known = model._impl.x.astype(np.int64)
        inter = queries.astype(np.int64) @ known.T
        union = queries.sum(axis=1)[:, None] + known.sum(axis=1)[None, :] - inter
        distance = 1.0 - np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        neighbours = np.argsort(distance, axis=1, kind="stable")[:, :5]
        expected = model._impl.y[neighbours].mean(axis=1)
        assert predict_proba_batch(model, queries).tobytes() == expected.tobytes()


class TestTreeGrowerShortcuts:
    """The block sampler and the live-feature fallback change no fitted tree."""

    @pytest.mark.parametrize("n_features",
                             [1, 2, 3, 5, 14, 200, 595, 4000, 10000, 10001, 20000])
    def test_block_draws_replay_choice(self, n_features):
        k = max(1, math.isqrt(n_features))
        for seed in range(50):
            reference, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
            subsets = _feature_subsets(blocked, n_features, k)
            # The first block holds exactly _FIRST_BLOCK nodes, so both
            # generators have made the same draws after it.
            for _ in range(learn._FIRST_BLOCK):
                expected = np.sort(reference.choice(n_features, size=k, replace=False)).tolist()
                assert next(subsets) == expected
            assert blocked.bit_generator.state == reference.bit_generator.state
            # The next block's subsets are the next calls' too.
            for _ in range(3):
                expected = np.sort(reference.choice(n_features, size=k, replace=False)).tolist()
                assert next(subsets) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_live_features_split_like_a_full_scan(self, data):
        n_rows = data.draw(st.integers(1, 40))
        n_features = data.draw(st.integers(1, 30))
        rows = data.draw(st.lists(st.sets(st.integers(0, n_features - 1)),
                                  min_size=n_rows, max_size=n_rows))
        labels = data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
        # A bootstrap draw: bit i stands for input row draws[i].
        draws = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows))
        x = np.zeros((len(draws), n_features), dtype=np.uint8)
        for i, r in enumerate(draws):
            x[i, sorted(rows[r])] = 1
        cols = _column_bits(x)
        ypos = sum(1 << i for i, r in enumerate(draws) if labels[r])
        mask = data.draw(st.integers(1, (1 << len(draws)) - 1))
        live = _live_features(mask, [sorted(rows[r]) for r in draws])
        assert live == [f for f in range(n_features) if mask & cols[f]]
        mask_pos = mask & ypos
        counts = (mask.bit_count(), mask_pos.bit_count())
        assert (_best_split(cols, mask, mask_pos, *counts, live)
                == _best_split(cols, mask, mask_pos, *counts, range(n_features)))


class TestChunkedScoring:
    """``predict_proba_batch`` scores SCORE_CHUNK_ROWS rows at a time."""

    C = SCORE_CHUNK_ROWS
    HP = {"ExtraTrees": {"n_trees": 10}, "RandomForest": {"n_trees": 10}}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scores_equal_one_whole_matrix_call(self, algorithm):
        ds, _ = noisy_forest_dataset()
        model = train(ds, algorithm, self.HP.get(algorithm), seed=2)
        rng = np.random.default_rng(11)
        probes = (rng.random((5 * self.C // 2, ds.n_features)) < 0.04).astype(np.uint8)
        for n_rows in (0, 1, self.C - 1, self.C, self.C + 1, 2 * self.C + 1, 5 * self.C // 2):
            x = probes[:n_rows]
            scores = predict_proba_batch(model, x)
            whole = model._impl.predict_proba(x)
            assert scores.shape == (n_rows,)
            assert scores.dtype == whole.dtype
            assert scores.tobytes() == whole.tobytes(), n_rows

    @pytest.mark.parametrize("algorithm", ["NaiveBayes", "KNN"])
    def test_memory_is_bounded_by_the_chunk(self, algorithm):
        """Scoring 10,000 x 600 stays under 24 MiB of new allocations.

        Whole-matrix scoring takes about 92 MiB for naive Bayes (two
        float64 copies of the query) and 115 MiB for KNN (10,000 x 300
        int64 intersections and distances); one 1,024-row chunk about 10.
        """
        rng = np.random.default_rng(3)
        x = (rng.random((300, 600)) < 0.02).astype(np.uint8)
        y = (rng.random(300) < 0.2).astype(np.uint8)
        y[:2] = 0, 1
        model = train(make_dataset(
            [FeatureVector(tuple(np.flatnonzero(row).tolist())) for row in x],
            [ON if v else CROSS for v in y], 600,
        ), algorithm)
        queries = (rng.random((10_000, 600)) < 0.02).astype(np.uint8)
        tracemalloc.start()
        try:
            scores = predict_proba_batch(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (10_000,)
        assert peak < 24 * 2**20


def reference_smote_rows(dataset, k, seed):
    """SMOTE's synthetic rows with Hamming distances from the m x m x F tensor."""
    minority = sorted(
        (row for row in dataset.rows if row[1] is ON), key=lambda row: _row_digest(*row)
    )
    need = len(dataset.rows) - 2 * len(minority)
    dense = np.zeros((len(minority), dataset.n_features))
    for i, (vector, _) in enumerate(minority):
        dense[i, list(vector.indices)] = 1.0
    hamming = (dense[:, None, :] != dense[None, :, :]).sum(axis=2)
    np.fill_diagonal(hamming, np.iinfo(np.int64).max)
    table = np.argsort(hamming, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for _ in range(need):
        parent = int(rng.integers(len(minority)))
        neighbour = int(table[parent][int(rng.integers(k))])
        point = dense[parent] + rng.random() * (dense[neighbour] - dense[parent])
        rows.append((fv(*map(int, np.flatnonzero(point >= 0.5))), ON))
    return tuple(rows)


class TestSmote:
    IMBALANCED = dataset_from(
        [((0,), ON), ((0, 1), ON), ((0, 2), ON)] + [((3,), CROSS)] * 9,
        n_features=4,
    )

    def test_balances_the_classes(self):
        balanced = smote_oversample(self.IMBALANCED, seed=1)
        counts = balanced.class_counts()
        assert counts[ON] == counts[CROSS] == 9

    def test_original_rows_are_preserved(self):
        balanced = smote_oversample(self.IMBALANCED, seed=1)
        assert balanced.rows[: len(self.IMBALANCED.rows)] == self.IMBALANCED.rows

    def test_synthetic_rows_lie_between_two_minority_parents(self):
        balanced = smote_oversample(self.IMBALANCED, seed=1)
        synthetic = balanced.rows[len(self.IMBALANCED.rows):]
        minority = [
            set(vector.indices)
            for vector, label in self.IMBALANCED.rows
            if label is ON
        ]
        for vector, label in synthetic:
            assert label is ON
            got = set(vector.indices)
            assert any(
                (p & q) <= got <= (p | q)
                for i, p in enumerate(minority)
                for q in minority[i + 1:]
            ), vector

    def test_balanced_dataset_is_returned_unchanged(self):
        assert smote_oversample(SEPARABLE) is SEPARABLE

    def test_single_minority_row_is_rejected(self):
        ds = dataset_from([((0,), ON)] + [((1,), CROSS)] * 4, 2)
        with pytest.raises(TrainingError):
            smote_oversample(ds)

    def test_same_seed_is_reproducible(self):
        a = smote_oversample(self.IMBALANCED, seed=9)
        b = smote_oversample(self.IMBALANCED, seed=9)
        assert a.rows == b.rows

    def test_minority_row_order_does_not_matter(self):
        rows = list(self.IMBALANCED.rows)
        shuffled = dataset_from(
            [(v.indices, label) for v, label in reversed(rows)], self.IMBALANCED.n_features
        )
        a = smote_oversample(self.IMBALANCED, seed=4)
        b = smote_oversample(shuffled, seed=4)
        a_synth = sorted(v.indices for v, _ in a.rows[len(rows):])
        b_synth = sorted(v.indices for v, _ in b.rows[len(rows):])
        assert a_synth == b_synth

    def test_matches_the_difference_tensor_reference(self):
        rng = np.random.default_rng(0)
        pairs = [
            (tuple(np.flatnonzero(rng.random(12) < 0.3)), ON if i < 9 else CROSS)
            for i in range(40)
        ]
        # Repeated minority rows make distance ties for the stable sort.
        ds = dataset_from(pairs + pairs[:3], n_features=12)
        balanced = smote_oversample(ds, seed=2)
        assert balanced.rows[len(ds):] == reference_smote_rows(ds, k=SMOTE_NEIGHBOURS, seed=2)

    def test_provenance_is_tagged(self):
        assert smote_oversample(self.IMBALANCED).provenance.endswith("smote")


class TestSelectModel:
    def test_returns_a_refitted_model(self):
        model = select_model(SEPARABLE, inner_k=3, seed=0)
        assert model.algorithm in ALGORITHMS
        assert model.label(score(model, fv(0))) is ON
        assert model.label(score(model, fv(1))) is CROSS

    def test_grid_position_breaks_exact_ties(self):
        # Every candidate scores perfectly on this separable fold, so the
        # earliest grid entry must win.
        model = select_model(SEPARABLE, inner_k=3, seed=0)
        assert model.algorithm == "ExtraTrees"

    def test_restricted_grid_is_honored(self):
        model = select_model(SEPARABLE, candidate_grid=[("KNN", {"k": 1})])
        assert model.algorithm == "KNN"

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ConfigError):
            select_model(SEPARABLE, candidate_grid=[])

    def test_deterministic_for_a_seed(self):
        a = select_model(XOR, inner_k=3, seed=2)
        b = select_model(XOR, inner_k=3, seed=2)
        assert a.algorithm == b.algorithm
        assert a.hyperparameters == b.hyperparameters

    def test_row_order_does_not_change_the_choice(self):
        # On this corpus, inner folds cut from input positions picked
        # KNN for some shuffles and LinearSVM for others.
        entries = generate_corpus(size=60, seed=7)
        patterns = derive_patterns([e.issue_key for e in entries])
        lemma = textprep.load_lemma_table()
        tokens = [textprep.preprocess(e.text, patterns, lemma) for e in entries]
        vocab = extract_terms([t for t, e in zip(tokens, entries) if e.label is ON])
        rows = [(vectorize(t, vocab), e.label) for t, e in zip(tokens, entries)]
        probes = [vector for vector, _ in rows]
        grid = [("NaiveBayes", {"alpha": 1.0}), ("KNN", {"k": 1}), ("KNN", {"k": 5}),
                ("LinearSVM", {"lam": 1e-2, "epochs": 30})]
        fitted = set()
        for shuffle in range(6):
            random.Random(shuffle).shuffle(rows)
            dataset = make_dataset([v for v, _ in rows], [label for _, label in rows], len(vocab))
            model = select_model(dataset, candidate_grid=grid)
            scores = predict_proba_batch(model, feature_matrix(probes, len(vocab)))
            fitted.add((model.algorithm, json.dumps(model.hyperparameters, sort_keys=True),
                        tuple(scores.tolist())))
        assert len(fitted) == 1


def corpus_dataset(size, on_hold_fraction, corpus_seed, flip_every):
    """Featurized ``generate_corpus`` rows with every flip_every-th label flipped."""
    entries = generate_corpus(size=size, on_hold_fraction=on_hold_fraction, seed=corpus_seed)
    patterns = derive_patterns([e.issue_key for e in entries])
    lemma = textprep.load_lemma_table()
    tokens = [textprep.preprocess(e.text, patterns, lemma) for e in entries]
    flipped = {ON: CROSS, CROSS: ON}
    labels = [flipped[e.label] if i % flip_every == 0 else e.label for i, e in enumerate(entries)]
    return featurize(tokens, labels)[1]


class TestSelectModelGolden:
    """Winner and saved-model sha256 of ``select_model`` over the default grid.

    Each case is (size, OnHold fraction, corpus seed, flip every, SMOTE,
    seed).  The "skipped-fold" corpus has so few CrossReference rows that
    one inner training fold holds only OnHold rows and is skipped.
    """

    GOLDEN = {
        "noisy": (
            (300, 0.13, 1, 7, False, 0),
            "NaiveBayes", {"alpha": 1.0},
            "a5319dc4d9232c4be1fe620cb4bf2717af20996b778ff2b7ffb17acca2124273",
        ),
        "smote": (
            (160, 0.13, 4, 6, True, 2),
            "ExtraTrees", {"n_trees": 100, "max_depth": None},
            "aa8dc5fcf15ef8a1c87e5b0d8cfabe4eef19a5aced403d057bb1542e7c995cde",
        ),
        "skipped-fold": (
            (60, 0.98, 7, 20, False, 7),
            "KNN", {"k": 5},
            "a6100856ff8ea7c43e46be94b8d4088792edef3f87facc129f02b07938da36e1",
        ),
    }

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_winner_and_model_are_pinned(self, case, tmp_path):
        (size, fraction, corpus_seed, flip_every, smote, seed), algorithm, hp, digest = (
            self.GOLDEN[case]
        )
        ds = corpus_dataset(size, fraction, corpus_seed, flip_every)
        if smote:
            ds = smote_oversample(ds, seed=seed)
        if case == "skipped-fold":
            folds = kfold_split(range(len(ds)), k=3, seed=seed)
            inner_classes = [set(np.delete(ds.y, fold).tolist()) for fold in folds]
            assert {1} in inner_classes
        model = select_model(ds, seed=seed)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert (model.algorithm, model.hyperparameters) == (algorithm, hp)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def child_pids() -> set[int]:
    """Live or unreaped children of this process, where /proc lists them."""
    return {
        int(pid)
        for path in Path("/proc/self/task").glob("*/children")
        for pid in path.read_text().split()
    }


@pytest.fixture
def train_calls(monkeypatch):
    """Algorithms of the fits this process runs, in call order."""
    calls = []
    real_train = learn.train

    def counted(dataset, algorithm, *rest, **kwargs):
        calls.append(algorithm)
        return real_train(dataset, algorithm, *rest, **kwargs)

    monkeypatch.setattr(learn, "train", counted)
    return calls


def _select_in_this_process(_):
    return select_model(SEPARABLE, candidate_grid=[("NaiveBayes", {}), ("KNN", {"k": 1})]).algorithm


class TestSelectModelWorkers:
    def test_one_cpu_path_equals_the_pool(self, monkeypatch, train_calls, tmp_path):
        ds = corpus_dataset(120, 0.13, 2, 5)
        saved = {}
        for cpus in (1, 2):
            monkeypatch.setattr(learn, "_usable_cpus", lambda: cpus)
            train_calls.clear()
            model = select_model(ds, seed=1)
            path = tmp_path / f"{cpus}.json"
            save_model(model, path)
            saved[cpus] = (path.read_bytes(), model.inner_cv, list(train_calls))
        # One CPU fits the 9 x 3 inner jobs and the refit here; the pool
        # leaves only the refit to this process.
        assert len(saved[1][2]) == 28
        assert saved[2][2] == saved[1][2][-1:]
        assert saved[1][:2] == saved[2][:2]

    def test_a_dying_worker_names_its_candidate_and_leaves_no_process(self, monkeypatch):
        parent = os.getpid()
        real_train = learn.train

        def train_or_die(dataset, algorithm, *rest, **kwargs):
            if algorithm == "KNN" and os.getpid() != parent:
                os._exit(1)
            return real_train(dataset, algorithm, *rest, **kwargs)

        monkeypatch.setattr(learn, "train", train_or_die)
        monkeypatch.setattr(learn, "_usable_cpus", lambda: 2)
        before = child_pids()
        with pytest.raises(WorkerError, match=r'lost KNN \{"k": 1\} on inner fold 1'):
            select_model(SEPARABLE, candidate_grid=[("KNN", {"k": 1}), ("NaiveBayes", {})])
        assert child_pids() <= before
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        started = tmp_path / "started"
        started.mkdir()
        script = (
            "import os, time\n"
            "from onhold import learn\n"
            "parent, real_train = os.getpid(), learn.train\n"
            "def train_or_wait(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            f"        open(os.path.join({str(started)!r}, str(os.getpid())), 'w').close()\n"
            "        time.sleep(120)\n"
            "    return real_train(*args, **kwargs)\n"
            "learn.train, learn._usable_cpus = train_or_wait, lambda: 2\n"
            "ds = learn.make_dataset([learn.FeatureVector((i % 2,)) for i in range(12)],\n"
            "                        [learn.Label.ON_HOLD, learn.Label.CROSS_REFERENCE] * 6, 2)\n"
            "learn.select_model(ds, candidate_grid=[('NaiveBayes', {}), ('KNN', {'k': 1})])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(learn.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(list(started.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        workers = [int(path.name) for path in started.iterdir()]
        assert len(workers) == 2

        def running(pid):
            try:
                return Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(running, workers))

    def test_an_exception_in_a_worker_re_raises_as_itself(self, monkeypatch):
        monkeypatch.setattr(learn, "_usable_cpus", lambda: 2)
        with pytest.raises(ConfigError, match="k must be >= 1"):
            select_model(SEPARABLE, candidate_grid=[("NaiveBayes", {}), ("KNN", {"k": 0})])
        assert multiprocessing.active_children() == []

    def test_a_daemonic_process_scores_in_process(self, monkeypatch):
        monkeypatch.setattr(learn, "_usable_cpus", lambda: 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.map(_select_in_this_process, [0]) == ["NaiveBayes"]

    def test_a_one_candidate_grid_is_fitted_once(self, train_calls, tmp_path):
        model = select_model(XOR, candidate_grid=[("LinearSVM", {"lam": 1e-4})], seed=2)
        assert train_calls == ["LinearSVM"]
        assert model.inner_cv == ()
        direct = train(XOR, "LinearSVM", {"lam": 1e-4}, seed=2)
        save_model(model, tmp_path / "selected.json")
        save_model(direct, tmp_path / "direct.json")
        assert (tmp_path / "selected.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_a_one_candidate_grid_fails_as_before(self):
        single_class = dataset_from([((0,), ON)] * 4, n_features=1)
        with pytest.raises(TrainingError, match="both classes"):
            select_model(single_class, candidate_grid=[("NaiveBayes", {})])
        with pytest.raises(ValueError, match="k must be >= 1"):
            select_model(SEPARABLE, candidate_grid=[("NaiveBayes", {})], inner_k=0)
        with pytest.raises(ConfigError, match="k must be >= 1"):
            select_model(SEPARABLE, candidate_grid=[("KNN", {"k": 0})])

    def test_inner_cv_ranks_every_candidate(self):
        model = select_model(SEPARABLE, inner_k=3)
        assert [(row.algorithm, row.hyperparameters) for row in model.inner_cv] == list(
            DEFAULT_GRID
        )
        # Every candidate separates these folds, so the first one wins the tie.
        assert [row.chosen for row in model.inner_cv] == [True] + [False] * 8
        assert {(row.mean_f1, row.mean_auc) for row in model.inner_cv} == {(1.0, 1.0)}
        assert all(row.mean_fit_s > 0 for row in model.inner_cv)

    def test_fit_times_do_not_change_a_ranking(self):
        row = learn.CandidateScore("KNN", {"k": 1}, 0.5, 0.75, False, mean_fit_s=0.25)
        assert row == learn.CandidateScore("KNN", {"k": 1}, 0.5, 0.75, False, mean_fit_s=3.0)
        assert row != learn.CandidateScore("KNN", {"k": 1}, 0.5, 0.75, True, mean_fit_s=0.25)
