"""Oracle tests for n-gram term extraction and vectorization.

The weight expectations below were computed by hand from the scheme:
unigram weight = log(N / df) + 1, longer-term weight = log(N * df /
max-bisection-product) clamped at zero.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onhold.errors import DataFormatError
from onhold.ngrams import (
    MAX_NGRAM_LEN,
    FeatureVector,
    NGramTerm,
    NGramVocabulary,
    build_bow_vocabulary,
    enumerate_ngrams,
    extract_terms,
    format_vocabulary,
    parse_vocabulary,
    term_matrix,
    vectorize,
    weight_term,
)

# d1..d4 of the worked example used throughout this module.
CORPUS = [["a", "b"], ["a", "b"], ["c", "d"], ["c", "e"]]


class TestEnumerateNgrams:
    def test_bigram_window(self):
        grams = enumerate_ngrams(["a", "b", "c"], max_n=2)
        assert grams == {("a",), ("b",), ("c",), ("a", "b"), ("b", "c")}

    def test_window_larger_than_comment(self):
        grams = enumerate_ngrams(["a", "b"], max_n=10)
        assert grams == {("a",), ("b",), ("a", "b")}

    def test_empty_comment(self):
        assert enumerate_ngrams([], max_n=3) == set()

    def test_repeated_tokens_deduplicate(self):
        assert enumerate_ngrams(["a", "a"], max_n=2) == {("a",), ("a", "a")}


def weigh(term, comments):
    """weight_term over the document frequencies that extract_terms counts for the comments."""
    doc_freq = Counter(chain.from_iterable(map(enumerate_ngrams, comments)))
    return weight_term(term, doc_freq, len(comments))


class TestWeightTerm:
    def test_unigram_weight(self):
        assert weigh(["a"], CORPUS) == pytest.approx(math.log(2) + 1)

    def test_rare_unigram_weighs_more(self):
        assert weigh(["d"], CORPUS) == pytest.approx(math.log(4) + 1)

    def test_bigram_weight(self):
        # df(a b) = 2, baseline df(a) * df(b) = 4: log(4 * 2 / 4) = log 2.
        assert weigh(["a", "b"], CORPUS) == pytest.approx(math.log(2))

    def test_saturated_bigram_weighs_zero(self):
        # df(a b) = df(a) = df(b) = 4: log(4 * 4 / 16) = 0.
        assert weigh(["a", "b"], [["a", "b"]] * 4) == 0.0

    def test_trigram_uses_the_largest_bisection(self):
        docs = [["x", "y", "z"], ["x", "y", "z"], ["x", "y"], ["z"]]
        # Splits: (x)(y z) gives 3 * 2 = 6, (x y)(z) gives 3 * 3 = 9.
        # log(4 * 2 / 9) < 0, so the weight clamps to zero.
        assert weigh(["x", "y", "z"], docs) == 0.0

    def test_empty_term_is_rejected(self):
        with pytest.raises(ValueError):
            weigh([], CORPUS)

    def test_unseen_term_is_rejected(self):
        with pytest.raises(ValueError):
            weigh(["zz"], CORPUS)


class TestExtractTerms:
    def test_worked_example_with_default_min_df(self):
        vocab = extract_terms(CORPUS)
        expected = [
            (("a",), math.log(2) + 1),
            (("b",), math.log(2) + 1),
            (("c",), math.log(2) + 1),
            (("a", "b"), math.log(2)),
        ]
        assert [(t.tokens, t.weight) for t in vocab] == [
            (tokens, pytest.approx(w)) for tokens, w in expected
        ]

    def test_worked_example_with_min_df_one(self):
        vocab = extract_terms(CORPUS, min_df=1)
        assert [t.tokens for t in vocab] == [
            ("d",),
            ("e",),
            ("a",),
            ("b",),
            ("c",),
            ("a", "b"),
            ("c", "d"),
            ("c", "e"),
        ]

    def test_zero_weight_terms_are_dropped(self):
        vocab = extract_terms([["a", "b"]] * 4)
        assert [t.tokens for t in vocab] == [("a",), ("b",)]
        assert all(t.weight == 1.0 for t in vocab)

    def test_negative_information_trigram_is_dropped(self):
        docs = [["x", "y", "z"], ["x", "y", "z"], ["x", "y"], ["z"]]
        vocab = extract_terms(docs, max_n=3)
        assert ("x", "y", "z") not in [t.tokens for t in vocab]
        assert ("x", "y") in [t.tokens for t in vocab]

    def test_document_order_does_not_matter(self):
        docs = [["a", "b"], ["c", "d"], ["a", "b", "c"], ["b", "c"], ["a"]]
        shuffled = docs[:]
        random.Random(3).shuffle(shuffled)
        assert extract_terms(docs) == extract_terms(shuffled)

    def test_max_n_out_of_range_is_rejected(self):
        with pytest.raises(ValueError):
            extract_terms(CORPUS, max_n=0)
        with pytest.raises(ValueError):
            extract_terms(CORPUS, max_n=11)

    def test_bow_vocabulary_is_unigrams_only(self):
        vocab = build_bow_vocabulary(CORPUS)
        assert all(len(t.tokens) == 1 for t in vocab)
        assert {t.tokens[0] for t in vocab} == {"a", "b", "c", "d", "e"}

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c"]), max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_extracted_terms_satisfy_the_contract(self, docs):
        vocab = extract_terms(docs, max_n=3, min_df=2)
        keys = [(-t.weight, t.tokens) for t in vocab]
        assert keys == sorted(keys)
        for term in vocab:
            assert term.doc_freq >= 2
            assert term.weight > 0.0
            assert 1 <= len(term.tokens) <= 3


class TestVectorize:
    VOCAB = extract_terms(CORPUS)  # a, b, c, (a b)

    def test_contiguous_bigram_is_found(self):
        assert vectorize(["a", "b"], self.VOCAB).indices == (0, 1, 3)

    def test_reversed_tokens_miss_the_bigram(self):
        assert vectorize(["b", "a"], self.VOCAB).indices == (0, 1)

    def test_gap_breaks_contiguity(self):
        assert vectorize(["a", "c", "b"], self.VOCAB).indices == (0, 1, 2)

    def test_unknown_tokens_vectorize_to_nothing(self):
        assert vectorize(["z"], self.VOCAB).indices == ()

    def test_adding_tokens_never_removes_indices(self):
        base = set(vectorize(["a", "b"], self.VOCAB).indices)
        extended = set(vectorize(["a", "b", "c"], self.VOCAB).indices)
        assert base <= extended

    def test_empty_vocabulary_is_rejected(self):
        with pytest.raises(ValueError):
            vectorize(["a"], NGramVocabulary(()))


def reference_vectorize(comment, vocab):
    """Look every n-gram of the comment up, up to the longest term's length."""
    found = set()
    index = {term.tokens: i for i, term in enumerate(vocab.terms)}
    max_len = max((len(term.tokens) for term in vocab), default=0)
    for gram in enumerate_ngrams(comment, max_len):
        if gram in index:
            found.add(index[gram])
    return FeatureVector(tuple(sorted(found)))


def vocabulary_of(*terms):
    """A vocabulary of these terms; each character of a string is one token."""
    return NGramVocabulary(tuple(NGramTerm(tuple(t), 1, 1.0) for t in terms))


TOKENS = ("a", "b", "c", "d")
_WORDS = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=MAX_NGRAM_LEN).map(tuple)


@st.composite
def vocabularies_and_comments(draw):
    """A vocabulary over four tokens, and a comment pieced from its terms and random words.

    One term of two or more tokens has no shorter prefix among the terms.
    """
    terms = draw(st.lists(_WORDS, min_size=1, max_size=12, unique=True))
    lone = draw(_WORDS.filter(lambda w: len(w) >= 2))
    terms = [t for t in terms if t != lone[:len(t)]] + [lone]
    pieces = draw(st.lists(st.one_of(st.sampled_from(terms), _WORDS), max_size=8))
    return vocabulary_of(*terms), [tok for piece in pieces for tok in piece]


class TestVectorizeAgreesWithTheReference:
    """``vectorize`` grows n-grams only along term prefixes; the reference enumerates them all."""

    @settings(max_examples=300)
    @given(vocabularies_and_comments())
    @example((vocabulary_of("abc", "bcd", "d"), list("aabcabcdcabcdd")))
    @example((vocabulary_of("aaaa"), list("aaaaaaa")))
    def test_equals_the_enumerating_reference(self, case):
        vocab, comment = case
        assert vectorize(comment, vocab) == reference_vectorize(comment, vocab)

    def test_a_term_is_found_without_its_prefixes(self):
        vocab = vocabulary_of("b", "abcd")
        assert vectorize(list("aabcdb"), vocab).indices == (0, 1)
        assert vectorize(list("abcab"), vocab).indices == (0,)


def oracle_term_matrix(comments, vocab):
    """Walk a dict trie of the terms from every start of every comment on its own."""
    trie = {}
    for i, term in enumerate(vocab.terms):
        node = trie
        for token in term.tokens:
            node = node.setdefault(token, {})
        node[None] = i
    x = np.zeros((len(comments), len(vocab)), dtype=np.uint8)
    for row, comment in enumerate(comments):
        for start in range(len(comment)):
            node = trie
            for token in comment[start:]:
                node = node.get(token)
                if node is None:
                    break
                if None in node:
                    x[row, node[None]] = 1
    return x


# Terms share prefixes ("ab", "abc", ...), reach the full ten tokens, and
# the comments mix their pieces with tokens no term holds.
_LONG_TERMS = st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=MAX_NGRAM_LEN)


@st.composite
def term_matrix_cases(draw):
    comments = draw(st.lists(
        st.lists(st.sampled_from(("a", "b", "c", "z", "")), max_size=24), max_size=6))
    if draw(st.booleans()):
        vocab = build_bow_vocabulary([c for c in comments if c] or [["a"]])
    else:
        terms = draw(st.lists(_LONG_TERMS.map(tuple), min_size=1, max_size=16, unique=True))
        if draw(st.booleans()):
            full = draw(_LONG_TERMS.filter(lambda t: len(t) == MAX_NGRAM_LEN).map(tuple))
            terms = [t for t in terms if t != full] + [full]
            comments = [*comments, list(full) * 2]
        vocab = vocabulary_of(*terms)
    return comments, vocab


class TestTermMatrixAgreesWithTheOracle:
    @settings(max_examples=300)
    @given(term_matrix_cases())
    @example(([list("abcabcabca"), [], list("zab")], vocabulary_of("ab", "abc", "abcabcabca", "b")))
    def test_equals_the_per_row_trie_walk(self, case):
        comments, vocab = case
        x = term_matrix(comments, vocab)
        assert x.dtype == np.uint8
        assert x.shape == (len(comments), len(vocab))
        assert np.array_equal(x, oracle_term_matrix(comments, vocab))
        for comment, row in zip(comments, x):
            assert vectorize(comment, vocab).indices == tuple(np.flatnonzero(row).tolist())

    def test_empty_vocabulary_is_rejected(self):
        with pytest.raises(ValueError):
            term_matrix([["a"]], NGramVocabulary(()))

    def test_no_comments_make_an_empty_matrix(self):
        assert term_matrix([], vocabulary_of("a", "b")).shape == (0, 2)


class TestValidation:
    def test_feature_indices_must_increase(self):
        with pytest.raises(ValueError):
            FeatureVector((1, 1))
        with pytest.raises(ValueError):
            FeatureVector((2, 1))

    def test_feature_indices_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FeatureVector((-1,))

    def test_term_length_cap(self):
        with pytest.raises(ValueError):
            NGramTerm(tuple("abcdefghijk"), 1, 1.0)

    def test_term_needs_a_positive_doc_freq(self):
        with pytest.raises(ValueError):
            NGramTerm(("a",), 0, 1.0)

    def test_vocabulary_rejects_duplicates(self):
        term = NGramTerm(("a",), 2, 1.0)
        with pytest.raises(ValueError):
            NGramVocabulary((term, term))

    def test_unknown_term_is_not_in_the_vocabulary(self):
        tokens = [term.tokens for term in extract_terms(CORPUS).terms]
        assert ("zz",) not in tokens
        assert tokens.index(("a",)) == 0


class TestVocabularyRoundTrip:
    def test_format_then_parse_is_identity(self):
        vocab = extract_terms(CORPUS, min_df=1)
        assert parse_vocabulary(format_vocabulary(vocab)) == vocab

    def test_weights_round_trip_exactly(self):
        vocab = extract_terms(CORPUS, min_df=1)
        parsed = parse_vocabulary(format_vocabulary(vocab))
        for original, copy in zip(vocab, parsed):
            assert original.weight == copy.weight

    def test_empty_vocabulary_round_trips(self):
        assert parse_vocabulary(format_vocabulary(NGramVocabulary(()))) == NGramVocabulary(())

    def test_parse_error_names_the_line(self):
        with pytest.raises(DataFormatError, match="<vocabulary>:2: "):
            parse_vocabulary("a\t2\t1.0\nbroken line\n")

    def test_save_and_load(self, tmp_path):
        from onhold.ngrams import load_vocabulary, save_vocabulary

        vocab = extract_terms(CORPUS)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab

    def test_load_error_names_the_path(self, tmp_path):
        from onhold.ngrams import load_vocabulary

        path = tmp_path / "vocab.tsv"
        path.write_text("a\t2\t1.0\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: "):
            load_vocabulary(path)
