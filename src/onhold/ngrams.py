"""n-gram IDF term extraction and binary comment vectorization.

Terms are mined from the positive (on-hold) training comments only and
weighted so that an n-gram scores high when it is more informative than
its constituent parts.  A multi-word term that appears exactly wherever
its halves appear carries no extra signal and weights out at zero.

Weighting scheme, with N the corpus size and df(g) the number of
training comments containing g contiguously:

* unigrams:   weight = log(N / df(g)) + 1
* n >= 2:     weight = log(N * df(g) / max over bisections of
              df(s1) * df(s2)), clamped at zero

The bisection with the largest df product is the most conservative
baseline, so a term only keeps positive weight when it beats every way
of explaining it from two parts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataFormatError

TokenTuple = tuple[str, ...]

MAX_NGRAM_LEN = 10
MIN_DOC_FREQ = 2


def enumerate_ngrams(comment: Sequence[str], max_n: int = MAX_NGRAM_LEN) -> set[TokenTuple]:
    """All distinct contiguous n-grams of the comment with n <= max_n."""
    tokens = tuple(comment)
    grams: set[TokenTuple] = set()
    for n in range(1, min(max_n, len(tokens)) + 1):
        for start in range(len(tokens) - n + 1):
            grams.add(tokens[start:start + n])
    return grams


class CorpusStats:
    """Document-frequency table of every n-gram (n <= max_n) of a comment corpus."""

    def __init__(self, comments: Iterable[Sequence[str]], max_n: int = MAX_NGRAM_LEN):
        self.max_n = max_n
        self.n_documents = 0
        self._df: Counter[TokenTuple] = Counter()
        for comment in comments:
            self.n_documents += 1
            self._df.update(enumerate_ngrams(comment, max_n))

    def doc_freq(self, term: Sequence[str]) -> int:
        tokens = tuple(term)
        if len(tokens) > self.max_n:
            raise ValueError(f"term {tokens!r} is longer than max_n={self.max_n}")
        return self._df[tokens]

    def known_terms(self) -> Iterator[TokenTuple]:
        return iter(self._df)


def weight_term(term: Sequence[str], corpus_stats: CorpusStats) -> float:
    """n-gram IDF weight of a term occurring in the corpus."""
    tokens = tuple(term)
    if not tokens:
        raise ValueError("empty term")
    df = corpus_stats.doc_freq(tokens)
    if df == 0:
        raise ValueError(f"term {tokens!r} does not occur in the corpus")
    n_docs = corpus_stats.n_documents
    if len(tokens) == 1:
        return math.log(n_docs / df) + 1.0
    baseline = max(
        corpus_stats.doc_freq(tokens[:i]) * corpus_stats.doc_freq(tokens[i:])
        for i in range(1, len(tokens))
    )
    return max(math.log(n_docs * df / baseline), 0.0)


@dataclass(frozen=True)
class NGramTerm:
    tokens: TokenTuple
    doc_freq: int
    weight: float

    def __post_init__(self) -> None:
        if not 1 <= len(self.tokens) <= MAX_NGRAM_LEN:
            raise ValueError(f"term length {len(self.tokens)} outside 1..{MAX_NGRAM_LEN}")
        if self.doc_freq < 1:
            raise ValueError("term with zero document frequency")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class NGramVocabulary:
    """Ordered, unique weighted terms extracted from one training fold."""

    terms: tuple[NGramTerm, ...]
    # A token trie of the terms: each node maps a token to its child,
    # and None to the index of the term that ends there.  A node exists
    # for every prefix of a term, so an n-gram with no node cannot be
    # extended into a term.
    _trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trie: dict = {}
        for i, term in enumerate(self.terms):
            node = trie
            for token in term.tokens:
                node = node.setdefault(token, {})
            if None in node:
                raise ValueError("duplicate terms in vocabulary")
            node[None] = i
        object.__setattr__(self, "_trie", trie)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[NGramTerm]:
        return iter(self.terms)


@dataclass(frozen=True)
class FeatureVector:
    """Sorted indices of the vocabulary terms present in one comment."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")
        if self.indices and self.indices[0] < 0:
            raise ValueError("negative feature index")

    def __len__(self) -> int:
        return len(self.indices)


def extract_terms(
    positive_comments: Sequence[Sequence[str]],
    max_n: int = MAX_NGRAM_LEN,
    min_df: int = MIN_DOC_FREQ,
) -> NGramVocabulary:
    """Mine the weighted term vocabulary from positive training comments.

    Keeps every contiguous n-gram (n <= max_n) that occurs in at least
    min_df comments and has weight > 0, ordered by weight descending
    then lexicographically.
    """
    if not 1 <= max_n <= MAX_NGRAM_LEN:
        raise ValueError(f"max_n must be in 1..{MAX_NGRAM_LEN}")
    stats = CorpusStats(positive_comments, max_n)
    terms = []
    for tokens in stats.known_terms():
        df = stats.doc_freq(tokens)
        if df < min_df:
            continue
        weight = weight_term(tokens, stats)
        if weight > 0.0:
            terms.append(NGramTerm(tokens, df, weight))
    terms.sort(key=lambda t: (-t.weight, t.tokens))
    return NGramVocabulary(tuple(terms))


def build_bow_vocabulary(all_comments: Sequence[Sequence[str]]) -> NGramVocabulary:
    """Unigram vocabulary over all training comments (ablation baseline)."""
    return extract_terms(all_comments, max_n=1, min_df=1)


def vectorize(comment: Sequence[str], vocab: NGramVocabulary) -> FeatureVector:
    """Binary occurrence vector: index i set iff term i occurs contiguously.

    From each token, the vocabulary's trie is walked one token at a
    time, only while the n-gram so far is still a prefix of some term.
    """
    if len(vocab) == 0:
        raise ValueError("empty vocabulary")
    tokens = tuple(comment)
    found = set()
    for start in range(len(tokens)):
        node = vocab._trie
        for end in range(start, len(tokens)):
            node = node.get(tokens[end])
            if node is None:
                break
            if None in node:
                found.add(node[None])
    return FeatureVector(tuple(sorted(found)))


def format_vocabulary(vocab: NGramVocabulary) -> str:
    """Render a vocabulary as TSV lines: term, doc frequency, weight."""
    lines = [f"{term.text}\t{term.doc_freq}\t{term.weight!r}" for term in vocab]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vocabulary(text: str, source: str = "") -> NGramVocabulary:
    """Parse vocabulary TSV text; errors name ``source`` and the line."""
    label = source or "<vocabulary>"
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            term_text, df, weight = line.split("\t")
            terms.append(NGramTerm(tuple(term_text.split(" ")), int(df), float(weight)))
        except ValueError as exc:
            raise DataFormatError(f"{label}:{lineno}: {exc}") from exc
    try:
        return NGramVocabulary(tuple(terms))
    except ValueError as exc:
        raise DataFormatError(f"{label}: {exc}") from exc


def save_vocabulary(vocab: NGramVocabulary, path: str | Path) -> None:
    Path(path).write_text(format_vocabulary(vocab), encoding="utf-8")


def load_vocabulary(path: str | Path) -> NGramVocabulary:
    """Read a vocabulary TSV; parse errors name the path."""
    return parse_vocabulary(Path(path).read_text(encoding="utf-8"), str(path))
