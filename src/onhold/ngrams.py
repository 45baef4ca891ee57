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
of explaining it from two parts.  ``extract_terms`` counts every
n-gram's df once, into one ``Counter``, and ``weight_term`` reads each
weight straight off it.

``term_matrix`` finds the terms of many comments at once.  The
vocabulary holds its token trie as sorted integer edge keys, the goto
function of Aho & Corasick (1975) as arrays, and every word of every
comment starts a walk along it; the walks advance together, one
``searchsorted`` per step.  ``vectorize`` is its one-comment case.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, read_utf8

TokenTuple = tuple[str, ...]

MAX_NGRAM_LEN = 10
MIN_DOC_FREQ = 2


def enumerate_ngrams(comment: Sequence[str], max_n: int = MAX_NGRAM_LEN) -> set[TokenTuple]:
    """All distinct contiguous n-grams of the comment with n <= max_n."""
    tokens = tuple(comment)
    lengths = range(1, min(max_n, len(tokens)) + 1)
    return {tokens[start:start + n] for n in lengths for start in range(len(tokens) - n + 1)}


def weight_term(term: Sequence[str], doc_freq: Counter[TokenTuple], n_docs: int) -> float:
    """n-gram IDF weight of a term occurring in the corpus.

    ``doc_freq`` holds the document frequency of every n-gram of the
    corpus's ``n_docs`` comments, as ``extract_terms`` counts it.
    """
    tokens = tuple(term)
    if not tokens:
        raise ValueError("empty term")
    df = doc_freq[tokens]
    if df == 0:
        raise ValueError(f"term {tokens!r} does not occur in the corpus")
    if len(tokens) == 1:
        return math.log(n_docs / df) + 1.0
    baseline = max(doc_freq[tokens[:i]] * doc_freq[tokens[i:]] for i in range(1, len(tokens)))
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


class _Trie(NamedTuple):
    """A token trie of the terms, as arrays.

    Each term token has an id below ``width``.  Node 0 is the root, and
    the edge from node ``n`` on token ``t`` is the key ``n * width + t``;
    ``keys`` holds them sorted and ``children`` the node each leads to.
    ``term_at[n]`` is the index of the term ending at node ``n``, or -1.
    A node exists for every prefix of a term, so an n-gram with no node
    cannot be extended into a term.
    """

    token_ids: dict[str, int]
    width: int
    keys: np.ndarray
    children: np.ndarray
    term_at: np.ndarray


def _build_trie(terms: Sequence[NGramTerm]) -> _Trie:
    token_ids: dict[str, int] = {}
    for term in terms:
        for token in term.tokens:
            token_ids.setdefault(token, len(token_ids))
    width = len(token_ids)
    edges: dict[int, int] = {}
    term_at = [-1]
    for i, term in enumerate(terms):
        node = 0
        for token in term.tokens:
            key = node * width + token_ids[token]
            node = edges.get(key, -1)
            if node < 0:
                node = edges[key] = len(term_at)
                term_at.append(-1)
        if term_at[node] >= 0:
            raise ValueError("duplicate terms in vocabulary")
        term_at[node] = i
    keys = np.array(sorted(edges), dtype=np.int64)
    return _Trie(
        token_ids,
        width,
        keys,
        np.array([edges[key] for key in keys.tolist()], dtype=np.int64),
        np.array(term_at, dtype=np.int64),
    )


@dataclass(frozen=True)
class NGramVocabulary:
    """Ordered, unique weighted terms extracted from one training fold."""

    terms: tuple[NGramTerm, ...]
    _trie: _Trie = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_trie", _build_trie(self.terms))

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
    doc_freq = Counter(chain.from_iterable(enumerate_ngrams(c, max_n) for c in positive_comments))
    terms = []
    for tokens, df in doc_freq.items():
        if df < min_df:
            continue
        weight = weight_term(tokens, doc_freq, len(positive_comments))
        if weight > 0.0:
            terms.append(NGramTerm(tokens, df, weight))
    terms.sort(key=lambda t: (-t.weight, t.tokens))
    return NGramVocabulary(tuple(terms))


def build_bow_vocabulary(all_comments: Sequence[Sequence[str]]) -> NGramVocabulary:
    """Unigram vocabulary over all training comments (ablation baseline)."""
    return extract_terms(all_comments, max_n=1, min_df=1)


def vectorize(comment: Sequence[str], vocab: NGramVocabulary) -> FeatureVector:
    """Binary occurrence vector: index i set iff term i occurs contiguously."""
    return FeatureVector(tuple(np.flatnonzero(term_matrix([comment], vocab)[0]).tolist()))


def term_matrix(comments: Sequence[Sequence[str]], vocab: NGramVocabulary) -> np.ndarray:
    """0/1 matrix with one row per comment: cell (i, j) is 1 iff term j occurs in comment i.

    The comments' tokens become one array of term-token ids, with -1 for
    a token no term holds and after each comment.  Every start position
    then walks the vocabulary's trie at once, one token per step: each
    step looks all the walks' next edges up with one ``searchsorted``
    and drops the walks that find none, so no walk crosses into the
    next comment.
    """
    if len(vocab) == 0:
        raise ValueError("empty vocabulary")
    trie = vocab._trie
    lengths = np.fromiter(map(len, comments), dtype=np.intp, count=len(comments))
    flat = list(chain.from_iterable(comments))
    ids = np.fromiter(
        map(trie.token_ids.get, flat, repeat(-1)), dtype=np.int64, count=len(flat)
    )
    ids = np.insert(ids, np.cumsum(lengths), -1)
    pos = np.flatnonzero(ids >= 0)
    row = np.repeat(np.arange(len(comments)), lengths + 1)[pos]
    node = np.zeros(len(pos), dtype=np.int64)
    hit_rows, hit_terms = [], []
    while len(pos):  # at most one step more than the longest term has tokens
        token = ids[pos]
        key = node * trie.width + token
        slot = np.minimum(np.searchsorted(trie.keys, key), len(trie.keys) - 1)
        alive = (token >= 0) & (trie.keys[slot] == key)
        pos, row, node = pos[alive] + 1, row[alive], trie.children[slot[alive]]
        term = trie.term_at[node]
        hit_rows.append(row[term >= 0])
        hit_terms.append(term[term >= 0])
    x = np.zeros((len(comments), len(vocab)), dtype=np.uint8)
    if hit_rows:
        x[np.concatenate(hit_rows), np.concatenate(hit_terms)] = 1
    return x


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
    return parse_vocabulary(read_utf8(path), str(path))
