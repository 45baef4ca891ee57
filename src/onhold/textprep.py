"""Comment text normalization: abstraction, cleaning, lemmatization.

The pipeline turns raw comment text into a flat token sequence:
abstract issue ids/URLs, lowercase, strip special characters, split on
whitespace, lemmatize each token.  Stop words are deliberately kept --
words like "when" and "until" carry the waiting-condition signal this
package exists to detect.

``preprocess_many`` runs the pipeline over many texts in one pass: one
abstraction pass over the texts joined by line breaks, with each
distinct word lemmatized once; ``preprocess`` is its one-text case.
Its memory grows with the batch, so ``classify`` passes one score chunk
of rows at a time.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping, Sequence
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

from .errors import DataFormatError, read_utf8
from .issues import Patterns, abstract_terms

TokenSequence = list[str]

_SPECIAL_CHARS = re.compile(r"[^A-Za-z0-9]+")
_WORD = re.compile(r"[A-Za-z0-9]+")
_LOWER_ALPHA = re.compile(r"^[a-z]+$")

_VOWELS = frozenset("aeiou")
# Undoubling skips l/s/z so "fall"/"miss"/"buzz" style stems survive.
_NO_UNDOUBLE = frozenset("lsz")


def clean(text: str) -> str:
    """Replace every run of non-alphanumeric characters with one space.

    Runs become a single space (deleting them outright would fuse
    neighbouring words); leading/trailing runs are trimmed.
    """
    return _SPECIAL_CHARS.sub(" ", text).strip()


@lru_cache(maxsize=1)
def _default_lemma_table() -> dict[str, str]:
    data = (
        resources.files("onhold")
        .joinpath("data/lemma_exceptions.tsv")
        .read_text("utf-8")
    )
    return _parse_lemma_table(data, "onhold/data/lemma_exceptions.tsv")


def _parse_lemma_table(data: str, location: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, line in enumerate(data.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{location}:{lineno}: expected 'token<TAB>lemma'")
        table[parts[0]] = parts[1]
    return table


class LemmaTable(Mapping[str, str]):
    """A read-only token->lemma table that remembers the lemmas it computes.

    ``lemma`` runs ``lemmatize`` once per distinct token, so its memo
    holds one entry per distinct token and lives as long as the table.
    Each table has its own memo.
    """

    def __init__(self, exceptions: Mapping[str, str]) -> None:
        self._exceptions = dict(exceptions)
        self._lemmas: dict[str, str] = {}

    def __getitem__(self, token: str) -> str:
        return self._exceptions[token]

    def __iter__(self) -> Iterator[str]:
        return iter(self._exceptions)

    def __len__(self) -> int:
        return len(self._exceptions)

    def lemma(self, token: str) -> str:
        """``lemmatize(token, self)``, remembered."""
        lemma = self._lemmas.get(token)
        if lemma is None:
            lemma = self._lemmas[token] = lemmatize(token, self._exceptions)
        return lemma


def load_lemma_table(path: str | Path | None = None) -> LemmaTable:
    """Load a token->lemma table; ``None`` loads the bundled one."""
    if path is None:
        return LemmaTable(_default_lemma_table())
    return LemmaTable(_parse_lemma_table(read_utf8(path), str(path)))


def _is_vowel(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return True
    # y acts as a vowel when it follows a consonant ("try", "style").
    return c == "y" and i > 0 and not _is_vowel(word, i - 1)


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions (Porter's m)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = _is_vowel(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    return (
        not _is_vowel(stem, len(stem) - 3)
        and _is_vowel(stem, len(stem) - 2)
        and not _is_vowel(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _repair_stem(stem: str) -> str:
    """Fix up a stem after removing -ed/-ing/-er/-est."""
    if (
        len(stem) >= 4
        and stem[-1] == stem[-2]
        and not _is_vowel(stem, len(stem) - 1)
        and stem[-1] not in _NO_UNDOUBLE
    ):
        return stem[:-1]          # stopped -> stop
    if stem[-1] in "uvz":
        return stem + "e"         # remov -> remove, issu -> issue, siz -> size
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"         # mak -> make, writ -> write
    return stem


def _strip_once(token: str) -> str:
    if len(token) <= 3:
        return token
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("ied") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("es") and token[:-2].endswith(("ss", "x", "zz", "ch", "sh")):
        return token[:-2]
    if token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    if token.endswith("ed") and len(token) >= 5 and token[-3] != "e":
        return _repair_stem(token[:-2])
    if token.endswith("ing") and len(token) >= 6:
        return _repair_stem(token[:-3])
    if token.endswith(("er", "est")):
        cut = 2 if token.endswith("er") else 3
        if len(token) - cut >= 3:
            return _repair_stem(token[:-cut])
    return token


def lemmatize(token: str, table: Mapping[str, str] | None = None) -> str:
    """Map a lowercase alphabetic token to its lemma.

    Dictionary lemmas (irregular verbs/nouns plus guarded common words)
    win; otherwise suffix rules for plurals, -ed, -ing and comparatives
    apply until a fixed point, which makes the function idempotent.
    Tokens outside [a-z]+ pass through unchanged.
    """
    if not _LOWER_ALPHA.match(token):
        return token
    lemmas = table if table is not None else _default_lemma_table()
    if token in lemmas:
        return lemmas[token]
    current = token
    for _ in range(10):
        stripped = _strip_once(current)
        if stripped == current:
            return current
        if stripped in lemmas:
            return lemmas[stripped]
        current = stripped
    return current


def preprocess(
    comment_text: str,
    patterns: Patterns,
    lemma_table: Mapping[str, str] | None = None,
) -> TokenSequence:
    """Full pipeline: abstract, lowercase, clean, tokenize, lemmatize.

    A ``LemmaTable`` remembers its lemmas from call to call; a plain
    mapping, or ``None`` for the bundled table, is wrapped in a new one.
    """
    return preprocess_many([comment_text], patterns, lemma_table)[0]


def preprocess_many(
    texts: Sequence[str],
    patterns: Patterns,
    lemma_table: Mapping[str, str] | None = None,
) -> list[TokenSequence]:
    """``preprocess`` of each text, in one pass over them all.

    The texts are abstracted and lowercased as one string, joined by line
    breaks, and split back at them: text i owns the next
    ``texts[i].count("\\n") + 1`` lines.  This equals one text at a time
    because no abstraction pattern matches a line break, a line start
    looks like a string start to ``(?<![A-Za-z])`` and ``\\b``, and
    lowercasing is per character (its one context rule, the Greek final
    sigma, reads a line break as a text boundary).
    """
    if not isinstance(lemma_table, LemmaTable):
        lemma_table = LemmaTable(_default_lemma_table() if lemma_table is None else lemma_table)
    lines = abstract_terms("\n".join(texts), patterns).lower().split("\n")
    rows: list[TokenSequence] = []
    end = 0
    for text in texts:
        start, end = end, end + text.count("\n") + 1
        rows.append(_WORD.findall(" ".join(lines[start:end])))
    lemmas = {word: lemma_table.lemma(word) for word in set(chain.from_iterable(rows))}
    return [[lemmas[word] for word in row] for row in rows]
