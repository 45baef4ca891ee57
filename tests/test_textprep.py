"""Oracle tests for comment text cleaning and lemmatization.

Expected lemmas were derived by hand from the suffix rules (plural,
-ed, -ing, comparative stripping with stem repair) and the bundled
exception table before running the implementation.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onhold.errors import DataFormatError
from onhold.issues import TrackerKind, abstract_terms, build_patterns, derive_patterns
from onhold.textprep import (
    LemmaTable,
    clean,
    lemmatize,
    load_lemma_table,
    preprocess,
    preprocess_many,
)


class TestClean:
    def test_specials_become_single_spaces(self):
        assert clean("a-b_c! d") == "a b c d"

    def test_only_specials_become_empty(self):
        assert clean("!!! ??? ***") == ""

    def test_alphanumerics_survive(self):
        assert clean("abc123 DEF") == "abc123 DEF"

    def test_runs_collapse(self):
        assert clean("a --- b") == "a b"

    def test_non_ascii_letters_are_treated_as_specials(self):
        assert clean("café") == "caf"


LEMMA_ORACLES = [
    # suffix rules, worked out by hand
    ("singing", "sing"),
    ("sings", "sing"),
    ("fixed", "fix"),
    ("committed", "commit"),
    ("removed", "remove"),
    ("issues", "issue"),
    ("added", "add"),
    ("meetings", "meet"),
    ("waiting", "wait"),
    ("call", "call"),
    ("speed", "speed"),
    ("exceed", "exceed"),
    ("this", "this"),
    ("its", "its"),
    ("status", "status"),
    # dictionary lemmas
    ("sang", "sing"),
    ("sung", "sing"),
    ("was", "be"),
    ("is", "be"),
    ("using", "use"),
    ("created", "create"),
    ("completed", "complete"),
    ("better", "good"),
    ("earlier", "early"),
    ("children", "child"),
    ("indices", "index"),
    ("statuses", "status"),
    # guarded words the rules would otherwise mangle
    ("after", "after"),
    ("string", "string"),
    ("during", "during"),
    ("nothing", "nothing"),
    ("ongoing", "ongoing"),
    # pipeline placeholders must pass through untouched
    ("abstractissueid", "abstractissueid"),
    ("abstracturl", "abstracturl"),
]


class TestLemmatize:
    @pytest.mark.parametrize("token,lemma", LEMMA_ORACLES)
    def test_oracle(self, token, lemma):
        assert lemmatize(token) == lemma

    def test_non_lowercase_tokens_pass_through(self):
        assert lemmatize("ABC") == "ABC"
        assert lemmatize("db2") == "db2"
        assert lemmatize("") == ""

    def test_bundled_dictionary_values_are_fixpoints(self):
        table = load_lemma_table()
        for lemma in set(table.values()):
            assert lemmatize(lemma) == lemma, lemma

    @given(st.from_regex(r"[a-z]{1,12}", fullmatch=True))
    def test_idempotent_on_lowercase_words(self, word):
        once = lemmatize(word)
        assert lemmatize(once) == once

    def test_explicit_table_wins(self):
        assert lemmatize("foo", {"foo": "bar"}) == "bar"

    def test_explicit_table_disables_the_bundled_one(self):
        assert lemmatize("does", {}) == "doe"


class TestLoadLemmaTable:
    def test_bundled_table_loads(self):
        table = load_lemma_table()
        assert table["was"] == "be"
        assert len(table) > 100

    def test_custom_table_from_file(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("# comment\n\nfoo\tbar\n", encoding="utf-8")
        assert load_lemma_table(path) == {"foo": "bar"}

    def test_table_is_read_only(self):
        table = load_lemma_table()
        with pytest.raises(TypeError):
            table["was"] = "is"  # type: ignore[index]

    def test_malformed_line_is_rejected_with_its_number(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("foo\tbar\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="2"):
            load_lemma_table(path)


class TestPreprocess:
    def test_on_hold_comment(self, jira_patterns):
        tokens = preprocess("TODO: workaround, to remove after HADOOP-11938", jira_patterns)
        assert tokens == ["todo", "workaround", "to", "remove", "after", "abstractissueid"]

    def test_url_comment(self, jira_patterns):
        tokens = preprocess("Until https://example.com is up!", jira_patterns)
        assert tokens == ["until", "abstracturl", "be", "up"]

    def test_stop_words_are_kept(self, jira_patterns):
        tokens = preprocess("this is a test of the system", jira_patterns)
        assert tokens == ["this", "be", "a", "test", "of", "the", "system"]

    def test_case_is_folded(self, jira_patterns):
        assert preprocess("FIXED", jira_patterns) == ["fix"]

    def test_empty_text(self, jira_patterns):
        assert preprocess("", jira_patterns) == []

    def test_custom_lemma_table_is_honored(self, jira_patterns):
        tokens = preprocess("foo bar", jira_patterns, lemma_table={"foo": "baz"})
        assert tokens == ["baz", "bar"]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    def test_tokens_are_lowercase_alphanumeric(self, jira_patterns, text):
        for token in preprocess(text, jira_patterns):
            assert token
            assert token == token.lower()
            assert all(c.isascii() and (c.isalnum()) for c in token)


class TestLemmaMemo:
    """A ``LemmaTable`` remembers its lemmas; the tokens still map as ``lemmatize`` maps them."""

    TEXT = (
        "Was fixed after HADOOP-11938; sings, sang and singing: the meetings were "
        "added, removed and added again. foo foo bar statuses DB2 waiting"
    )

    def per_token(self, text, patterns, table):
        tokens = clean(abstract_terms(text, patterns).lower()).split()
        return [lemmatize(tok, table) for tok in tokens]

    @pytest.mark.parametrize("source", ["bundled", "custom"])
    def test_equals_a_per_token_lemmatize_loop(self, jira_patterns, tmp_path, source):
        if source == "bundled":
            table = load_lemma_table()
        else:
            path = tmp_path / "lemmas.tsv"
            path.write_text("foo\tbaz\nsang\tsong\nmeet\tgather\n", encoding="utf-8")
            table = load_lemma_table(path)
        expected = self.per_token(self.TEXT, jira_patterns, dict(table))
        assert "abstractissueid" in expected
        assert preprocess(self.TEXT, jira_patterns, table) == expected
        # Second pass: every token now comes from the memo.
        assert preprocess(self.TEXT, jira_patterns, table) == expected

    @given(st.text(alphabet="abdeginrsy XZ2-", max_size=80))
    def test_random_text_equals_the_loop(self, jira_patterns, text):
        table = load_lemma_table()
        expected = self.per_token(text, jira_patterns, None)
        assert preprocess(text, jira_patterns, table) == expected
        assert preprocess(text, jira_patterns, table) == expected

    def test_two_tables_keep_their_own_lemmas(self, jira_patterns):
        plain, custom = LemmaTable({}), LemmaTable({"foo": "baz", "does": "do"})
        for _ in range(2):
            assert preprocess("foo does", jira_patterns, plain) == ["foo", "doe"]
            assert preprocess("foo does", jira_patterns, custom) == ["baz", "do"]
        assert preprocess("foo does", jira_patterns, load_lemma_table()) == ["foo", "do"]


def oracle_preprocess(comment_text, patterns, lemma_table=None):
    """One text at a time: abstract, lowercase, clean, split, lemmatize."""
    abstracted = abstract_terms(comment_text, patterns)
    tokens = clean(abstracted.lower()).split()
    if isinstance(lemma_table, LemmaTable):
        return [lemma_table.lemma(tok) for tok in tokens]
    return [lemmatize(tok, lemma_table) for tok in tokens]


# Line breaks, letters whose lowercase is or holds ASCII (dotted I, the
# Kelvin sign, long s), references at line starts and ends, and URLs.
PIECES = (
    "\n", "\r", "\r\n", "\x85", "\u2028", " ", "-", "#", ".", "İ", "\u212a", "ſ", "Σ", "ΑΣ",
    "bug 12", "\nbug 12", "HADOOP-7", "\nHADOOP-7", "HADOOP-7\n", "hadoop-7.x", "ant 3",
    "issue #4", "bz 9", "https://issues.apache.org/jira/browse/HADOOP-3",
    "https://github.com/a/b/issues/5", "http://bz.example.org/show_bug.cgi?id=6",
    "https://example.com/a?b=1", "www.example.org", "fixed", "Waiting", "statuses",
    "DB2", "x", "0",
)
TEXTS = st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=12).map("".join)
PATTERN_SETS = (
    derive_patterns(["HADOOP-1"]),
    build_patterns(TrackerKind.BUGZILLA, "ant"),
    build_patterns(TrackerKind.GITHUB),
)


def lemma_tables():
    """The bundled LemmaTable, a fresh custom one, the same as a plain dict, or none."""
    custom = {"fixed": "repair", "hadoop": "elephant", "x": "y", "waiting": "wait"}
    return st.sampled_from(["bundled", "custom", "plain", "none"]).map(
        lambda kind: {
            "bundled": load_lemma_table,
            "custom": lambda: LemmaTable(custom),
            "plain": lambda: dict(custom),
            "none": lambda: None,
        }[kind]()
    )


@st.composite
def batches(draw, counts):
    """``n`` texts cycled with a drawn stride from a drawn pool, so long batches stay cheap."""
    n = draw(st.sampled_from(counts))
    pool = draw(st.lists(TEXTS, min_size=1, max_size=16))
    stride = draw(st.integers(1, 7))
    return [pool[(i * stride) % len(pool)] for i in range(n)]


class TestPreprocessMany:
    """``preprocess_many`` equals ``oracle_preprocess`` on every text."""

    @settings(max_examples=300)
    @given(batches(range(9)), st.sampled_from(PATTERN_SETS), lemma_tables())
    @example(["HADOOP-7\nbug 12", "\n", "", "see\rHADOOP-7\n"], PATTERN_SETS[0], None)
    def test_short_batches_equal_the_oracle(self, texts, patterns, table):
        assert preprocess_many(texts, patterns, table) == [
            oracle_preprocess(text, patterns, table) for text in texts
        ]

    @settings(max_examples=25, deadline=None)
    @given(batches((0, 1, 1023, 1024, 1025, 1026)), st.sampled_from(PATTERN_SETS),
           lemma_tables())
    def test_batches_at_chunk_edges_equal_the_oracle(self, texts, patterns, table):
        assert preprocess_many(texts, patterns, table) == [
            oracle_preprocess(text, patterns, table) for text in texts
        ]

    @given(TEXTS, st.sampled_from(PATTERN_SETS))
    def test_preprocess_is_a_batch_of_one(self, text, patterns):
        assert preprocess(text, patterns) == oracle_preprocess(text, patterns)
