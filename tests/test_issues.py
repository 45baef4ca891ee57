"""Oracle tests for issue-reference detection and term abstraction.

The expected regex sources are written out verbatim so any drift in the
pattern tables is caught, and the positive/negative corpora were checked
by hand against those sources before the first test run.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onhold.errors import ConfigError
from onhold.issues import (
    ABSTRACT_ISSUE_ID,
    ABSTRACT_URL,
    PatternCollection,
    PatternSet,
    TrackerKind,
    abstract_terms,
    build_patterns,
    derive_patterns,
    dump_pattern_sources,
    find_issue_references,
)


class TestTrackerKind:
    def test_parse_accepts_known_names_case_insensitively(self):
        assert TrackerKind.parse(" Jira ") is TrackerKind.JIRA
        assert TrackerKind.parse("BUGZILLA") is TrackerKind.BUGZILLA
        assert TrackerKind.parse("github") is TrackerKind.GITHUB

    def test_parse_rejects_unknown_tracker(self):
        with pytest.raises(ConfigError):
            TrackerKind.parse("codeberg")


class TestPatternInstantiation:
    def test_bugzilla_sources_verbatim(self, bugzilla_patterns):
        assert bugzilla_patterns.detection_patterns == (
            r"(?<![A-Za-z])(?:bug|ant|bugzilla|bz)[ -](?:#)?\d+(?:\.[0-9xX*]+)*",
            r"https?:\/\/[\w._/]*show_bug\.cgi\?id=\d+",
        )

    def test_github_sources_verbatim(self, github_patterns):
        assert github_patterns.detection_patterns == (
            r"(?<![A-Za-z])(?:bug|issues?)[ -](?:#)?\d+(?:\.[0-9xX*]+)*",
            r"https?:\/\/github\.com\/[\w._/]*\/issues\/\d+",
        )

    def test_jira_sources_verbatim(self, jira_patterns):
        assert jira_patterns.detection_patterns == (
            r"(?<![A-Za-z])(?:bug|hadoop)[ -](?:#)?\d+(?:\.[0-9xX*]+)*",
        )

    def test_empty_project_key_drops_the_alternative(self):
        pset = build_patterns(TrackerKind.BUGZILLA, "")
        assert pset.detection_patterns[0] == (
            r"(?<![A-Za-z])(?:bug|bugzilla|bz)[ -](?:#)?\d+(?:\.[0-9xX*]+)*"
        )

    def test_jira_abstraction_runs_url_rule_before_id_rule(self, jira_patterns):
        sources = [src for src, _ in jira_patterns.abstraction_patterns]
        assert sources[0] == r"https?://issues\.apache\.org/jira/browse/(?:hadoop)-\d+"
        assert sources[1] == jira_patterns.detection_patterns[0]

    def test_last_abstraction_rule_is_the_generic_url(self, jira_patterns):
        _, token = jira_patterns.abstraction_patterns[-1]
        assert token == ABSTRACT_URL

    def test_project_key_is_stored_uppercased(self):
        assert build_patterns(TrackerKind.JIRA, "hadoop").project_key == "HADOOP"

    def test_project_key_is_regex_escaped(self):
        pset = build_patterns(TrackerKind.JIRA, "A.B")
        assert [r.issue_number for r in find_issue_references("A.B-12", pset)] == [12]
        assert find_issue_references("AxB-12", pset) == []

    def test_jira_requires_a_project_key(self):
        with pytest.raises(ConfigError):
            build_patterns(TrackerKind.JIRA, "")
        with pytest.raises(ConfigError):
            build_patterns(TrackerKind.JIRA, "   ")

    @pytest.mark.parametrize("tracker", list(TrackerKind))
    @pytest.mark.parametrize("key", ["HA\nDOOP", "HA\r\nDOOP", "HA\u2028DOOP"])
    def test_a_project_key_with_a_line_break_is_refused(self, tracker, key):
        # A key spanning lines would let a reference match across a
        # line break of the comment text.
        with pytest.raises(ConfigError, match="line break") as caught:
            build_patterns(tracker, key)
        assert repr(key) in str(caught.value)

    def test_empty_collection_is_rejected(self):
        with pytest.raises(ConfigError):
            PatternCollection(())

    def test_derived_sets_cover_each_jira_prefix_once(self):
        derived = derive_patterns(["HADOOP-1", "hbase-2", "7", " HADOOP-3 "])
        assert [(p.tracker, p.project_key) for p in derived.sets] == [
            (TrackerKind.BUGZILLA, ""),
            (TrackerKind.GITHUB, ""),
            (TrackerKind.JIRA, "HADOOP"),
            (TrackerKind.JIRA, "HBASE"),
        ]

    def test_dump_lists_every_source(self, all_patterns):
        dump = dump_pattern_sources(all_patterns)
        assert "[jira (HADOOP)]" in dump
        assert "[bugzilla (ANT)]" in dump
        assert "[github (APACHE/DUBBO)]" in dump
        assert "detect\t" in dump
        assert f"abstract:{ABSTRACT_ISSUE_ID}\t" in dump
        assert f"abstract:{ABSTRACT_URL}\t" in dump


class TestDetectionPositives:
    def test_bugzilla_bare_id(self, bugzilla_patterns):
        (ref,) = find_issue_references("Bug 34383", bugzilla_patterns)
        assert ref.issue_number == 34383
        assert ref.matched_text == "Bug 34383"
        assert ref.key == "34383"

    def test_bugzilla_url(self, bugzilla_patterns):
        text = "https://bz.apache.org/bugzilla/show_bug.cgi?id=51687"
        (ref,) = find_issue_references(text, bugzilla_patterns)
        assert ref.issue_number == 51687
        assert ref.matched_text == text

    def test_github_bare_id(self, github_patterns):
        (ref,) = find_issue_references("issue 55", github_patterns)
        assert ref.issue_number == 55

    def test_github_hash_id(self, github_patterns):
        (ref,) = find_issue_references("Issue #55", github_patterns)
        assert ref.issue_number == 55

    def test_github_url(self, github_patterns):
        text = "https://github.com/apache/dubbo/issues/3251"
        (ref,) = find_issue_references(text, github_patterns)
        assert ref.issue_number == 3251
        assert ref.key == "3251"

    def test_jira_key(self, jira_patterns):
        (ref,) = find_issue_references("HADOOP-7234", jira_patterns)
        assert ref.issue_number == 7234
        assert ref.key == "HADOOP-7234"
        assert ref.tracker is TrackerKind.JIRA

    def test_jira_key_is_case_insensitive(self, jira_patterns):
        (ref,) = find_issue_references("see hadoop-7234", jira_patterns)
        assert ref.key == "HADOOP-7234"

    def test_jira_browse_url_detects_via_the_embedded_key(self, jira_patterns):
        text = "https://issues.apache.org/jira/browse/HADOOP-7234"
        (ref,) = find_issue_references(text, jira_patterns)
        assert ref.issue_number == 7234
        assert ref.matched_text == "HADOOP-7234"

    def test_bugzilla_space_hash_form(self, bugzilla_patterns):
        (ref,) = find_issue_references("bz #123", bugzilla_patterns)
        assert ref.issue_number == 123

    def test_version_suffix_is_part_of_the_match(self, bugzilla_patterns):
        (ref,) = find_issue_references("fixed in ant 1.6.x", bugzilla_patterns)
        assert ref.matched_text == "ant 1.6.x"
        assert ref.issue_number == 1

    def test_char_span_slices_back_to_matched_text(self, all_patterns):
        text = "wait for HADOOP-123 or Bug 45 here"
        for ref in find_issue_references(text, all_patterns):
            lo, hi = ref.char_span
            assert text[lo:hi] == ref.matched_text


# Thirty phrases that must not produce any reference for any of the three
# instantiated pattern sets (Bugzilla "ant", GitHub, Jira "HADOOP").
NEGATIVE_CORPUS = [
    "debug 123",
    "debugging 55",
    "bug",
    "bug #",
    "bug 0",
    "bugs 3",
    "bug-free code",
    "bugfix 12",
    "Bug:123",
    "bug.123",
    "bug\t42",
    "bz#123",
    "bz2 archive",
    "HADOOP-",
    "HADOOP-x12",
    "XHADOOP-123",
    "HADOOP_123",
    "org.apache.hadoop.fs.Path",
    "hadoop-common module",
    "the hadoop cluster",
    "tissue 99",
    "reissued 7",
    "issueX 5",
    "issues/3251",
    "github.com/apache/dubbo/issues/3251",
    "https://github.com/apache/dubbo/pull/3251",
    "antenna 5",
    "want 7",
    "version 1.2.3",
    "TODO: fix this properly",
]


class TestDetectionNegatives:
    @pytest.mark.parametrize("text", NEGATIVE_CORPUS)
    def test_no_reference_is_found(self, text, all_patterns):
        assert find_issue_references(text, all_patterns) == []

    def test_corpus_has_thirty_cases(self):
        assert len(NEGATIVE_CORPUS) == 30
        assert len(set(NEGATIVE_CORPUS)) == 30


class TestReferenceSelection:
    def test_references_come_back_in_text_order(self, jira_patterns):
        refs = find_issue_references(
            "see HADOOP-123 and then HADOOP-456", jira_patterns
        )
        assert [r.issue_number for r in refs] == [123, 456]

    def test_overlapping_sets_yield_one_reference(self, all_patterns):
        refs = find_issue_references("bug 123", all_patterns)
        assert len(refs) == 1
        assert refs[0].issue_number == 123

    def test_longest_match_wins_at_the_same_start(self, bugzilla_patterns):
        (ref,) = find_issue_references("bug 123.4x", bugzilla_patterns)
        assert ref.matched_text == "bug 123.4x"

    def test_no_two_references_overlap(self, all_patterns):
        text = "Bug 1 bug 2 HADOOP-3 issue 4 and Bug 5"
        refs = find_issue_references(text, all_patterns)
        spans = [r.char_span for r in refs]
        assert spans == sorted(spans)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo >= hi


class TestAbstraction:
    def test_jira_key_becomes_the_issue_placeholder(self, jira_patterns):
        out = abstract_terms("remove after HADOOP-11938", jira_patterns)
        assert out == f"remove after {ABSTRACT_ISSUE_ID}"

    def test_bugzilla_id_becomes_the_issue_placeholder(self, bugzilla_patterns):
        out = abstract_terms("fix once Bug 34383 lands", bugzilla_patterns)
        assert out == f"fix once {ABSTRACT_ISSUE_ID} lands"

    def test_plain_url_becomes_the_url_placeholder(self, jira_patterns):
        out = abstract_terms("see https://example.com/docs for details", jira_patterns)
        assert out == f"see {ABSTRACT_URL} for details"

    def test_jira_browse_url_collapses_to_one_token(self, jira_patterns):
        text = "until https://issues.apache.org/jira/browse/HADOOP-11938 lands"
        assert abstract_terms(text, jira_patterns) == f"until {ABSTRACT_ISSUE_ID} lands"

    def test_github_issue_url_is_an_issue_not_a_url(self, github_patterns):
        out = abstract_terms("https://github.com/apache/dubbo/issues/3251", github_patterns)
        assert out == ABSTRACT_ISSUE_ID

    def test_bugzilla_show_bug_url_is_an_issue(self, bugzilla_patterns):
        text = "https://bz.apache.org/bugzilla/show_bug.cgi?id=51687"
        assert abstract_terms(text, bugzilla_patterns) == ABSTRACT_ISSUE_ID

    def test_mixed_text_with_a_collection(self, all_patterns):
        text = "Bug 34383 and https://github.com/a/b/issues/9 and http://example.io/path"
        out = abstract_terms(text, all_patterns)
        assert out == (
            f"{ABSTRACT_ISSUE_ID} and {ABSTRACT_ISSUE_ID} and {ABSTRACT_URL}"
        )

    def test_text_without_references_is_unchanged(self, all_patterns):
        assert abstract_terms("nothing to see here", all_patterns) == "nothing to see here"

    @pytest.mark.parametrize(
        "text",
        [
            "remove after HADOOP-11938",
            "Bug 34383 and https://github.com/a/b/issues/9",
            "see https://example.com/docs",
            "plain words only",
            f"{ABSTRACT_ISSUE_ID} {ABSTRACT_URL}",
        ],
    )
    def test_abstraction_is_idempotent(self, text, all_patterns):
        once = abstract_terms(text, all_patterns)
        assert abstract_terms(once, all_patterns) == once


SETS = (
    build_patterns(TrackerKind.BUGZILLA),
    build_patterns(TrackerKind.BUGZILLA, "ant"),
    build_patterns(TrackerKind.GITHUB),
    build_patterns(TrackerKind.JIRA, "HADOOP"),
    build_patterns(TrackerKind.JIRA, "ANT"),
)
# Issue ids and URLs of every tracker, generic URLs, placeholders and joints.
FRAGMENTS = (
    "\n", " ", "-", "#", ".", "/", "?", "İ", "\u212a", "bug 12", "Bug #3", "bz 9", "ant 3",
    "ANT-3", "HADOOP-7", "hadoop-7.x", "issue #4", "issues-5",
    "https://issues.apache.org/jira/browse/HADOOP-3", "http://issues.apache.org/jira/browse/ANT-8",
    "https://github.com/a/b/issues/5", "http://bz.example.org/show_bug.cgi?id=6",
    "https://example.com/a?b=1", "http://www.example.org", "https://x.io/", "www.example.org",
    ABSTRACT_ISSUE_ID, ABSTRACT_URL, "see", "0",
)


def reference_abstract_terms(text: str, sets: tuple[PatternSet, ...]) -> str:
    """Every set's issue rules in set order, then the generic URL rule once."""
    for pset in sets:
        for source, token in pset.abstraction_patterns[:-1]:
            text = re.sub(source, token, text, flags=re.IGNORECASE)
    source, token = sets[0].abstraction_patterns[-1]
    return re.sub(source, token, text, flags=re.IGNORECASE)


class TestAbstractionRule:
    def test_every_set_ends_in_the_same_generic_url_rule(self):
        assert {pset.abstraction_patterns[-1] for pset in SETS} == {
            (SETS[0].abstraction_patterns[-1][0], ABSTRACT_URL)
        }
        for pset in SETS:
            assert all(token == ABSTRACT_ISSUE_ID for _, token in pset.abstraction_patterns[:-1])

    @given(
        st.lists(st.sampled_from(SETS), min_size=1, max_size=3),
        st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=10).map("".join),
    )
    def test_abstract_terms_equals_the_rule(self, sets, text):
        expected = reference_abstract_terms(text, tuple(sets))
        assert abstract_terms(text, PatternCollection(tuple(sets))) == expected
        if len(sets) == 1:
            assert abstract_terms(text, sets[0]) == expected
