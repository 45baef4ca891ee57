"""Oracle tests for the Java comment lexer.

Every expectation in this module was worked out by hand from the Java
lexical grammar (string, text-block, char, and comment token rules) before
running the implementation.  ``reference_comments`` below is an independent
character-by-character scanner that the token grammar must agree with.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onhold.javalex import CommentBlock, extract_comments, normalize_whitespace, relex


def blocks(source: str):
    return extract_comments(source, "Demo.java")


def spans(source: str):
    """(start_line, end_line, normalized_text) triples for terse checks."""
    return [(b.start_line, b.end_line, b.normalized_text) for b in blocks(source)]


class TestLineComments:
    def test_trailing_line_comment(self):
        assert spans("int x; // fix later\n") == [(1, 1, "fix later")]

    def test_raw_text_keeps_delimiters(self):
        (block,) = blocks("int x; // fix later\n")
        assert block.raw_text == "// fix later"

    def test_comment_without_trailing_newline(self):
        assert spans("int x; // fix later") == [(1, 1, "fix later")]

    def test_empty_line_comment_is_kept(self):
        assert spans("//\nint x;\n") == [(1, 1, "")]

    def test_adjacent_line_comments_merge(self):
        source = "// first\n// second\nint x;\n"
        assert spans(source) == [(1, 2, "first\nsecond")]

    def test_line_comments_split_by_code_stay_separate(self):
        source = "// first\nint x;\n// second\n"
        assert spans(source) == [(1, 1, "first"), (3, 3, "second")]

    def test_unicode_comment_text(self):
        assert spans("// café again\n") == [(1, 1, "café again")]

    def test_division_is_not_a_comment(self):
        assert spans("int z = a / b * c; // math\n") == [(1, 1, "math")]

    def test_carriage_return_line_endings(self):
        source = "// one\r\n// two\r\nint x;\r\n"
        assert spans(source) == [(1, 2, "one\ntwo")]


class TestBlockComments:
    def test_single_line_block(self):
        assert spans("/* a */ int x;\n") == [(1, 1, "a")]

    def test_multiline_block_keeps_interior_newline(self):
        assert spans("/* multi\n line */") == [(1, 2, "multi\n line")]

    def test_empty_block(self):
        (block,) = blocks("/**/")
        assert block.raw_text == "/**/"
        assert block.normalized_text == ""

    def test_javadoc_keeps_leading_star(self):
        source = "/** docs for foo */\nvoid foo() {}\n"
        assert spans(source) == [(1, 1, "* docs for foo")]

    def test_unterminated_block_extends_to_eof(self):
        source = "int a;\n/* oops\nmore"
        (block,) = blocks(source)
        assert (block.start_line, block.end_line) == (2, 3)
        assert block.normalized_text == "oops\nmore"
        assert block.unterminated is True

    def test_terminated_blocks_are_not_flagged(self):
        (block,) = blocks("/* fine */\n")
        assert block.unterminated is False


class TestMerging:
    def test_block_then_line_on_same_line(self):
        source = "/* a */ // b\n"
        (block,) = blocks(source)
        assert (block.start_line, block.end_line) == (1, 1)
        assert block.normalized_text == "a\nb"
        assert block.raw_text == "/* a */ // b"

    def test_back_to_back_blocks_merge(self):
        (block,) = blocks("/*a*//*b*/")
        assert block.normalized_text == "a\nb"
        assert block.raw_text == "/*a*//*b*/"

    def test_block_then_indented_line_comment(self):
        source = "/* a\nb */\n  // c\n"
        assert spans(source) == [(1, 3, "a\nb\nc")]

    def test_code_between_comments_prevents_merge(self):
        source = "/* a */ int x; // b\n"
        assert spans(source) == [(1, 1, "a"), (1, 1, "b")]


class TestLiteralSkipping:
    def test_string_literal_is_not_a_comment(self):
        assert spans('String s = "// not a comment";\n') == []

    def test_escaped_quote_inside_string(self):
        source = 'String s = "a\\"// no"; // real\n'
        assert spans(source) == [(1, 1, "real")]

    def test_char_literal_with_quote(self):
        assert spans("char c = '\"'; // quote char\n") == [(1, 1, "quote char")]

    def test_char_literal_with_escaped_quote(self):
        assert spans("char c = '\\''; // escaped quote\n") == [(1, 1, "escaped quote")]

    def test_char_literal_index(self):
        assert spans("int i = arr['a']; // idx\n") == [(1, 1, "idx")]

    def test_stray_apostrophe_is_tolerated(self):
        assert spans("int x; ' y; // tail\n") == [(1, 1, "tail")]

    def test_apostrophe_inside_comment_text(self):
        assert spans("// it's fine\n") == [(1, 1, "it's fine")]

    def test_raw_newline_ends_a_string(self):
        assert spans('String s = "open\n// next\n') == [(2, 2, "next")]

    def test_text_block_is_a_literal(self):
        source = (
            'String t = """\n'
            "    see https://issues.apache.org/jira/browse/HADOOP-7 // no\n"
            '    /* nor */ \\""" still inside\n'
            '    """; // TODO HADOOP-3\n'
        )
        assert spans(source) == [(4, 4, "TODO HADOOP-3")]

    def test_triple_quote_without_newline_is_not_a_text_block(self):
        # An empty string followed by a string that a raw newline ends.
        assert spans('String t = """ x // y\n// z\n') == [(2, 2, "z")]

    def test_unclosed_text_block_runs_to_end_of_file(self):
        assert spans('String t = """\n// a\n') == []
        assert spans('// a\nString t = """\n// b\\') == [(1, 1, "a")]

    def test_escaped_closings_after_an_unclosed_opening(self):
        # Each escaped `\"""` line would open a new text block if the
        # unclosed one before it fell back to strings.
        assert spans('"""\n' + '\\"""\n// c\n' * 5000) == []


class TestLineNumbers:
    def test_backslash_newline_in_a_string_still_counts_the_line(self):
        source = 'String s = "abc\\\nstill";\n// TODO HADOOP-1\n'
        assert spans(source) == [(3, 3, "TODO HADOOP-1")]

    def test_backslash_newline_in_a_char_literal_still_counts_the_line(self):
        source = "char c = '\\\n'; x\n// TODO HADOOP-2\n"
        assert spans(source) == [(3, 3, "TODO HADOOP-2")]

    def test_every_block_keeps_its_own_line(self):
        source = "int a;\n// first\nint x;\n/* second\n */ int y;\n// third\n"
        assert spans(source) == [(2, 2, "first"), (4, 5, "second"), (6, 6, "third")]


class TestWholeFileInvariants:
    SOURCES = [
        "",
        "int x = 1;\n",
        "int x; // fix later\n",
        "/* a */ // b\n",
        "// first\n// second\nint x;\n",
        "/* multi\n line */",
        "int a;\n/* oops\nmore",
        "/** docs */\nvoid f() {}\n// tail\n",
        'String s = "// no"; /* yes */\n',
        "/*a*//*b*/ code(); // c\n",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_blocks_are_sorted_and_disjoint(self, source):
        found = blocks(source)
        for earlier, later in zip(found, found[1:]):
            assert earlier.end_line <= later.start_line
            assert earlier.start_line <= later.start_line

    @pytest.mark.parametrize("source", SOURCES)
    def test_raw_text_starts_with_a_delimiter(self, source):
        for block in blocks(source):
            assert block.raw_text.startswith(("//", "/*"))
            assert 1 <= block.start_line <= block.end_line

    @pytest.mark.parametrize("source", SOURCES)
    def test_file_path_is_propagated(self, source):
        for block in extract_comments(source, "src/A.java"):
            assert block.file_path == "src/A.java"

    def test_empty_source_yields_nothing(self):
        assert blocks("") == []

    def test_source_without_comments_yields_nothing(self):
        assert blocks("int x = 1;\nString s = \"//\";\n") == []


class TestCommentBlockValidation:
    def test_rejects_reversed_line_range(self):
        with pytest.raises(ValueError):
            CommentBlock(
                file_path="A.java",
                start_line=5,
                end_line=4,
                raw_text="// x",
                normalized_text="x",
            )

    def test_rejects_foreign_raw_text(self):
        with pytest.raises(ValueError):
            CommentBlock(
                file_path="A.java",
                start_line=1,
                end_line=1,
                raw_text="not a comment",
                normalized_text="x",
            )


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("  a\n\t b  ") == "a b"

    def test_empty_string(self):
        assert normalize_whitespace("") == ""

    def test_already_normal(self):
        assert normalize_whitespace("a b") == "a b"


# -- reference scanner ------------------------------------------------------
#
# The character-by-character scanner the token grammar replaced, kept as an
# independent oracle.  Two fixes over the original: line numbers come from
# offsets (it used to miss a newline escaped inside a string or char
# literal), and a text block is skipped as one literal.

_TEXT_BLOCK_OPEN = re.compile(r'"""[ \t\f]*\r?\n')


def _text_block_end(source: str, i: int) -> int | None:
    """Offset one past a text block opening at ``i`` (end of file when it
    is unclosed), or None when no text block opens there."""
    opening = _TEXT_BLOCK_OPEN.match(source, i)
    if opening is None:
        return None
    j, n = opening.end(), len(source)
    while j < n:
        if source[j] == "\\":
            j += 2
        elif source.startswith('"""', j):
            return j + 3
        else:
            j += 1
    return n


def _char_literal_end(source: str, i: int) -> int | None:
    """Offset one past a char literal starting at ``i``, or None."""
    j = i + 1
    n = len(source)
    while j < n and source[j] not in ("'", "\n"):
        j += 2 if source[j] == "\\" else 1
    if j < n and source[j] == "'" and j > i + 1:
        return j + 1
    return None


def _scan_segments(source: str) -> list[tuple[int, int, str, bool]]:
    """(start, end, inner text, unterminated) of every comment segment."""
    segments = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            start = i
            i += 2
            while i < n and source[i] != "\n":
                i += 1
            segments.append((start, i, source[start + 2:i].strip(), False))
        elif c == "/" and i + 1 < n and source[i + 1] == "*":
            start = i
            i += 2
            closed = False
            while i < n:
                if source[i] == "*" and i + 1 < n and source[i + 1] == "/":
                    i += 2
                    closed = True
                    break
                i += 1
            inner_end = i - 2 if closed else i
            segments.append((start, i, source[start + 2:inner_end].strip(), not closed))
        elif c == '"' and _text_block_end(source, i) is not None:
            i = _text_block_end(source, i)
        elif c == '"':
            i += 1
            while i < n and source[i] not in ('"', "\n"):
                i += 2 if source[i] == "\\" else 1
            if i < n and source[i] == '"':
                i += 1
        elif c == "'":
            end = _char_literal_end(source, i)
            i = i + 1 if end is None else end
        else:
            i += 1
    return segments


def reference_comments(source: str, file_path: str = "") -> list[CommentBlock]:
    def line_of(offset: int) -> int:
        return source.count("\n", 0, offset) + 1

    groups: list[list[tuple[int, int, str, bool]]] = []
    for segment in _scan_segments(source):
        if groups and source[groups[-1][-1][1]:segment[0]].strip() == "":
            groups[-1].append(segment)
        else:
            groups.append([segment])
    return [
        CommentBlock(
            file_path=file_path,
            start_line=line_of(group[0][0]),
            end_line=line_of(group[-1][1]),
            raw_text=source[group[0][0]:group[-1][1]],
            normalized_text="\n".join(segment[2] for segment in group),
            unterminated=any(segment[3] for segment in group),
        )
        for group in groups
    ]


# Single characters plus the delimiters, text-block openings and escaped
# newlines that random characters alone rarely form.
LEXER_ALPHABET = [
    "/", "*", '"', "'", "\\", "\n", "\r", "\t", "\f", "a", "é",
    "//", "/*", "*/", '"""', '"""\n', "\\\n",
]


class TestReferenceAgreement:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(LEXER_ALPHABET), max_size=60).map("".join))
    def test_token_grammar_matches_the_reference_scanner(self, source):
        assert extract_comments(source, "A.java") == reference_comments(source, "A.java")

    @pytest.mark.parametrize("source", TestWholeFileInvariants.SOURCES + [
        'String s = "abc\\\nstill";\n// TODO HADOOP-1\n',
        'String t = """\n// no\n""";\n// yes\n',
    ])
    def test_reference_agrees_on_the_examples(self, source):
        assert extract_comments(source) == reference_comments(source)


# -- relexing the changed window ---------------------------------------------

EDIT_ALPHABET = LEXER_ALPHABET + [" "]


def _pieces(max_size: int):
    return st.lists(st.sampled_from(EDIT_ALPHABET), max_size=max_size).map("".join)


def _blocks_from_runs(source: str, runs) -> list[CommentBlock]:
    """Each run's block, lexed alone from its slice as the miner builds one."""
    return [
        extract_comments(source[start:end], "A.java", source.count("\n", 0, start) + 1)[0]
        for start, end, _, _ in runs
    ]


def _splice_checked(old: str, old_runs, source: str):
    """``relex`` of one edit, checked against lexing ``source`` whole."""
    runs, lo, old_hi, new_hi = relex(old, old_runs, source)
    assert runs == relex("", [], source)[0]
    assert _blocks_from_runs(source, runs) == extract_comments(source, "A.java")
    # The runs outside the window are the old ones, those after it shifted.
    delta = len(source) - len(old)
    assert runs[:lo] == list(old_runs[:lo])
    assert runs[new_hi:] == [(s + delta, e + delta, t, u) for s, e, t, u in old_runs[old_hi:]]
    return runs


class TestRelex:
    @settings(max_examples=1500, deadline=None)
    @given(
        _pieces(40),
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 6), _pieces(8)), max_size=12),
    )
    def test_splicing_each_version_equals_lexing_it_whole(self, source, edits):
        runs = relex("", [], source)[0]
        for at, cut, insert in edits:
            at = min(at, len(source))
            new = source[:at] + insert + source[at + cut:]
            runs = _splice_checked(source, runs, new)
            source = new

    def test_a_quote_after_a_comment_turns_its_line_into_a_char_literal(self):
        # Restarting at the comment's own start, the last run start before
        # the change, would still find it: the char literal attempt that
        # begins at the first quote reads past the change.
        old = "x = 'ab /* c */ d\n"
        new = "x = 'ab /* c */ d'\n"
        assert spans(old) == [(1, 1, "c")]
        assert _splice_checked(old, relex("", [], old)[0], new) == []

    def test_a_backslash_newline_carries_the_char_literal_to_the_next_line(self):
        old = "x = 'ab /* c */ \\\nd\n"
        new = "x = 'ab /* c */ \\\nd'\n"
        assert spans(old) == [(1, 1, "c")]
        assert _splice_checked(old, relex("", [], old)[0], new) == []

    def test_a_comment_that_now_joins_the_one_before_is_not_reused(self):
        old = "x /* a */"
        new = "/* b */ /* a */"
        assert _splice_checked(old, relex("", [], old)[0], new) == [(0, 15, "b\na", False)]
