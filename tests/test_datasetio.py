"""Tests for the TSV dataset format.

The escaping scheme maps backslash, tab, newline, and carriage return to
two-character sequences, so a row never spans lines and a round trip is
byte exact.  Oracle strings below are written out by hand from that rule.
"""

from __future__ import annotations

import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onhold.datasetio import (
    COLUMNS,
    DatasetRow,
    column_positions,
    escape_field,
    format_dataset,
    format_table,
    load_dataset,
    load_table,
    parse_dataset,
    parse_table,
    save_dataset,
    unescape_field,
)
from onhold.errors import DataFormatError
from onhold.learn import Label

UTC = timezone.utc


def make_row(**overrides) -> DatasetRow:
    values = dict(
        comment_text="remove after HADOOP-6223 is fixed",
        file_path="src/main/java/A.java",
        line_number=42,
        issue_key="HADOOP-6223",
        label=Label.ON_HOLD,
    )
    values.update(overrides)
    return DatasetRow(**values)


class TestEscaping:
    @pytest.mark.parametrize(
        "raw,escaped",
        [
            ("plain", "plain"),
            ("a\tb", "a\\tb"),
            ("a\nb", "a\\nb"),
            ("a\rb", "a\\rb"),
            ("a\\b", "a\\\\b"),
            ("\\t", "\\\\t"),
            ("", ""),
        ],
    )
    def test_hand_written_pairs(self, raw, escaped):
        assert escape_field(raw) == escaped
        assert unescape_field(escaped) == raw

    def test_escaped_text_has_no_row_breaking_characters(self):
        assert "\t" not in escape_field("a\tb\nc")
        assert "\n" not in escape_field("a\tb\nc")

    @given(st.text())
    def test_round_trip_is_identity(self, raw):
        assert unescape_field(escape_field(raw)) == raw

    def test_unknown_escape_passes_through(self):
        assert unescape_field("a\\qb") == "a\\qb"


class TestGenericTable:
    def test_format_then_parse(self):
        text = format_table(["x", "y"], [["1", "a\tb"], ["2", ""]])
        header, rows = parse_table(text)
        assert header == ["x", "y"]
        assert rows == [(2, ["1", "a\tb"]), (3, ["2", ""])]

    def test_row_width_is_enforced_when_writing(self):
        with pytest.raises(DataFormatError):
            format_table(["x", "y"], [["only one"]])

    def test_field_count_mismatch_names_the_line(self):
        with pytest.raises(DataFormatError, match="data.tsv:3"):
            parse_table("x\ty\n1\t2\n1\t2\t3\n", source="data.tsv")

    def test_empty_file_is_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_table("", source="data.tsv")

    def test_header_only_file_has_no_rows(self):
        header, rows = parse_table("x\ty\n")
        assert header == ["x", "y"]
        assert rows == []

    def test_empty_line_of_a_one_column_table_is_a_row(self):
        _, rows = parse_table("x\n1\n\n2\n")
        assert rows == [(2, ["1"]), (3, [""]), (4, ["2"])]

    def test_blank_lines_between_wider_rows_are_skipped(self):
        _, rows = parse_table("x\ty\n1\t2\n\n3\t4\n")
        assert rows == [(2, ["1", "2"]), (4, ["3", "4"])]


def _tables():
    """A header and rows of one width, 1 to 4 cells of arbitrary text."""
    return st.integers(1, 4).flatmap(lambda width: st.tuples(
        st.lists(st.text(), min_size=width, max_size=width),
        st.lists(st.lists(st.text(), min_size=width, max_size=width), max_size=6),
    ))


class TestTableRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_saved_table_loads_back_unchanged(self, table):
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            path.write_text(format_table(header, rows), encoding="utf-8", newline="\n")
            loaded_header, numbered = load_table(path)
        assert loaded_header == header
        assert numbered == [(lineno, row) for lineno, row in enumerate(rows, start=2)]


class TestDatasetRowValidation:
    def test_line_number_must_be_positive(self):
        with pytest.raises(DataFormatError, match="line_number"):
            make_row(line_number=0)

    def test_required_strings_must_be_non_empty(self):
        with pytest.raises(DataFormatError):
            make_row(comment_text="")
        with pytest.raises(DataFormatError):
            make_row(file_path="")
        with pytest.raises(DataFormatError):
            make_row(issue_key="")

    def test_removal_fields_come_in_pairs(self):
        with pytest.raises(DataFormatError, match="together"):
            make_row(removed_commit="abc")
        with pytest.raises(DataFormatError, match="together"):
            make_row(removed_date=datetime(2021, 1, 1, tzinfo=UTC))


class TestDatasetRoundTrip:
    def rows(self):
        return [
            make_row(),
            make_row(
                comment_text="see\tBug 102\nfor details",
                file_path="B.java",
                line_number=7,
                issue_key="102",
                label=Label.CROSS_REFERENCE,
                introduced_commit="abc123",
                introduced_date=datetime(2020, 1, 2, 3, 4, 5, tzinfo=UTC),
                removed_commit="def456",
                removed_date=datetime(2020, 6, 7, 8, 9, 10, tzinfo=UTC),
                issue_status="Resolved",
                issue_resolution="Fixed",
                issue_resolved_date=datetime(2020, 3, 4, tzinfo=UTC),
            ),
        ]

    def test_format_parse_identity(self):
        text = format_dataset(self.rows())
        assert parse_dataset(text) == self.rows()

    def test_serialization_is_byte_stable(self):
        first = format_dataset(self.rows())
        second = format_dataset(parse_dataset(first))
        assert first == second

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "data.tsv"
        save_dataset(self.rows(), path)
        assert load_dataset(path) == self.rows()
        assert path.read_text(encoding="utf-8") == format_dataset(self.rows())

    def test_header_line_lists_the_canonical_columns(self):
        first_line = format_dataset([]).splitlines()[0]
        assert first_line == "\t".join(COLUMNS)

    def test_timestamps_are_rendered_as_utc_z(self):
        text = format_dataset(
            [make_row(introduced_commit="abc",
                      introduced_date=datetime(2021, 1, 1, 12, 0, tzinfo=UTC))]
        )
        assert "2021-01-01T12:00:00Z" in text

    def test_multiline_comment_still_occupies_one_line(self):
        text = format_dataset([make_row(comment_text="line one\nline two")])
        assert len(text.splitlines()) == 2


class TestParsingFlexibility:
    def test_header_synonyms_are_recognized(self):
        text = "comment\tfile\tline\tissue\tannotation\nfix later\tA.java\t3\tHADOOP-1\ton-hold\n"
        (row,) = parse_dataset(text)
        assert row.comment_text == "fix later"
        assert row.file_path == "A.java"
        assert row.line_number == 3
        assert row.issue_key == "HADOOP-1"
        assert row.label is Label.ON_HOLD

    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("OnHold", Label.ON_HOLD),
            ("on-hold", Label.ON_HOLD),
            ("ON_HOLD", Label.ON_HOLD),
            ("1", Label.ON_HOLD),
            ("positive", Label.ON_HOLD),
            ("CrossReference", Label.CROSS_REFERENCE),
            ("cross reference", Label.CROSS_REFERENCE),
            ("0", Label.CROSS_REFERENCE),
            ("negative", Label.CROSS_REFERENCE),
        ],
    )
    def test_label_spellings(self, spelling, expected):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel\n"
            f"fix later\tA.java\t3\tHADOOP-1\t{spelling}\n"
        )
        (row,) = parse_dataset(text)
        assert row.label is expected

    def test_unknown_columns_are_ignored(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel\tnotes\n"
            "fix later\tA.java\t3\tHADOOP-1\tOnHold\tremember this\n"
        )
        (row,) = parse_dataset(text)
        assert row.comment_text == "fix later"

    def test_compact_offset_timestamps_are_normalized(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel"
            "\tintroduced_commit\tintroduced_date\n"
            "fix later\tA.java\t3\tHADOOP-1\tOnHold\tabc\t2010-08-17T03:04:31+0000\n"
        )
        (row,) = parse_dataset(text)
        assert row.introduced_date == datetime(2010, 8, 17, 3, 4, 31, tzinfo=UTC)
        assert "2010-08-17T03:04:31Z" in format_dataset([row])


class TestParsingErrors:
    def test_missing_required_column_is_named(self):
        with pytest.raises(DataFormatError, match="issue_key"):
            parse_dataset("comment_text\tfile_path\tline_number\tlabel\n")

    def test_bad_line_number_carries_the_location(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel\n"
            "fix later\tA.java\tseven\tHADOOP-1\tOnHold\n"
        )
        with pytest.raises(DataFormatError, match=r"data\.tsv:2.*line_number"):
            parse_dataset(text, source="data.tsv")

    def test_bad_label_carries_the_location(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel\n"
            "fix later\tA.java\t3\tHADOOP-1\tmaybe\n"
        )
        with pytest.raises(DataFormatError, match=r"data\.tsv:2"):
            parse_dataset(text, source="data.tsv")

    def test_bad_timestamp_names_the_column(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel"
            "\tintroduced_commit\tintroduced_date\n"
            "fix later\tA.java\t3\tHADOOP-1\tOnHold\tabc\tnot-a-date\n"
        )
        with pytest.raises(DataFormatError, match="introduced_date"):
            parse_dataset(text, source="data.tsv")

    def test_validation_failure_carries_the_location(self):
        text = (
            "comment_text\tfile_path\tline_number\tissue_key\tlabel\n"
            "fix later\tA.java\t0\tHADOOP-1\tOnHold\n"
        )
        with pytest.raises(DataFormatError, match=r"data\.tsv:2.*line_number"):
            parse_dataset(text, source="data.tsv")

    def test_load_dataset_names_the_file(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("comment_text\tfile_path\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="broken.tsv"):
            load_dataset(path)


class TestColumnPositions:
    def test_synonyms_collapse_onto_canonical_names(self):
        header = ["Comment", "File Path", "Line-No", "Issue ID", "Class"]
        positions = column_positions(header)
        assert positions == {
            "comment_text": 0,
            "file_path": 1,
            "line_number": 2,
            "issue_key": 3,
            "label": 4,
        }

    def test_first_occurrence_wins(self):
        assert column_positions(["text", "comment"]) == {"comment_text": 0}

    def test_unknown_headers_keep_their_own_name(self):
        assert column_positions(["Extra Notes"]) == {"extra_notes": 0}
