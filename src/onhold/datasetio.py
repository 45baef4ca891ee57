"""Tab-separated dataset files of annotated issue-referencing comments.

The on-disk format is a UTF-8 TSV with a header row.  Tabs, newlines,
and backslashes inside fields are backslash-escaped so that one line is
always one row.  Timestamps are stored as ISO-8601 UTC at second
precision, so writing and re-reading a dataset preserves every row
exactly as long as the input timestamps carry no sub-second part.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError
from .learn import Label
from .timestamps import format_timestamp, parse_timestamp


COLUMNS = (
    "comment_text",
    "file_path",
    "line_number",
    "issue_key",
    "label",
    "introduced_commit",
    "introduced_date",
    "removed_commit",
    "removed_date",
    "issue_status",
    "issue_resolution",
    "issue_resolved_date",
)

REQUIRED_COLUMNS = COLUMNS[:5]

# Imported spreadsheets name their columns loosely; map the spellings
# we have seen onto the canonical schema.
_HEADER_SYNONYMS = {
    "comment": "comment_text",
    "comment_context": "comment_text",
    "text": "comment_text",
    "file": "file_path",
    "path": "file_path",
    "code_file_path": "file_path",
    "line": "line_number",
    "lineno": "line_number",
    "line_no": "line_number",
    "issue": "issue_key",
    "issue_id": "issue_key",
    "referred_issue": "issue_key",
    "referenced_issue": "issue_key",
    "key": "issue_key",
    "annotation": "label",
    "class": "label",
    "category": "label",
    "intro_commit": "introduced_commit",
    "intro_date": "introduced_date",
    "introduced": "introduced_date",
    "removed": "removed_date",
    "status": "issue_status",
    "resolution": "issue_resolution",
    "resolved_date": "issue_resolved_date",
    "resolution_date": "issue_resolved_date",
    "resolutiondate": "issue_resolved_date",
    "resolved_on": "issue_resolved_date",
}


@dataclass(frozen=True)
class DatasetRow:
    """One annotated comment, optionally with lifecycle and issue state."""

    comment_text: str
    file_path: str
    line_number: int
    issue_key: str
    label: Label
    introduced_commit: str | None = None
    introduced_date: datetime | None = None
    removed_commit: str | None = None
    removed_date: datetime | None = None
    issue_status: str | None = None
    issue_resolution: str | None = None
    issue_resolved_date: datetime | None = None

    def __post_init__(self) -> None:
        if not self.comment_text:
            raise DataFormatError("comment_text must not be empty")
        if not self.file_path:
            raise DataFormatError("file_path must not be empty")
        if self.line_number < 1:
            raise DataFormatError(
                f"line_number must be positive, got {self.line_number}"
            )
        if not self.issue_key:
            raise DataFormatError("issue_key must not be empty")
        if (self.removed_commit is None) != (self.removed_date is None):
            raise DataFormatError(
                "removed_commit and removed_date must be present together"
            )


def escape_field(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE = re.compile(r"\\([\\tnr])")


def unescape_field(value: str) -> str:
    """Undo ``escape_field``; a backslash before any other character stays."""
    if "\\" not in value:  # most cells; re.sub on every cell costs 5x
        return value
    return _ESCAPE.sub(lambda escape: _UNESCAPES[escape[1]], value)


def _format_line(fields: Sequence[str]) -> str:
    # Most rows need no escape: one join, checked by its tab count.
    line = "\t".join(fields)
    if (line.count("\t") != len(fields) - 1
            or "\\" in line or "\n" in line or "\r" in line):
        line = "\t".join(escape_field(v) for v in fields)
    return line


def format_table(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render a generic table as escaped TSV text (header included)."""
    lines = [_format_line(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise DataFormatError(
                f"row has {len(row)} fields, header has {len(columns)}"
            )
        lines.append(_format_line(row))
    return "\n".join(lines) + "\n"


def _parse_line(line: str) -> list[str]:
    cells = line.split("\t")
    return [unescape_field(cell) for cell in cells] if "\\" in line else cells


def parse_table(
    text: str, source: str = "<table>"
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Parse escaped TSV text into a header and numbered rows.

    Returns the header fields and a list of ``(line_number, fields)``
    pairs; line numbers are 1-based file positions for error messages.
    An empty line is a row of one empty cell in a one-column table and
    is skipped in a wider one.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{source}: empty file, expected a header row")
    header = _parse_line(lines[0])
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line and len(header) > 1:
            continue
        fields = _parse_line(line)
        if len(fields) != len(header):
            raise DataFormatError(
                f"{source}:{lineno}: expected {len(header)} fields, "
                f"found {len(fields)}"
            )
        rows.append((lineno, fields))
    return header, rows


def load_table(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    text = Path(path).read_text(encoding="utf-8")
    return parse_table(text, source=str(path))


def _row_fields(row: DatasetRow) -> list[str]:
    def stamp(moment: datetime | None) -> str:
        return format_timestamp(moment) if moment is not None else ""

    return [
        row.comment_text,
        row.file_path,
        str(row.line_number),
        row.issue_key,
        row.label.value,
        row.introduced_commit or "",
        stamp(row.introduced_date),
        row.removed_commit or "",
        stamp(row.removed_date),
        row.issue_status or "",
        row.issue_resolution or "",
        stamp(row.issue_resolved_date),
    ]


def format_dataset(rows: Iterable[DatasetRow]) -> str:
    return format_table(COLUMNS, (_row_fields(row) for row in rows))


def save_dataset(rows: Iterable[DatasetRow], path: str | Path) -> None:
    with io.open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_dataset(rows))


def column_positions(header: Sequence[str]) -> dict[str, int]:
    """Map canonical column names to their index in a header row.

    Known synonym spellings collapse onto the canonical schema names;
    unrecognized headers map under their own normalized name, so tables
    with extra columns stay addressable.
    """
    positions: dict[str, int] = {}
    for index, name in enumerate(header):
        key = name.strip().lower().replace(" ", "_").replace("-", "_")
        canonical = _HEADER_SYNONYMS.get(key, key)
        if canonical not in positions:
            positions[canonical] = index
    return positions


def require_columns(
    header: Sequence[str], names: Sequence[str], source: str
) -> dict[str, int]:
    """``column_positions`` of the header; DataFormatError naming any of ``names`` it lacks."""
    positions = column_positions(header)
    missing = [name for name in names if name not in positions]
    if missing:
        raise DataFormatError(
            f"{source}: missing required columns: {', '.join(missing)}"
        )
    return positions


def _parse_row(
    fields: Sequence[str], positions: dict[str, int], location: str
) -> DatasetRow:
    def cell(name: str) -> str:
        index = positions.get(name)
        return fields[index] if index is not None else ""

    def stamp(name: str) -> datetime | None:
        raw = cell(name).strip()
        if not raw:
            return None
        try:
            return parse_timestamp(raw)
        except ValueError as exc:
            raise DataFormatError(f"{location}: {name}: {exc}") from exc

    raw_line = cell("line_number").strip()
    try:
        line_number = int(raw_line)
    except ValueError as exc:
        raise DataFormatError(
            f"{location}: line_number {raw_line!r} is not an integer"
        ) from exc
    try:
        label = Label.parse(cell("label"))
    except ValueError as exc:
        raise DataFormatError(f"{location}: {exc}") from exc
    try:
        return DatasetRow(
            comment_text=cell("comment_text"),
            file_path=cell("file_path"),
            line_number=line_number,
            issue_key=cell("issue_key").strip(),
            label=label,
            introduced_commit=cell("introduced_commit").strip() or None,
            introduced_date=stamp("introduced_date"),
            removed_commit=cell("removed_commit").strip() or None,
            removed_date=stamp("removed_date"),
            issue_status=cell("issue_status").strip() or None,
            issue_resolution=cell("issue_resolution").strip() or None,
            issue_resolved_date=stamp("issue_resolved_date"),
        )
    except DataFormatError as exc:
        if str(exc).startswith(location):
            raise
        raise DataFormatError(f"{location}: {exc}") from exc


def parse_dataset(text: str, source: str = "<dataset>") -> list[DatasetRow]:
    header, numbered = parse_table(text, source=source)
    positions = require_columns(header, REQUIRED_COLUMNS, source)
    return [
        _parse_row(fields, positions, f"{source}:{lineno}")
        for lineno, fields in numbered
    ]


def load_dataset(path: str | Path) -> list[DatasetRow]:
    """Read a dataset TSV; malformed rows abort with their line number."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_dataset(text, source=str(path))
