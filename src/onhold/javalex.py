"""Comment extraction from Java source text.

A small hand-rolled lexer walks the source once, tracking string and char
literals so that comment delimiters inside them are ignored.  Comment
regions separated only by whitespace are merged into a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CommentBlock:
    """A contiguous comment region in one file.

    ``raw_text`` is the exact source slice including delimiters (and any
    whitespace between merged segments).  ``normalized_text`` holds the
    delimiter-stripped text of every segment, joined with newlines.
    """

    file_path: str
    start_line: int
    end_line: int
    raw_text: str
    normalized_text: str
    unterminated: bool = False

    def __post_init__(self) -> None:
        if self.start_line > self.end_line:
            raise ValueError("start_line must be <= end_line")
        if not (self.raw_text.startswith("//") or self.raw_text.startswith("/*")):
            raise ValueError("raw_text must begin with a comment delimiter")


def as_raw_comment(text: str) -> str:
    """Rebuild a syntactically valid line comment from delimiter-stripped text."""
    return "\n".join(f"// {line}".rstrip() for line in (text or "").split("\n"))


@dataclass
class _Segment:
    start: int          # offset of the opening delimiter
    end: int            # offset one past the last character
    start_line: int
    end_line: int
    text: str           # inner text, delimiters stripped
    unterminated: bool = field(default=False)


def _scan_segments(source: str) -> list[_Segment]:
    """Single pass over the source collecting raw comment segments."""
    segments: list[_Segment] = []
    i = 0
    line = 1
    n = len(source)

    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and source[i + 1] == "/":
            start, start_line = i, line
            i += 2
            while i < n and source[i] != "\n":
                i += 1
            segments.append(_Segment(start, i, start_line, line,
                                     source[start + 2:i].strip()))
        elif c == "/" and i + 1 < n and source[i + 1] == "*":
            start, start_line = i, line
            i += 2
            closed = False
            while i < n:
                if source[i] == "\n":
                    line += 1
                elif source[i] == "*" and i + 1 < n and source[i + 1] == "/":
                    i += 2
                    closed = True
                    break
                i += 1
            inner_end = i - 2 if closed else i
            segments.append(_Segment(start, i, start_line, line,
                                     source[start + 2:inner_end].strip(),
                                     unterminated=not closed))
        elif c == '"':
            # String literal: skip to the closing quote, honouring backslash
            # escapes.  A raw newline terminates it (invalid Java; keeps a
            # stray quote from swallowing the rest of the file).
            i += 1
            while i < n and source[i] not in ('"', "\n"):
                i += 2 if source[i] == "\\" else 1
            if i < n and source[i] == '"':
                i += 1
        elif c == "'":
            end = _char_literal_end(source, i)
            if end is None:
                i += 1  # stray apostrophe, treat as punctuation
            else:
                i = end
        else:
            i += 1
    return segments


def _char_literal_end(source: str, i: int) -> int | None:
    """Offset one past a char literal starting at ``i``, or None."""
    j = i + 1
    n = len(source)
    while j < n and source[j] not in ("'", "\n"):
        j += 2 if source[j] == "\\" else 1
    if j < n and source[j] == "'" and j > i + 1:
        return j + 1
    return None


def extract_comments(source: str, file_path: str = "") -> list[CommentBlock]:
    """Extract all line and block comments from Java source text.

    Comment-like sequences inside string and char literals are excluded.
    Segments separated only by whitespace (including newlines) are merged
    into one block.  An unterminated block comment extends to end of file
    and carries ``unterminated=True``.  Blocks come back in file order.
    """
    segments = _scan_segments(source)
    blocks: list[CommentBlock] = []
    group: list[_Segment] = []

    def flush() -> None:
        if not group:
            return
        first, last = group[0], group[-1]
        blocks.append(CommentBlock(
            file_path=file_path,
            start_line=first.start_line,
            end_line=last.end_line,
            raw_text=source[first.start:last.end],
            normalized_text="\n".join(s.text for s in group),
            unterminated=any(s.unterminated for s in group),
        ))
        group.clear()

    for seg in segments:
        if group and source[group[-1].end:seg.start].strip() != "":
            flush()
        group.append(seg)
    flush()
    return blocks


def normalize_whitespace(text: str) -> str:
    """Collapse every whitespace run to one space and trim the ends.

    This is the comment identity key used when tracing a block across
    commits: reformatting does not break identity, any text edit does.
    """
    return " ".join(text.split())
