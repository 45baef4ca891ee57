"""Comment extraction from Java source text.

One compiled token grammar finds comments and the string, text-block and
char literals whose contents must not count as comments.  Comment tokens
separated only by whitespace are merged into a single block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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


# Group 1 is a line comment's text, group 2 a block comment's text and
# group 3 its closing delimiter ("" when the block runs to end of file);
# literals capture nothing.  A backslash escapes the next character, a
# raw newline ends an ordinary string or char literal (invalid Java; it
# keeps a stray quote from swallowing the rest of the file), and a char
# literal needs at least one character, so a lone apostrophe is skipped.
# A text block opens with `"""` and a line break and runs to the next
# unescaped `"""`, or to end of file when none follows, like an
# unterminated block comment (so no opening is scanned twice and lexing
# stays linear); without the line break, `"""` lexes as an empty string
# followed by an ordinary string.
_TOKEN = re.compile(
    r"//([^\n]*)"
    r"|/\*(.*?)(\*/|\Z)"
    r'|"""[ \t\f]*\r?\n(?:\\.|[^\\])*?(?:"""|\\?\Z)'
    r'|"(?:\\.|[^"\\\n])*"?'
    r"|'(?:\\.|[^'\\\n])+'",
    re.DOTALL,
)


def extract_comments(source: str, file_path: str = "") -> list[CommentBlock]:
    """Extract all line and block comments from Java source text.

    Comment-like sequences inside string, text-block and char literals are
    excluded.  Segments separated only by whitespace (including newlines)
    are merged into one block.  An unterminated block comment extends to
    end of file and carries ``unterminated=True``.  Blocks come back in
    file order.
    """
    runs: list[list[re.Match[str]]] = []
    for token in _TOKEN.finditer(source):
        if token.lastindex is None:
            continue  # a literal
        if runs and not source[runs[-1][-1].end():token.start()].strip():
            runs[-1].append(token)
        else:
            runs.append([token])

    blocks: list[CommentBlock] = []
    line, offset = 1, 0
    for run in runs:
        start, end = run[0].start(), run[-1].end()
        line += source.count("\n", offset, start)
        raw = source[start:end]
        blocks.append(CommentBlock(
            file_path=file_path,
            start_line=line,
            end_line=line + raw.count("\n"),
            raw_text=raw,
            normalized_text="\n".join(
                (token[1] if token[2] is None else token[2]).strip()
                for token in run
            ),
            # Only a run's last token can be unterminated: it reaches EOF.
            unterminated=run[-1][3] == "",
        ))
        offset = start
    return blocks


def normalize_whitespace(text: str) -> str:
    """Collapse every whitespace run to one space and trim the ends.

    This is the comment identity key used when tracing a block across
    commits: reformatting does not break identity, any text edit does.
    """
    return " ".join(text.split())
