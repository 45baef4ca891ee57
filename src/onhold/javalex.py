"""Comment extraction from Java source text.

One compiled token grammar finds comments and the string, text-block and
char literals whose contents must not count as comments.  Comment tokens
separated only by whitespace are merged into a single block.  ``relex``
rescans only the changed window of a new version of a file and splices
its comment runs between the previous version's.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence


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


# A comment run: start and end offsets, the stripped text of each token
# joined with newlines, and whether it runs unterminated to end of file.
Run = tuple[int, int, str, bool]


def _scan(source: str, pos: int, resume: dict[int, int]) -> tuple[list[Run], int | None]:
    """The comment runs of ``source`` from ``pos`` (0 or a run start) up to the
    first run start in ``resume``, and the value it maps to (None at EOF)."""
    runs: list[Run] = []
    parts: list[str] = []
    start = end = 0
    unterminated = False
    for token in _TOKEN.finditer(source, pos):
        if token.lastindex is None:
            continue  # a literal
        at = token.start()
        if parts and source[end:at].strip():
            runs.append((start, end, "\n".join(parts), unterminated))
            parts = []
        if not parts:
            if at in resume:
                return runs, resume[at]
            start = at
        parts.append((token[1] if token[2] is None else token[2]).strip())
        end = token.end()
        # Only a run's last token can be unterminated: it reaches EOF.
        unterminated = token[3] == ""
    if parts:
        runs.append((start, end, "\n".join(parts), unterminated))
    return runs, None


def _common_length(a: str, b: str, limit: int, from_end: bool = False) -> int:
    """Length, at most ``limit``, of the longest common prefix (or suffix),
    by binary search over C-level slice comparisons."""
    lo, hi, la, lb = 0, limit, len(a), len(b)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        chunk = b[lb - mid:lb - lo] if from_end else b[lo:mid]
        same = a.endswith(chunk, 0, la - lo) if from_end else a.startswith(chunk, lo)
        lo, hi = (mid, hi) if same else (lo, mid - 1)
    return lo


def relex(old: str, old_runs: Sequence[Run], source: str) -> tuple[list[Run], int, int, int]:
    """The comment runs of ``source``, given the runs of ``old``, its previous version.

    Returns ``(runs, lo, old_hi, new_hi)``: ``runs[lo:new_hi]`` are
    scanned anew and replace ``old_runs[lo:old_hi]``; the runs after
    them are the old ones shifted by the change in length.

    The scan restarts at the last old run start at or before the first
    changed line, taken back over lines that end in a backslash: the one
    token attempt that reads ahead, a failing char literal, stops at the
    first newline no backslash escapes.  It stops at the first new run
    start in the common suffix where an old run started: from there on
    both versions lex alike.
    """
    limit = min(len(old), len(source))
    prefix = _common_length(old, source, limit)
    suffix = _common_length(old, source, limit - prefix, from_end=True)
    delta = len(source) - len(old)
    line = old.rfind("\n", 0, prefix) + 1
    while line > 1 and old[line - 2] == "\\":
        line = old.rfind("\n", 0, line - 1) + 1
    lo = max(bisect_right(old_runs, line, key=itemgetter(0)) - 1, 0)
    restart = old_runs[lo][0] if old_runs and old_runs[lo][0] <= line else 0
    first = bisect_left(old_runs, len(old) - suffix, lo, key=itemgetter(0))
    resume = {run[0] + delta: i for i, run in enumerate(old_runs[first:], first)}
    runs, hi = _scan(source, restart, resume)
    hi = len(old_runs) if hi is None else hi
    shifted = [(s + delta, e + delta, text, u) for s, e, text, u in old_runs[hi:]]
    return [*old_runs[:lo], *runs, *shifted], lo, hi, lo + len(runs)


def extract_comments(source: str, file_path: str = "", first_line: int = 1) -> list[CommentBlock]:
    """Extract all line and block comments from Java source text.

    Comment-like sequences inside string, text-block and char literals are
    excluded.  Segments separated only by whitespace (including newlines)
    are merged into one block.  An unterminated block comment extends to
    end of file and carries ``unterminated=True``.  Blocks come back in
    file order, their lines numbered from ``first_line``.
    """
    blocks: list[CommentBlock] = []
    line, offset = first_line, 0
    for start, end, text, unterminated in _scan(source, 0, {})[0]:
        line += source.count("\n", offset, start)
        raw = source[start:end]
        blocks.append(CommentBlock(
            file_path=file_path,
            start_line=line,
            end_line=line + raw.count("\n"),
            raw_text=raw,
            normalized_text=text,
            unterminated=unterminated,
        ))
        offset = start
    return blocks


def normalize_whitespace(text: str) -> str:
    """Collapse every whitespace run to one space and trim the ends.

    This is the comment identity key used when tracing a block across
    commits: reformatting does not break identity, any text edit does.
    """
    return " ".join(text.split())
