"""Git history mining: walk commits, extract comments, trace lifecycles.

A comment's identity across commits is its whitespace-normalized text
within one file path; renames therefore end one lifecycle and start
another (history is walked with rename detection off, so a rename shows
up as a delete plus an add).  Only the first-parent chain is traversed,
which keeps merged side-branch duplicates out of the counts.

Each piece of work is done once.  ``trace_lifecycles`` declares up front
the order in which it reads blobs, so ``git cat-file`` inflates a bounded
window of later blobs while this side lexes the current one.  Each file
version is relexed only in the window where it differs from the path's
previous version, so every live .java file's last version is held (about
the size of the checkout's Java sources).  Only the comment runs that the
edit removed or added update the per-path counts of texts and issue keys;
a text the previous version already had reuses that version's detection,
and a ``CommentBlock`` is built only when a lifecycle opens.
"""

from __future__ import annotations

import logging
import subprocess
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path, PurePosixPath
from typing import Sequence

from .errors import ConfigError
from .javalex import CommentBlock, Run, extract_comments, normalize_whitespace, relex
from .issues import Patterns, TrackerKind, find_issue_references


_NAME_SUFFIXES = ("testcase", "tests", "test")

log = logging.getLogger("onhold.miner")


def is_test_file(path: str) -> bool:
    """True for paths the mining pipeline must ignore as test code.

    Fires when any directory segment is "test"/"tests", or the file name
    looks like Test*.java / *Test.java / *Tests.java / *TestCase.java.
    The suffix rules respect word boundaries so that "Contest.java"
    stays a production file: the suffix must begin the name, start a
    CamelCase word, or follow a non-alphanumeric separator.
    """
    pure = PurePosixPath(path.replace("\\", "/"))
    for segment in pure.parts[:-1]:
        if segment.lower() in ("test", "tests"):
            return True
    name = pure.name
    if not name.lower().endswith(".java"):
        return False
    stem = name[: -len(".java")]
    low = stem.lower()
    if low.startswith("test"):
        return True
    for suffix in _NAME_SUFFIXES:
        if low.endswith(suffix):
            cut = len(stem) - len(suffix)
            if stem[cut] == "T":
                return True
            if cut > 0 and not stem[cut - 1].isalnum():
                return True
    return False


@dataclass(frozen=True)
class ChangedFile:
    path: str
    status: str  # "A" added, "M" modified, "D" deleted
    blob: str  # object id of the post-image blob (all zeros when deleted)

    def __post_init__(self) -> None:
        if self.status not in ("A", "M", "D"):
            raise ValueError(f"unexpected change status {self.status!r}")


@dataclass(frozen=True)
class HistoryEntry:
    commit_id: str
    timestamp: datetime
    changes: tuple[ChangedFile, ...]


@dataclass(frozen=True)
class CommentLifecycle:
    """One episode of an issue-referencing comment living in one file.

    ``issue_key`` and ``tracker`` name the first issue the comment cites.
    """

    block: CommentBlock
    issue_key: str
    tracker: TrackerKind
    introduced_commit: str
    introduced_date: datetime
    removed_commit: str | None = None
    removed_date: datetime | None = None
    ambiguous: bool = False

    def __post_init__(self) -> None:
        if (self.removed_commit is None) != (self.removed_date is None):
            raise ValueError("removed_commit and removed_date must come together")
        if self.removed_date is not None and self.removed_date < self.introduced_date:
            raise ValueError("removal precedes introduction")

    @property
    def removed(self) -> bool:
        return self.removed_commit is not None

    @property
    def text_key(self) -> str:
        return normalize_whitespace(self.block.normalized_text)


def _run_git(repo_path: str | Path, *args: str) -> str:
    """stdout of one git command; ConfigError carrying git's message on failure.

    Bytes that are not UTF-8 (raw path bytes under ``-z``) decode to
    lone surrogates instead of failing.
    """
    result = subprocess.run(
        ["git", "-C", str(repo_path), *args],
        capture_output=True,
        encoding="utf-8",
        errors="surrogateescape",
    )
    if result.returncode != 0:
        raise ConfigError(
            f"git {' '.join(args[:2])} failed in {repo_path}: {result.stderr.strip()}"
        )
    return result.stdout


_RECORD_MARK = "\x01"


def walk_history(repo_path: str | Path, branch: str = "HEAD") -> list[HistoryEntry]:
    """Commits of the branch's first-parent chain, oldest first.

    Each entry lists the changed .java files with their status and
    post-image blob id; merge commits are diffed against their first
    parent only and renames are reported as delete + add.  A .java path
    that is not valid UTF-8 cannot be written to a UTF-8 table, so it is
    skipped with one warning naming it.
    """
    _run_git(repo_path, "rev-parse", "--git-dir")
    try:
        _run_git(repo_path, "rev-parse", "--verify", "--quiet", f"{branch}^{{commit}}")
    except ConfigError:
        if branch == "HEAD":
            return []  # repository without commits
        raise ConfigError(f"branch {branch!r} not found in {repo_path}") from None

    # With -z git prints paths verbatim (no quoting of non-ASCII bytes,
    # tabs or newlines) and ends every field with NUL: each commit is
    # MARK hash TAB date NUL, then one ":modes old new STATUS" NUL path
    # NUL per file.  Blobs are later read by id, so no path is ever
    # written into the cat-file request stream.
    out = _run_git(
        repo_path,
        "log",
        "-z",
        "--first-parent",
        "--reverse",
        "--no-renames",
        "--diff-merges=first-parent",
        "--raw",
        "--no-abbrev",
        f"--format={_RECORD_MARK}%H%x09%cI",
        branch,
    )
    commits: list[tuple[str, str, list[ChangedFile]]] = []
    undecodable: set[str] = set()
    fields = iter(out.split("\0"))
    for field in fields:
        if field.startswith(_RECORD_MARK):
            commit_id, _, stamp = field[1:].partition("\t")
            commits.append((commit_id, stamp, []))
            continue
        meta = field.split()
        if len(meta) != 5:
            continue
        path = next(fields, "")
        status = "M" if meta[4] == "T" else meta[4]  # type change: content matters
        if status not in ("A", "M", "D") or not path.lower().endswith(".java"):
            continue
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            undecodable.add(path)
            continue
        commits[-1][2].append(ChangedFile(path, status, meta[3]))
    for path in sorted(undecodable):
        log.warning("skipping %s: path is not valid UTF-8",
                    ascii(path.encode("utf-8", "surrogateescape"))[1:])
    return [
        HistoryEntry(commit_id, datetime.fromisoformat(stamp), tuple(changes))
        for commit_id, stamp, changes in commits
    ]


# Requests in flight: 64 SHA-1 requests of 41 bytes fit in one 4 KiB
# pipe page, so writing to git's stdin never blocks and no writer thread
# is needed, while git inflates the next blobs as this side lexes.
_READ_AHEAD = 64


def _no_answer(commit_id: str, change: ChangedFile) -> ConfigError:
    return ConfigError(
        f"git cat-file gave no answer for {commit_id}:{change.path}; git has exited"
    )


class GitCatFile:
    """Persistent `git cat-file --batch` channel reading blobs in a declared order.

    ``blob_ids`` lists every blob the caller will read, in reading order.
    Up to ``_READ_AHEAD`` requests run ahead of the blob being read, so
    git inflates later blobs while the caller works on this one.  Git
    keeps running until ``close``, which closes both pipes, so a loop
    left early cannot leave git blocked on an answer nobody reads.
    """

    def __init__(self, repo_path: str | Path, blob_ids: Sequence[str]):
        self._order = blob_ids
        self._sent = 0
        self._read = 0
        self._proc = subprocess.Popen(
            ["git", "-C", str(repo_path), "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def read_text(self, commit_id: str, change: ChangedFile) -> str | None:
        """Content of the changed file's blob, or None when git lacks it.

        ``change.blob`` must be the next id of the declared order, else
        ConfigError.  Raises ConfigError naming the commit and path when
        git's answer stops short (it died), so a dead reader is never
        mistaken for a deleted file.
        """
        if self._read >= len(self._order) or self._order[self._read] != change.blob:
            raise ConfigError(
                f"blob {change.blob} of {commit_id}:{change.path} read out of "
                "the declared order"
            )
        self._read += 1
        stdin, stdout = self._proc.stdin, self._proc.stdout
        assert stdin is not None and stdout is not None
        # Top the requests in flight, this one included, up to the window.
        ahead = self._order[self._sent:self._read + _READ_AHEAD - 1]
        if ahead:
            try:
                stdin.write("".join(f"{blob}\n" for blob in ahead).encode("ascii"))
                stdin.flush()
            except BrokenPipeError:
                raise _no_answer(commit_id, change) from None
            self._sent += len(ahead)
        header = stdout.readline().decode("utf-8", "replace").strip()
        if not header:
            raise _no_answer(commit_id, change)
        if header.endswith(("missing", "ambiguous")):
            return None
        size = int(header.split()[-1])
        body = stdout.read(size)
        if len(body) < size or stdout.read(1) != b"\n":
            raise _no_answer(commit_id, change)
        return body.decode("utf-8", errors="replace")

    def close(self) -> None:
        """Stop git; unread answers are dropped, so git cannot block on them."""
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass
        self._proc.wait(timeout=10)

    def __enter__(self) -> "GitCatFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def trace_lifecycles(
    repo_path: str | Path,
    history: Sequence[HistoryEntry],
    patterns: Patterns,
    include_tests: bool = False,
) -> list[CommentLifecycle]:
    """Trace every issue-referencing comment's introduction and removal.

    A lifecycle opens at the first commit where the whitespace-normalized
    block text appears in a file and closes at the first later commit
    where it is gone (file deletion included); a comment re-added later
    starts a fresh lifecycle.  Equal texts occurring several times in
    one file at once are traced as a single lifecycle with the ambiguous
    flag set.  If commit clocks run backwards, a removal timestamp is
    clamped to the introduction timestamp.  Each comment's issue is the
    first reference detected in its text.
    """
    paths = {change.path for entry in history for change in entry.changes}
    skipped = set() if include_tests else {path for path in paths if is_test_file(path)}
    changes = [
        (entry, change)
        for entry in history
        for change in entry.changes
        if change.path not in skipped
    ]
    # Per path: the last version's source and comment runs; each comment
    # text's count and detection, each issue key's count and the open
    # lifecycles, keyed by normalized text.
    files: dict[str, tuple[str, list[Run]]] = {}
    state: dict[str, tuple[dict[str, list], Counter[str], dict[str, CommentLifecycle]]] = {}
    finished: list[CommentLifecycle] = []

    blob_ids = [change.blob for _, change in changes if change.status != "D"]
    with GitCatFile(repo_path, blob_ids) as blobs:
        for entry, change in changes:
            path, source = change.path, ""
            if change.status != "D":
                source = blobs.read_text(entry.commit_id, change) or ""
            old, old_runs = files.pop(path, ("", []))
            runs, lo, old_hi, new_hi = relex(old, old_runs, source)
            if source:
                files[path] = (source, runs)
            texts, keys, in_file = state.setdefault(path, ({}, Counter(), {}))
            # Count the new runs before the removed ones, so that a text
            # which survives the edit keeps its detection.  A key rising
            # from 0 opens at its first new run; one falling to 0 closes.
            touched: dict[str, Run | None] = {}
            for step, part in ((1, runs[lo:new_hi]), (-1, old_runs[lo:old_hi])):
                for run in part:
                    if run[2] not in texts:
                        # The identity key and first issue reference, if any.
                        found = find_issue_references(run[2], patterns)
                        texts[run[2]] = [0, found and (normalize_whitespace(run[2]), found[0])]
                    slot = texts[run[2]]
                    slot[0] += step
                    if not slot[0]:
                        del texts[run[2]]
                    if not slot[1]:
                        continue
                    key = slot[1][0]
                    keys[key] += step
                    if step > 0:
                        touched.setdefault(key, run if keys[key] == 1 else None)
                    elif not keys[key]:
                        del keys[key]
                        lc = in_file.pop(key)
                        finished.append(replace(
                            lc, removed_commit=entry.commit_id,
                            removed_date=max(entry.timestamp, lc.introduced_date),
                        ))
            for key, run in touched.items():
                if run is None:
                    if keys[key] > 1:
                        in_file[key] = replace(in_file[key], ambiguous=True)
                    continue
                start, end, text, _ = run
                (block,) = extract_comments(
                    source[start:end], path, source.count("\n", 0, start) + 1
                )
                reference = texts[text][1][1]
                in_file[key] = CommentLifecycle(
                    block, reference.key, reference.tracker, entry.commit_id,
                    entry.timestamp, ambiguous=keys[key] > 1,
                )

    for _, _, in_file in state.values():
        finished.extend(in_file.values())
    finished.sort(
        key=lambda lc: (lc.introduced_date, lc.introduced_commit,
                        lc.block.file_path, lc.block.start_line, lc.text_key)
    )
    return finished

