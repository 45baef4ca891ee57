"""Tests for git history walking and comment lifecycle tracing.

Each scenario scripts a small throwaway repository with controlled
commit dates, then asserts the exact lifecycles the miner must report.
"""

from __future__ import annotations

import io
import random
import subprocess
import threading
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from onhold import miner
from onhold.errors import ConfigError
from onhold.issues import TrackerKind, find_issue_references
from onhold.javalex import extract_comments, normalize_whitespace
from onhold.miner import (
    ChangedFile,
    CommentLifecycle,
    GitCatFile,
    is_test_file,
    trace_lifecycles,
    walk_history,
)

UTC = timezone.utc

ON_HOLD_JAVA = (
    "public class A {\n"
    "    // TODO remove after HADOOP-1234 is fixed\n"
    "    int x;\n"
    "}\n"
)

PLAIN_JAVA = (
    "public class A {\n"
    "    // a plain note\n"
    "    int x;\n"
    "}\n"
)


class TestIsTestFile:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/test/java/FooTest.java", True),
            ("src/tests/Util.java", True),
            ("test/Foo.java", True),
            ("src/test/README.md", True),
            ("src\\test\\Foo.java", True),
            ("Test.java", True),
            ("src/main/java/Testing.java", True),
            ("src/main/java/TestHelper.java", True),
            ("src/main/java/MyTest.java", True),
            ("src/main/java/MyTests.java", True),
            ("src/main/java/MyTestCase.java", True),
            ("src/main/java/UnitTest.java", True),
            ("src/my_test.java", True),
            ("src/main/java/Foo.java", False),
            ("src/main/java/Contest.java", False),
            ("src/main/java/ContestCase.java", False),
            ("src/main/java/Latest.java", False),
            ("src/attestation/Foo.java", False),
            ("src/protest.java", False),
            ("src/main/Foo.kt", False),
        ],
    )
    def test_oracle_table(self, path, expected):
        assert is_test_file(path) is expected


class TestWalkHistory:
    def test_repository_without_commits(self, git_sandbox):
        assert walk_history(git_sandbox.root) == []

    def test_non_repository_is_rejected(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(ConfigError):
            walk_history(plain)

    def test_missing_branch_is_rejected(self, git_sandbox):
        git_sandbox.write("A.java", PLAIN_JAVA)
        git_sandbox.commit("add A")
        with pytest.raises(ConfigError):
            walk_history(git_sandbox.root, "no-such-branch")

    def test_commits_come_oldest_first_with_statuses(self, git_sandbox):
        git_sandbox.write("A.java", PLAIN_JAVA)
        c1 = git_sandbox.commit("add A")
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.write("README.md", "notes\n")
        c2 = git_sandbox.commit("edit A, add readme")
        git_sandbox.delete("A.java")
        c3 = git_sandbox.commit("drop A")

        entries = walk_history(git_sandbox.root)
        assert [e.commit_id for e in entries] == [c1, c2, c3]
        assert entries[0].timestamp == datetime(2021, 1, 1, 12, 0, tzinfo=UTC)
        assert [(c.path, c.status) for c in entries[0].changes] == [("A.java", "A")]
        # README.md is not a .java file and must not be listed.
        assert [(c.path, c.status) for c in entries[1].changes] == [("A.java", "M")]
        assert [(c.path, c.status) for c in entries[2].changes] == [("A.java", "D")]

    def test_merges_follow_the_first_parent_only(self, git_sandbox):
        git_sandbox.write("A.java", PLAIN_JAVA)
        c1 = git_sandbox.commit("add A")
        git_sandbox.new_branch("feature")
        git_sandbox.write("B.java", ON_HOLD_JAVA.replace("class A", "class B"))
        side = git_sandbox.commit("add B on a branch")
        git_sandbox.checkout("master")
        git_sandbox.write("C.java", PLAIN_JAVA.replace("class A", "class C"))
        c3 = git_sandbox.commit("add C on master")
        merge = git_sandbox.merge("feature")

        entries = walk_history(git_sandbox.root)
        ids = [e.commit_id for e in entries]
        assert ids == [c1, c3, merge]
        assert side not in ids
        # The branch work surfaces as the merge commit's own diff.
        assert [(c.path, c.status) for c in entries[2].changes] == [("B.java", "A")]

    def test_paths_with_non_ascii_letters_and_spaces_are_listed(self, git_sandbox):
        git_sandbox.write("src/Été/A.java", PLAIN_JAVA)
        git_sandbox.write("src/my dir/B C.java", PLAIN_JAVA)
        git_sandbox.commit("add")
        git_sandbox.delete("src/Été/A.java")
        git_sandbox.commit("drop")

        first, second = walk_history(git_sandbox.root)
        assert sorted((c.path, c.status) for c in first.changes) == [
            ("src/my dir/B C.java", "A"),
            ("src/Été/A.java", "A"),
        ]
        assert [(c.path, c.status) for c in second.changes] == [("src/Été/A.java", "D")]

    def test_commit_without_java_changes_is_kept(self, git_sandbox):
        git_sandbox.write("README.md", "notes\n")
        c1 = git_sandbox.commit("docs only")
        c2 = git_sandbox.commit("empty")

        entries = walk_history(git_sandbox.root)
        assert [(e.commit_id, e.changes) for e in entries] == [(c1, ()), (c2, ())]


def within(seconds, work):
    """Result of ``work()`` run in a thread; fails instead of hanging on a deadlock."""
    outcome = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as exc:  # handed back to the test thread below
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def large_java(index, size):
    line = f"    // line of file {index}\n"
    return f"class L{index} {{\n" + line * (size // len(line)) + "}\n"


class TestGitCatFile:
    def commit_files(self, sandbox, texts):
        for name, text in texts.items():
            sandbox.write(name, text)
        sandbox.commit("add")
        (entry,) = walk_history(sandbox.root)
        return entry, sorted(entry.changes, key=lambda change: change.path)

    def test_dead_reader_raises_instead_of_reporting_absence(self):
        reader = GitCatFile.__new__(GitCatFile)
        reader._proc = SimpleNamespace(stdin=io.BytesIO(), stdout=io.BytesIO())
        change = ChangedFile("src/A.java", "M", "ab" * 20)
        reader._order, reader._sent, reader._read = [change.blob], 0, 0
        with pytest.raises(ConfigError, match="c0ffee:src/A.java"):
            reader.read_text("c0ffee", change)

    def test_blobs_are_read_by_id(self, git_sandbox):
        git_sandbox.write("A.java", PLAIN_JAVA)
        git_sandbox.commit("add")
        (entry,) = walk_history(git_sandbox.root)
        (change,) = entry.changes
        missing = ChangedFile("Nope.java", "A", "0" * 40)
        with GitCatFile(git_sandbox.root, [change.blob, missing.blob]) as reader:
            assert reader.read_text(entry.commit_id, change) == PLAIN_JAVA
            assert reader.read_text(entry.commit_id, missing) is None

    def test_many_blobs_past_the_window_are_all_read(self, git_sandbox):
        texts = {f"F{i:03d}.java": large_java(i, 300 + 7 * i) for i in range(298)}
        texts["Big0.java"] = large_java(998, 200_000)
        texts["Big1.java"] = large_java(999, 100_000)
        entry, changes = self.commit_files(git_sandbox, texts)
        assert len(changes) == 300 and sum(map(len, texts.values())) > 64 * 1024

        def read_all():
            with GitCatFile(git_sandbox.root, [c.blob for c in changes]) as reader:
                return [reader.read_text(entry.commit_id, c) for c in changes]

        assert within(10, read_all) == [texts[c.path] for c in changes]

    def test_reading_out_of_the_declared_order_is_refused(self, git_sandbox):
        entry, (first, second) = self.commit_files(
            git_sandbox, {"A.java": PLAIN_JAVA, "B.java": ON_HOLD_JAVA}
        )

        def read_second_first():
            with GitCatFile(git_sandbox.root, [first.blob, second.blob]) as reader:
                with pytest.raises(ConfigError, match="B.java"):
                    reader.read_text(entry.commit_id, second)
                assert reader.read_text(entry.commit_id, first) == PLAIN_JAVA
                with pytest.raises(ConfigError, match="A.java"):
                    reader.read_text(entry.commit_id, first)

        within(10, read_second_first)

    def test_killed_git_raises_naming_the_change_and_closes(self, git_sandbox):
        texts = {f"L{i}.java": large_java(i, 1 << 20) for i in range(3)}
        entry, changes = self.commit_files(git_sandbox, texts)
        reader = GitCatFile(git_sandbox.root, [c.blob for c in changes])
        try:
            first = within(10, lambda: reader.read_text(entry.commit_id, changes[0]))
            assert first == texts["L0.java"]
            reader._proc.kill()
            reader._proc.wait(timeout=10)
            with pytest.raises(ConfigError, match=f"{entry.commit_id}:L1.java"):
                within(10, lambda: reader.read_text(entry.commit_id, changes[1]))
        finally:
            within(2, reader.close)

    def test_exception_mid_read_leaves_promptly_as_itself(self, git_sandbox):
        texts = {f"L{i}.java": large_java(i, 1 << 20) for i in range(4)}
        entry, changes = self.commit_files(git_sandbox, texts)

        def stop_after_one():
            with GitCatFile(git_sandbox.root, [c.blob for c in changes]) as reader:
                reader.read_text(entry.commit_id, changes[0])
                raise KeyError("stop")

        with pytest.raises(KeyError, match="stop"):
            within(2, stop_after_one)


class TestTraceLifecycles:
    def mine(self, sandbox, patterns, **kwargs):
        history = walk_history(sandbox.root)
        return trace_lifecycles(sandbox.root, history, patterns, **kwargs)

    def test_surviving_comment_is_remaining(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        git_sandbox.write("Other.java", PLAIN_JAVA)
        git_sandbox.commit("unrelated change")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert not life.removed
        assert life.introduced_commit == c1
        assert life.introduced_date == datetime(2021, 1, 1, 12, 0, tzinfo=UTC)
        assert life.block.file_path == "A.java"
        assert life.block.start_line == 2
        assert life.ambiguous is False
        assert (life.issue_key, life.tracker) == ("HADOOP-1234", TrackerKind.JIRA)

    def test_first_reference_decides_the_issue(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", "// blocked on HADOOP-2 and HADOOP-1\nclass A {}\n")
        git_sandbox.commit("add")
        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.issue_key == "HADOOP-2"

    def test_non_ascii_path_is_mined(self, git_sandbox, jira_patterns):
        git_sandbox.write("src/Été.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        git_sandbox.write("src/Été.java", PLAIN_JAVA)
        c2 = git_sandbox.commit("drop the comment")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.block.file_path == "src/Été.java"
        assert (life.introduced_commit, life.removed_commit) == (c1, c2)

    def test_newline_in_a_path_does_not_shift_later_reads(
        self, git_sandbox, jira_patterns
    ):
        git_sandbox.write("src/a\nb.java", ON_HOLD_JAVA)
        git_sandbox.write("src/z.java", ON_HOLD_JAVA.replace("1234", "77"))
        c1 = git_sandbox.commit("add")
        git_sandbox.write("src/z.java", PLAIN_JAVA)
        c2 = git_sandbox.commit("drop the comment in z")

        first, second = self.mine(git_sandbox, jira_patterns)
        assert (first.block.file_path, first.issue_key) == ("src/a\nb.java", "HADOOP-1234")
        assert (first.introduced_commit, first.removed_commit) == (c1, None)
        assert (second.block.file_path, second.issue_key) == ("src/z.java", "HADOOP-77")
        assert (second.introduced_commit, second.removed_commit) == (c1, c2)

    def test_edited_away_comment_is_removed(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        git_sandbox.write("A.java", PLAIN_JAVA)
        c2 = git_sandbox.commit("drop the comment")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.removed
        assert (life.introduced_commit, life.removed_commit) == (c1, c2)
        assert life.removed_date == datetime(2021, 1, 2, 12, 0, tzinfo=UTC)

    def test_file_deletion_closes_the_lifecycle(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add")
        git_sandbox.delete("A.java")
        c2 = git_sandbox.commit("delete file")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.removed_commit == c2

    def test_reformatting_does_not_break_identity(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        reformatted = ON_HOLD_JAVA.replace(
            "// TODO remove after HADOOP-1234 is fixed",
            "//   TODO  remove   after HADOOP-1234 is  fixed",
        )
        git_sandbox.write("A.java", reformatted)
        git_sandbox.commit("reformat")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert not life.removed
        assert life.introduced_commit == c1

    def test_rewording_ends_one_lifecycle_and_starts_another(
        self, git_sandbox, jira_patterns
    ):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        git_sandbox.write("A.java", ON_HOLD_JAVA.replace("HADOOP-1234", "HADOOP-999"))
        c2 = git_sandbox.commit("retarget the issue")

        lives = self.mine(git_sandbox, jira_patterns)
        assert len(lives) == 2
        closed = [l for l in lives if l.removed]
        opened = [l for l in lives if not l.removed]
        assert [l.introduced_commit for l in closed] == [c1]
        assert [l.removed_commit for l in closed] == [c2]
        assert [l.introduced_commit for l in opened] == [c2]

    def test_duplicate_texts_trace_once_as_ambiguous(self, git_sandbox, jira_patterns):
        source = (
            "public class A {\n"
            "    // see HADOOP-7 for context\n"
            "    int x;\n"
            "    // see HADOOP-7 for context\n"
            "    int y;\n"
            "}\n"
        )
        git_sandbox.write("A.java", source)
        git_sandbox.commit("add duplicates")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.ambiguous is True

    def test_text_duplicated_later_stays_one_ambiguous_lifecycle(
        self, git_sandbox, jira_patterns
    ):
        comment = "    // see HADOOP-7 for context\n"
        git_sandbox.write("A.java", "public class A {\n" + comment + "    int x;\n}\n")
        c1 = git_sandbox.commit("add")
        git_sandbox.write(
            "A.java", "public class A {\n" + comment + "    int x;\n" + comment + "}\n"
        )
        git_sandbox.commit("duplicate")
        git_sandbox.write("A.java", PLAIN_JAVA)
        c3 = git_sandbox.commit("remove both")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.ambiguous is True
        assert (life.introduced_commit, life.removed_commit) == (c1, c3)
        assert life.block.start_line == 2

    def test_readded_comment_starts_a_fresh_lifecycle(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c1 = git_sandbox.commit("add")
        git_sandbox.write("A.java", PLAIN_JAVA)
        c2 = git_sandbox.commit("remove")
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        c3 = git_sandbox.commit("re-add")

        lives = self.mine(git_sandbox, jira_patterns)
        assert len(lives) == 2
        first, second = lives
        assert (first.introduced_commit, first.removed_commit) == (c1, c2)
        assert second.introduced_commit == c3
        assert not second.removed

    def test_rename_is_a_removal_plus_an_introduction(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add")
        git_sandbox.move("A.java", "B.java")
        c2 = git_sandbox.commit("rename")

        lives = self.mine(git_sandbox, jira_patterns)
        assert len(lives) == 2
        by_path = {l.block.file_path: l for l in lives}
        assert by_path["A.java"].removed_commit == c2
        assert not by_path["B.java"].removed
        assert by_path["B.java"].introduced_commit == c2

    def test_test_files_are_excluded_by_default(self, git_sandbox, jira_patterns):
        git_sandbox.write("src/test/java/FooTest.java", ON_HOLD_JAVA)
        git_sandbox.commit("add test code")

        assert self.mine(git_sandbox, jira_patterns) == []
        included = self.mine(git_sandbox, jira_patterns, include_tests=True)
        assert len(included) == 1

    def test_comment_without_issue_reference_is_ignored(
        self, git_sandbox, jira_patterns
    ):
        git_sandbox.write("A.java", PLAIN_JAVA)
        git_sandbox.commit("add")
        assert self.mine(git_sandbox, jira_patterns) == []

    def test_issue_text_inside_a_string_literal_is_ignored(
        self, git_sandbox, jira_patterns
    ):
        source = 'public class A { String s = "HADOOP-1 is not a comment"; }\n'
        git_sandbox.write("A.java", source)
        git_sandbox.commit("add")
        assert self.mine(git_sandbox, jira_patterns) == []

    def test_block_comment_line_range(self, git_sandbox, jira_patterns):
        source = "/* waiting on HADOOP-42\n   before enabling */\nclass A {}\n"
        git_sandbox.write("A.java", source)
        git_sandbox.commit("add")
        (life,) = self.mine(git_sandbox, jira_patterns)
        assert (life.block.start_line, life.block.end_line) == (1, 2)

    def test_backwards_clock_clamps_the_removal_date(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add", date="2021-01-05T12:00:00+00:00")
        git_sandbox.write("A.java", PLAIN_JAVA)
        git_sandbox.commit("remove earlier", date="2021-01-03T12:00:00+00:00")

        (life,) = self.mine(git_sandbox, jira_patterns)
        assert life.removed_date == life.introduced_date

    def test_rerun_is_identical(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add")
        git_sandbox.write("A.java", ON_HOLD_JAVA + "// see HADOOP-77\n")
        git_sandbox.commit("extend")

        first = self.mine(git_sandbox, jira_patterns)
        second = self.mine(git_sandbox, jira_patterns)
        assert first == second

    def test_removed_and_remaining_partition_the_total(
        self, git_sandbox, jira_patterns
    ):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add")
        git_sandbox.write("A.java", ON_HOLD_JAVA.replace("HADOOP-1234", "HADOOP-2"))
        git_sandbox.commit("reword")
        git_sandbox.write("B.java", ON_HOLD_JAVA.replace("class A", "class B"))
        git_sandbox.commit("add B")

        lives = self.mine(git_sandbox, jira_patterns)
        removed = [l for l in lives if l.removed]
        remaining = [l for l in lives if not l.removed]
        assert len(removed) + len(remaining) == len(lives) == 3

    def test_each_text_is_detected_once_per_file_version(
        self, git_sandbox, jira_patterns, monkeypatch
    ):
        detected = []

        def counting(text, patterns):
            detected.append(text)
            return find_issue_references(text, patterns)

        monkeypatch.setattr(miner, "find_issue_references", counting)
        hold = "    // TODO remove after HADOOP-1234 is fixed\n"
        git_sandbox.write("A.java", "class A {\n" + hold + "int x;\n// a plain note\n}\n")
        git_sandbox.commit("add")
        git_sandbox.write("A.java", "class A {\n" + hold + "int y;\n// a plain note\n}\n")
        git_sandbox.commit("code only")
        git_sandbox.write(
            "A.java", "class A {\n" + hold + "int y;\n// see HADOOP-77\n}\n" + hold
        )
        git_sandbox.write("B.java", "class B {\n" + hold + "}\n")
        git_sandbox.commit("duplicate, reword and copy")

        lives = self.mine(git_sandbox, jira_patterns)
        assert len(lives) == 3
        assert detected == [
            "TODO remove after HADOOP-1234 is fixed",
            "a plain note",
            "see HADOOP-77",
            "TODO remove after HADOOP-1234 is fixed",
        ]

    def test_test_paths_are_decided_once_per_path(
        self, git_sandbox, jira_patterns, monkeypatch
    ):
        decided = []
        monkeypatch.setattr(
            miner, "is_test_file", lambda path: decided.append(path) or is_test_file(path)
        )
        for version in ("int x;", "int y;", "int z;"):
            git_sandbox.write("A.java", ON_HOLD_JAVA.replace("int x;", version))
            git_sandbox.write("src/test/ATest.java", ON_HOLD_JAVA.replace("int x;", version))
            git_sandbox.commit(version)

        assert len(self.mine(git_sandbox, jira_patterns)) == 1
        assert sorted(decided) == ["A.java", "src/test/ATest.java"]

    def test_trace_accepts_a_precomputed_history(self, git_sandbox, jira_patterns):
        git_sandbox.write("A.java", ON_HOLD_JAVA)
        git_sandbox.commit("add")
        history = walk_history(git_sandbox.root)
        lives = trace_lifecycles(git_sandbox.root, history, jira_patterns)
        assert lives == self.mine(git_sandbox, jira_patterns)


def _detect_every_block(root, history, patterns, include_tests):
    """Reference tracer: reads each blob alone and detects every block anew."""
    active: dict[str, dict[str, CommentLifecycle]] = {}
    finished: list[CommentLifecycle] = []
    for entry in history:
        for change in entry.changes:
            if not include_tests and is_test_file(change.path):
                continue
            blocks = []
            if change.status != "D":
                source = subprocess.run(
                    ["git", "-C", str(root), "cat-file", "blob", change.blob],
                    capture_output=True, check=True,
                ).stdout.decode("utf-8", errors="replace")
                blocks = extract_comments(source, change.path)
            present = {}
            counts: dict[str, int] = {}
            for block in blocks:
                references = find_issue_references(block.normalized_text, patterns)
                if not references:
                    continue
                key = normalize_whitespace(block.normalized_text)
                counts[key] = counts.get(key, 0) + 1
                present.setdefault(key, (block, references[0]))
            in_file = active.setdefault(change.path, {})
            for key in [key for key in in_file if key not in present]:
                lc = in_file.pop(key)
                finished.append(replace(
                    lc, removed_commit=entry.commit_id,
                    removed_date=max(entry.timestamp, lc.introduced_date),
                ))
            for key, (block, reference) in present.items():
                lc = in_file.get(key)
                if lc is None:
                    in_file[key] = CommentLifecycle(
                        block=block,
                        issue_key=reference.key,
                        tracker=reference.tracker,
                        introduced_commit=entry.commit_id,
                        introduced_date=entry.timestamp,
                        ambiguous=counts[key] > 1,
                    )
                elif counts[key] > 1:
                    in_file[key] = replace(lc, ambiguous=True)
    for in_file in active.values():
        finished.extend(in_file.values())
    finished.sort(
        key=lambda lc: (lc.introduced_date, lc.introduced_commit,
                        lc.block.file_path, lc.block.start_line, lc.text_key)
    )
    return finished


class TestTraceGolden:
    """A seeded 30-commit history traced exactly as the per-block reference does.

    Referenced comments are edited, reformatted, duplicated, removed and
    re-added, and moved to another file with the same text; files are
    renamed and deleted, and one commit's clock runs backwards.
    """

    TEXTS = (
        "TODO remove after HADOOP-{n} is fixed",
        "workaround for HADOOP-{n} until the upstream fix lands",
        "blocked on HADOOP-{n} and HADOOP-{m}",
        "a plain note about caching {n}",
        "see https://issues.apache.org/jira/browse/HADOOP-{n}",
    )
    OPS = ("add", "edit", "reformat", "duplicate", "remove", "readd", "move",
           "rename", "delete", "touch")

    @staticmethod
    def render(path, comments, salt):
        lines = [f"public class {path.rsplit('/', 1)[-1][:-5]} {{"]
        for i, (text, style) in enumerate(comments):
            if style == "line":
                lines.append(f"    // {text}")
            elif style == "spaced":
                lines.append("    //   " + "  ".join(text.split(" ")))
            else:
                words = text.split(" ")
                half = len(words) // 2
                lines.append("    /* " + " ".join(words[:half]))
                lines.append("     " + " ".join(words[half:]) + " */")
            lines.append(f"    int f{i} = {salt};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def build(self, sandbox, seed):
        rng = random.Random(seed)

        def new_text():
            template = rng.choice(self.TEXTS)
            return template.format(n=rng.randint(1, 40), m=rng.randint(41, 80))

        files = {
            "src/main/A.java": [(new_text(), "line"), (new_text(), "block")],
            "src/main/B.java": [(new_text(), "line")],
            "src/main/util/Ĉ.java": [(new_text(), "spaced"), (new_text(), "line")],
            "src/test/java/ATest.java": [(new_text(), "line")],
        }
        removed: list[tuple[str, tuple[str, str]]] = []
        ops = list(self.OPS) * 3
        rng.shuffle(ops)
        stamp = datetime(2021, 3, 1, 12, 0, tzinfo=UTC)
        for number, op in enumerate(["init", *ops]):
            paths = sorted(files)
            path = rng.choice(paths)
            comments = files[path]
            if op == "add" or (op != "init" and not comments):
                comments.insert(rng.randint(0, len(comments)), (new_text(), "line"))
            elif op == "edit":
                i = rng.randrange(len(comments))
                text, style = comments[i]
                comments[i] = (text.replace("HADOOP-", "HADOOP-1", 1) + " soon", style)
            elif op == "reformat":
                i = rng.randrange(len(comments))
                text, style = comments[i]
                styles = [s for s in ("line", "spaced", "block") if s != style]
                comments[i] = (text, rng.choice(styles))
            elif op == "duplicate":
                comments.insert(rng.randint(0, len(comments)), rng.choice(comments))
            elif op == "remove":
                removed.append((path, comments.pop(rng.randrange(len(comments)))))
            elif op == "readd" and removed:
                back, comment = removed.pop(0)
                files.setdefault(back, []).append(comment)
            elif op == "move" and len(paths) > 1:
                other = rng.choice([p for p in paths if p != path])
                files[other].append(comments.pop(rng.randrange(len(comments))))
            elif op == "rename":
                target = path.replace(".java", f"R{number}.java")
                sandbox.move(path, target)
                files[target] = files.pop(path)
            elif op == "delete" and len(paths) > 1:
                sandbox.delete(path)
                del files[path]
            for name, body in files.items():
                salt = number if op == "touch" and name == path else 0
                sandbox.write(name, self.render(name, body, salt))
            # Commit 20's clock runs an hour behind commit 19's.
            stamp += timedelta(hours=-1 if number == 20 else 5)
            sandbox.commit(f"{op} {number}", date=stamp.isoformat())

    @pytest.mark.parametrize("include_tests", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_block_detection(self, git_sandbox, jira_patterns, seed,
                                         include_tests):
        self.build(git_sandbox, seed)
        history = walk_history(git_sandbox.root)
        assert len(history) == 31

        lives = trace_lifecycles(git_sandbox.root, history, jira_patterns,
                                 include_tests=include_tests)
        assert lives == _detect_every_block(git_sandbox.root, history,
                                            jira_patterns, include_tests)
        assert any(lc.ambiguous for lc in lives)
        assert any(lc.removed for lc in lives)
        assert any(not lc.removed for lc in lives)


class TestCommentLifecycleValidation:
    def make_block(self):
        from onhold.javalex import CommentBlock

        return CommentBlock(
            file_path="A.java",
            start_line=1,
            end_line=1,
            raw_text="// x",
            normalized_text="x",
        )

    def test_removed_fields_must_pair(self):
        with pytest.raises(ValueError):
            CommentLifecycle(
                block=self.make_block(),
                issue_key="HADOOP-1",
                tracker=TrackerKind.JIRA,
                introduced_commit="c1",
                introduced_date=datetime(2021, 1, 1, tzinfo=UTC),
                removed_commit="c2",
                removed_date=None,
            )

    def test_removal_cannot_precede_introduction(self):
        with pytest.raises(ValueError):
            CommentLifecycle(
                block=self.make_block(),
                issue_key="HADOOP-1",
                tracker=TrackerKind.JIRA,
                introduced_commit="c1",
                introduced_date=datetime(2021, 1, 5, tzinfo=UTC),
                removed_commit="c2",
                removed_date=datetime(2021, 1, 1, tzinfo=UTC),
            )
