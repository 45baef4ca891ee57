"""Seeded input generators for the benchmark workloads.

Every input the benchmark feeds to ``onhold`` is made here from the
workload seed alone, without importing ``onhold`` or the test helpers,
so neither a program change nor a test edit can shift the inputs.  The
same seed always gives byte-identical files.  Each generator also
returns the ground truth its oracle checks the program's outputs
against.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

PROJECT = "HADOOP"

# Filler vocabulary of Java-ish identifiers.  None of these words may
# contain "bug" or the project name: the Jira pattern set treats
# "bug 12" as an issue reference.
WORDS = (
    "buffer", "cache", "parser", "thread", "config", "stream", "index",
    "timeout", "client", "server", "handler", "retry", "token", "legacy",
    "codec", "socket", "batch", "queue", "pool", "block", "lease", "replica",
    "quota", "snapshot", "journal", "ledger", "metric", "scheduler", "shuffle",
    "reducer", "mapper", "split", "checksum", "datanode", "namenode", "rpc",
)

# On-hold and cross-reference phrasings deliberately share words
# ("workaround", "fixed", "check", "resolved", "once", "path") so the
# classes are not separable by a single token.
ON_HOLD_TEMPLATES = (
    "remove this workaround once {key} is fixed",
    "TODO: drop this check when {key} is resolved",
    "wait for {key} before enabling the {word} path",
    "temporary {word} hack until {key} is fixed upstream",
    "revert to the old {word} once {key} lands",
    "FIXME: this can go away after {key} is fixed",
    "keep this {word} check until {key} is resolved",
)
CROSS_TEMPLATES = (
    "this workaround is explained in {key}",
    "the {word} check was fixed in {key}",
    "see {key} for why the {word} path looks like this",
    "fixed by {key}; the old {word} hack is gone",
    "{word} handling follows the design in {key}",
    "this check once failed, see {key}",
    "added for {key} after the {word} issue was resolved",
    "the {word} path is described in {key}",
)

NON_ASCII_DIRS = ("données", "配置", "ünïcode", "Été", "прокси")
CLASS_PARTS = (
    "Block", "Cache", "Codec", "Lease", "Quota", "Replica", "Journal",
    "Ledger", "Metric", "Shuffle", "Split", "Stream", "Token", "Queue",
    "Pool", "Socket", "Batch", "Index", "Parser", "Handler",
)
CLASS_SUFFIXES = ("Manager", "Service", "Reader", "Writer", "Util", "Store", "Tracker")

BASE_EPOCH = 1_500_000_000

# Shares that shape the inputs.  Sizes are in SHAPES below.
ADD_SHARE = 0.8          # history touches that add a referencing comment
REMOVE_SHARE = 0.25      # history touches that remove one
RENAME_SHARE = 0.01      # history touches that rename the file instead
NON_ASCII_SHARE = 0.04   # history files under a non-ASCII directory
ON_HOLD_SHARE = 0.13     # labeled and triaged comments with an on-hold phrasing
FLIP_SHARE = 0.05        # labels flipped after drawing
REMOVED_SHARE = 0.3      # triage rows whose comment was removed
READY_SHARE = 0.55       # triage issues resolved/fixed
MISSING_SHARE = 0.05     # triage issues without a fixture (404)


def escape_tsv(value: str) -> str:
    """Field escaping of the onhold TSV format, written independently."""
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def write_tsv(path: Path, columns: tuple[str, ...], rows: list[list[str]]) -> None:
    lines = ["\t".join(escape_tsv(c) for c in columns)]
    lines.extend("\t".join(escape_tsv(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def comment_phrase(rng: random.Random, key: str, on_hold: bool) -> str:
    template = rng.choice(ON_HOLD_TEMPLATES if on_hold else CROSS_TEMPLATES)
    words = [template.format(key=key, word=rng.choice(WORDS))]
    if rng.random() < 0.6:
        words.insert(0, " ".join(rng.sample(WORDS, rng.randint(1, 3))))
    if rng.random() < 0.6:
        words.append(" ".join(rng.sample(WORDS, rng.randint(1, 3))))
    return " ".join(words)


def isolated_git_env(home: Path) -> dict[str, str]:
    """Environment for git children: no system or user configuration."""
    env = dict(os.environ)
    env.update(
        HOME=str(home),
        XDG_CONFIG_HOME=str(home / ".config"),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=str(home / ".gitconfig"),
        GIT_TERMINAL_PROMPT="0",
    )
    return env


# --------------------------------------------------------------------------
# mine-history: a first-parent git history built with git fast-import


@dataclass
class _Member:
    """One method of a generated class, optionally led by a comment."""

    ident: int
    body: str
    comment: str = ""   # comment source with delimiters, "" for none
    key: str = ""       # issue key cited by the comment


@dataclass
class _JavaFile:
    package: str
    name: str
    members: list[_Member] = field(default_factory=list)

    def render(self) -> str:
        out = [
            f"package org.apache.hadoop.{self.package};\n\n"
            "import java.io.IOException;\nimport java.util.List;\n\n"
            f"/**\n * Generated class {self.name}.\n */\n"
            f"public class {self.name} {{\n"
            '  private static final String SEP = "//";\n'
            "  private static final char SLASH = '/';\n\n"
        ]
        for member in self.members:
            if member.comment:
                out.append(member.comment)
            out.append(member.body)
        out.append("}\n")
        return "".join(out)


@dataclass(frozen=True)
class Lifecycle:
    """Ground truth of one issue-referencing comment episode."""

    path: str
    key: str
    introduced: int          # commit index, 0-based
    removed: int | None      # commit index, None while still present


@dataclass
class History:
    commits: list[str]       # first-parent commit ids, oldest first
    lifecycles: list[Lifecycle]


def _method(rng: random.Random, ident: int) -> str:
    word = rng.choice(WORDS)
    fake = 900_000 + rng.randrange(90_000)
    lines = [f"  public int {word}{ident}(int x) throws IOException {{\n"]
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            lines.append(
                f'    String s{ident} = "http://host/*{word}*/ // not a comment '
                f'{PROJECT}-{fake}";\n'
            )
        elif kind == 1:
            lines.append("    char c = '/'; char d = '*'; char q = '\\'';\n")
        elif kind == 2:
            lines.append(
                f"    int y = x * {rng.randrange(1, 99)}; // plain note on "
                f"{rng.choice(WORDS)}\n"
            )
        elif kind == 3:
            lines.append(f'    x += SEP.length() + "/*".length() + {rng.randrange(9)};\n')
        else:
            lines.append(
                f"    /* inline {rng.choice(WORDS)} remark */ x ^= {rng.randrange(7)};\n"
            )
    lines.append("    return x + SLASH;\n  }\n\n")
    return "".join(lines)


def _reference_comment(rng: random.Random, key: str) -> str:
    text = comment_phrase(rng, key, on_hold=rng.random() < 0.3)
    style = rng.random()
    if style < 0.7:
        return f"  // {text}\n"
    words = text.split()
    cut = max(1, len(words) // 2)
    first, second = " ".join(words[:cut]), " ".join(words[cut:])
    if style < 0.85:
        return f"  // {first}\n  // {second}\n"
    return f"  /* {first}\n   * {second}\n   */\n"


def _file_paths(rng: random.Random, shape: random.Random, n_files: int) -> list[str]:
    paths: list[str] = []
    seen: set[str] = set()
    n_non_ascii = max(1, round(n_files * NON_ASCII_SHARE))
    while len(paths) < n_files:
        name = rng.choice(CLASS_PARTS) + rng.choice(CLASS_PARTS) + rng.choice(CLASS_SUFFIXES)
        package = rng.choice(WORDS)
        if len(paths) < n_non_ascii:
            package = rng.choice(NON_ASCII_DIRS)
        path = f"src/main/java/org/apache/hadoop/{package}/{name}.java"
        if path not in seen:
            seen.add(path)
            paths.append(path)
    shape.shuffle(paths)
    return paths


def _fast_import_data(text: str) -> bytes:
    body = text.encode("utf-8")
    return b"data %d\n" % len(body) + body + b"\n"


def generate_history(
    root: Path, seed: int, n_commits: int, n_files: int, touches_per_commit: int
) -> History:
    """Build a linear history in ``root/repo`` and return its ground truth.

    Each commit touches ``touches_per_commit`` distinct files.  A touch
    adds a method led by a comment citing a fresh ``HADOOP-n`` key with
    probability ``ADD_SHARE`` and removes one such comment (with or
    without its method) with probability ``REMOVE_SHARE``; a touch that
    does neither edits a constant so the file still changes.  A small
    share of touches rename the file instead, which git without rename
    detection reports as a delete plus an add.  A few directories have
    non-ASCII names.  Committer dates are fixed, one hour apart.

    The seed draws the content: names, keys, comments and code.  The
    shape (which file each touch hits, and whether it adds, removes or
    renames) comes from a generator that no seed changes, so every seed
    has the same number of lifecycles, the same share of them under
    non-ASCII directories, and the same work per pass.
    """
    rng = random.Random(f"history:{seed}")
    shape = random.Random("history-shape")
    repo = root / "repo"
    env = isolated_git_env(root / "home")
    (root / "home").mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True, env=env)

    paths = _file_paths(rng, shape, n_files)
    files: dict[str, _JavaFile] = {}
    open_at: dict[tuple[str, str], int] = {}
    done: list[Lifecycle] = []
    next_key = 1000
    next_ident = 0
    stream: list[bytes] = []

    for index in range(n_commits):
        ops: list[bytes] = []
        for path in shape.sample(paths, touches_per_commit):
            jf = files.get(path)
            if jf is None:
                jf = files[path] = _JavaFile(path.split("/")[-2], path.split("/")[-1][:-5])
            elif shape.random() < RENAME_SHARE:
                # Move the file to a fresh path; its comments end here
                # and start again under the new name.
                new_path = path[:-5] + "V2.java"
                if new_path in files or new_path in paths:
                    new_path = path  # no free name: degrade to an edit
                if new_path != path:
                    for key in [m.key for m in jf.members if m.key]:
                        done.append(Lifecycle(path, key, open_at.pop((path, key)), index))
                        open_at[(new_path, key)] = index
                    del files[path]
                    files[new_path] = jf
                    paths[paths.index(path)] = new_path
                    ops.append(b"D " + path.encode("utf-8") + b"\n")
                    ops.append(b"M 100644 inline " + new_path.encode("utf-8") + b"\n")
                    ops.append(_fast_import_data(jf.render()))
                    continue
            commented = [m for m in jf.members if m.key]
            changed = False
            if shape.random() < ADD_SHARE:
                key = f"{PROJECT}-{next_key}"
                next_key += rng.randint(1, 7)
                next_ident += 1
                member = _Member(next_ident, _method(rng, next_ident),
                                 _reference_comment(rng, key), key)
                jf.members.insert(rng.randint(0, len(jf.members)), member)
                open_at[(path, key)] = index
                changed = True
            if commented and shape.random() < REMOVE_SHARE:
                victim = shape.choice(commented)
                done.append(Lifecycle(path, victim.key, open_at.pop((path, victim.key)), index))
                if rng.random() < 0.5:
                    jf.members.remove(victim)
                else:
                    victim.comment, victim.key = "", ""
                changed = True
            if not changed:
                if jf.members:
                    edited = rng.choice(jf.members)
                    edited.body = _method(rng, edited.ident)
                else:
                    next_ident += 1
                    jf.members.append(_Member(next_ident, _method(rng, next_ident)))
            ops.append(b"M 100644 inline " + path.encode("utf-8") + b"\n")
            ops.append(_fast_import_data(jf.render()))
        stamp = BASE_EPOCH + index * 3600
        stream.append(b"commit refs/heads/main\n")
        stream.append(b"mark :%d\n" % (index + 1))
        stream.append(b"committer Bench <bench@example.com> %d +0000\n" % stamp)
        stream.append(_fast_import_data(f"change {index}"))
        if index:
            stream.append(b"from :%d\n" % index)
        stream.extend(ops)
        stream.append(b"\n")

    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet", "--date-format=raw"],
        input=b"".join(stream), check=True, env=env,
    )
    commits = subprocess.run(
        ["git", "-C", str(repo), "rev-list", "--first-parent", "--reverse", "main"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    if len(commits) != n_commits:
        raise RuntimeError(f"expected {n_commits} commits, git lists {len(commits)}")
    lifecycles = done + [Lifecycle(p, k, i, None) for (p, k), i in open_at.items()]
    lifecycles.sort(key=lambda lc: (lc.path, lc.key))
    return History(commits, lifecycles)


# --------------------------------------------------------------------------
# train-triage: noisy labeled corpora


LABEL_COLUMNS = ("comment_text", "file_path", "line_number", "issue_key", "label")


def generate_corpus(path: Path, seed: int, size: int, part: int) -> None:
    """Write a labeled TSV of ``size`` comments; ``part`` numbers
    independent corpora drawn for one seed.

    ``ON_HOLD_SHARE`` of the comments use an on-hold phrasing; then
    ``FLIP_SHARE`` of all labels are flipped, so the corpus is not
    separable and learned trees grow to a realistic depth.
    """
    rng = random.Random(f"corpus:{seed}:{part}")
    n_on_hold = round(size * ON_HOLD_SHARE)
    keys = rng.sample(range(1000, 99_999), size)
    rows: list[list[str]] = []
    for i in range(size):
        on_hold = i < n_on_hold
        key = f"{PROJECT}-{keys[i]}"
        rows.append([
            comment_phrase(rng, key, on_hold),
            f"src/main/java/org/apache/hadoop/{rng.choice(WORDS)}/{rng.choice(CLASS_PARTS)}.java",
            str(rng.randint(1, 900)),
            key,
            "OnHold" if on_hold else "CrossReference",
        ])
    for i in rng.sample(range(size), round(size * FLIP_SHARE)):
        rows[i][4] = "CrossReference" if rows[i][4] == "OnHold" else "OnHold"
    rng.shuffle(rows)
    write_tsv(path, LABEL_COLUMNS, rows)


# --------------------------------------------------------------------------
# train-triage: a large lifecycle table and recorded Jira responses


LIFECYCLE_COLUMNS = (
    "comment_text", "file_path", "line_number", "end_line", "issue_key",
    "tracker", "introduced_commit", "introduced_date", "removed_commit",
    "removed_date", "ambiguous", "raw_text",
)

READY_STATES = (("Resolved", "Fixed"), ("Closed", "Fixed"), ("Verified", "Fixed"))
PENDING_STATES = (
    ("Open", None), ("In Progress", None), ("Reopened", None), ("Patch Available", None),
    ("Resolved", "Won't Fix"), ("Closed", "Duplicate"), ("Closed", "Cannot Reproduce"),
)


def _stamp(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def generate_triage(root: Path, seed: int, rows: int, keys: int) -> dict[str, bool]:
    """Write a lifecycle TSV of ``rows`` comments and Jira fixtures.

    Comments cite ``keys`` distinct issues.  ``READY_SHARE`` of the
    issues are resolved/fixed, ``MISSING_SHARE`` have no fixture (the
    tracker answers 404) and the rest are open or closed without a fix.
    Returns whether each issue with a fixture is ready (resolved/fixed).
    """
    rng = random.Random(f"triage:{seed}")
    numbers = rng.sample(range(1000, 999_999), keys)
    pool = [f"{PROJECT}-{n}" for n in numbers]
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    readiness: dict[str, bool] = {}
    n_ready = round(keys * READY_SHARE)
    n_missing = round(keys * MISSING_SHARE)
    for i, key in enumerate(pool):
        if i >= keys - n_missing:
            continue  # no fixture: the tracker answers 404
        if i < n_ready:
            status, resolution = rng.choice(READY_STATES)
        else:
            status, resolution = rng.choice(PENDING_STATES)
        resolved = (
            _stamp(BASE_EPOCH + rng.randrange(10**8)).replace("Z", "+0000")
            if resolution else None
        )
        payload = {
            "key": key,
            "fields": {
                "status": {"name": status},
                "resolution": {"name": resolution} if resolution else None,
                "resolutiondate": resolved,
            },
        }
        (fixtures / f"jira_{key}.json").write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        readiness[key] = resolution == "Fixed"

    out_rows: list[list[str]] = []
    for i in range(rows):
        key = rng.choice(pool)
        text = comment_phrase(rng, key, on_hold=rng.random() < ON_HOLD_SHARE)
        line = rng.randint(1, 2000)
        intro = BASE_EPOCH + rng.randrange(10**8)
        removed = rng.random() < REMOVED_SHARE
        out_rows.append([
            text,
            f"src/main/java/org/apache/hadoop/{rng.choice(WORDS)}/{rng.choice(CLASS_PARTS)}{i}.java",
            str(line),
            str(line),
            key,
            "jira",
            f"{rng.getrandbits(160):040x}",
            _stamp(intro),
            f"{rng.getrandbits(160):040x}" if removed else "",
            _stamp(intro + rng.randrange(1, 10**7)) if removed else "",
            "false",
            f"// {text}",
        ])
    write_tsv(root / "lifecycles.tsv", LIFECYCLE_COLUMNS, out_rows)
    return readiness


# --------------------------------------------------------------------------
# one entry point per workload

# Input sizes per workload, the only place they are set.  They are a
# fraction of the paper-scale shapes (2,000 commits over 200 files,
# 1,500 labeled comments, 50,000 lifecycle rows) and keep a pass to
# three to seven seconds on a 2-core machine, so that a run holds many
# passes and, set-up included, stays within its budget.
SHAPES = {
    "mine-history": {"n_commits": 800, "n_files": 80, "touches_per_commit": 3},
    "train-triage": {"size": 300, "corpora": 5, "deployed_size": 1500,
                     "rows": 10_000, "keys": 3000},
}


# Seed of the corpora that do not vary with the workload seed: the
# deployed model's training corpus and the warm-up corpus.
FIXED_CORPUS_SEED = 0


def generate(workload: str, seed: int, out: Path) -> None:
    """Write one workload's inputs and its ground truth (truth.json) under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    shape = SHAPES[workload]
    if workload == "mine-history":
        history = generate_history(out, seed, **shape)
        truth = {
            "commits": history.commits,
            "lifecycles": [
                [lc.path, lc.key, lc.introduced, lc.removed] for lc in history.lifecycles
            ],
        }
    elif workload == "train-triage":
        # How deep the forests grow depends on which labels are flipped,
        # so one corpus alone makes training time vary from seed to seed
        # by up to 25 %; passes cycle over several corpora instead, and
        # the warm-up in set-up trains on a corpus that no seed changes.
        generate_corpus(out / "warmup.tsv", FIXED_CORPUS_SEED, shape["size"], part=0)
        for part in range(shape["corpora"]):
            generate_corpus(out / f"corpus-{part}.tsv", seed, shape["size"], part)
        # The deployed model is trained on one fixed annotated corpus;
        # the seed varies the repository's comments and the tracker's
        # answers.
        generate_corpus(out / "deployed.tsv", FIXED_CORPUS_SEED, shape["deployed_size"], part=0)
        readiness = generate_triage(out, seed, shape["rows"], shape["keys"])
        truth = {"corpora": shape["corpora"], "rows": shape["rows"], "readiness": readiness}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 4:
        sys.exit("usage: gen.py WORKLOAD SEED OUT_DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
