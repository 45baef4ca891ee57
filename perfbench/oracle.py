"""Output checks that do not rely on the program under test.

Every check returns a :class:`Verdict`: how many operations it
attempted, how many failed, and how many of the failures were wrong
outputs (a row or verdict that is present but incorrect, or a phantom
one) as opposed to missing ones.  The TSV reader below is written from
the format description, not imported from ``onhold``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: tuple[str, ...] = ()

    def __iadd__(self, other: "Verdict") -> "Verdict":
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes
        return self


def _unescape(value: str) -> str:
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value) and value[i + 1] in _UNESCAPES:
            out.append(_UNESCAPES[value[i + 1]])
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an escaped TSV file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = [_unescape(c) for c in lines[0].split("\t")]
    return header, [[_unescape(c) for c in line.split("\t")] for line in lines[1:] if line]


# --------------------------------------------------------------------------
# mine-history


def check_mined(out: Path, truth: dict) -> Verdict:
    """Compare mined lifecycles with the generator's ground truth.

    Rows are matched on (path, issue key); each must carry the
    introduced and removed commit the history implies.  A missing row
    fails; a row with other commits, a duplicate, or a row with no
    ground truth is wrong.
    """
    commits = truth["commits"]
    expected = {
        (path, key): (commits[intro], commits[removed] if removed is not None else "")
        for path, key, intro, removed in truth["lifecycles"]
    }
    try:
        header, rows = read_tsv(out)
    except OSError:
        return Verdict(len(expected), len(expected), 0, ("mine: no output",))
    col = {name: i for i, name in enumerate(header)}
    seen: set[tuple[str, str]] = set()
    wrong = 0
    for row in rows:
        slot = (row[col["file_path"]], row[col["issue_key"]])
        got = (row[col["introduced_commit"]], row[col["removed_commit"]])
        if slot in seen or expected.get(slot) != got:
            wrong += 1
        seen.add(slot)
    missing = sum(1 for slot in expected if slot not in seen)
    phantom = sum(1 for slot in seen if slot not in expected)
    notes = (f"mine: {len(rows)} rows, {missing} missing, {wrong} wrong",) if missing or wrong else ()
    return Verdict(len(expected) + phantom, missing + wrong, wrong, notes)


# --------------------------------------------------------------------------
# train-triage: training

_ALGORITHMS = ("ExtraTrees", "RandomForest", "NaiveBayes", "LinearSVM", "KNN")


def check_trained(rc: int, model: Path, vocab: Path, reference: bytes | None) -> Verdict:
    """One training run: exit 0, a readable model and vocabulary, and
    the same bytes as the reference run when one is given."""
    try:
        payload = json.loads(model.read_text(encoding="utf-8"))
        readable = (
            payload.get("format") == "onhold-model"
            and payload.get("algorithm") in _ALGORITHMS
            and isinstance(payload.get("state"), dict)
        )
        terms = vocab.read_text(encoding="utf-8").splitlines()
        readable = readable and bool(terms) and all(len(t.split("\t")) == 3 for t in terms)
        same = reference is None or model.read_bytes() + vocab.read_bytes() == reference
    except (OSError, ValueError):
        readable = same = False
    ok = rc == 0 and readable and same
    note = () if ok else (f"train: rc={rc} readable={readable} same_bytes={same}",)
    return Verdict(1, 0 if ok else 1, 0 if ok else 1, note)


# --------------------------------------------------------------------------
# train-triage: triage


def check_classified(inp: Path, out: Path) -> Verdict:
    """Every input row gets exactly one prediction, in order, with its
    own fields kept, a label, and a score in [0, 1] on the right side
    of the 0.5 threshold."""
    in_header, in_rows = read_tsv(inp)
    try:
        header, rows = read_tsv(out)
    except OSError:
        return Verdict(len(in_rows), len(in_rows), 0, ("classify: no output",))
    if header != in_header + ["predicted_label", "score"]:
        return Verdict(len(in_rows), len(in_rows), len(rows), ("classify: bad header",))
    wrong = 0
    for given, row in zip(in_rows, rows):
        try:
            score = float(row[-1])
        except ValueError:
            wrong += 1
            continue
        label = row[-2]
        if (
            row[:-2] != given
            or label not in ("OnHold", "CrossReference")
            or not 0.0 <= score <= 1.0
            or (label == "OnHold") != (score >= 0.5)
        ):
            wrong += 1
    missing = max(0, len(in_rows) - len(rows))
    phantom = max(0, len(rows) - len(in_rows))
    failed = wrong + missing + phantom
    notes = (f"classify: {missing} missing, {wrong + phantom} wrong",) if failed else ()
    return Verdict(len(in_rows) + phantom, failed, wrong + phantom, notes)


def expected_findings(predictions: Path, readiness: dict[str, bool]) -> dict[tuple, bool]:
    """Findings `check` must report for a predictions table.

    One per remaining OnHold row whose issue has a fixture, keyed by
    (file, line, issue) and carrying the readiness the fixture implies;
    rows citing a missing (404) issue are skipped.  Generated file paths
    are unique per row, so the key is too.
    """
    expected: dict[tuple, bool] = {}
    try:
        header, rows = read_tsv(predictions)
    except OSError:
        return expected  # the classify check already counts every row failed
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[col["predicted_label"]] != "OnHold" or row[col["removed_commit"]]:
            continue
        key = row[col["issue_key"]]
        if key in readiness:
            expected[(row[col["file_path"]], int(row[col["line_number"]]), key)] = readiness[key]
    return expected


def check_report_json(out: Path, expected: dict[tuple, bool]) -> Verdict:
    """Each finding of a `check` JSON report against the expectation:
    a missing finding fails, a flipped verdict, duplicate or phantom
    finding is wrong."""
    try:
        payload = json.loads(out.read_text(encoding="utf-8"))
        findings = [
            ((f["file_path"], f["start_line"], f["issue_key"]), f["ready"])
            for f in payload["findings"]
        ]
    except (OSError, ValueError, KeyError, TypeError):
        return Verdict(len(expected), len(expected), 0, ("check: unreadable report",))
    seen: set[tuple] = set()
    wrong = 0
    for slot, ready in findings:
        if slot in seen or expected.get(slot) is not ready:
            wrong += 1
        seen.add(slot)
    missing = sum(1 for slot in expected if slot not in seen)
    phantom = sum(1 for slot in seen if slot not in expected)
    notes = (f"check: {missing} missing, {wrong} wrong",) if missing or wrong else ()
    return Verdict(len(expected) + phantom, missing + wrong, wrong, notes)


def check_markdown(out: Path, findings: int, ready: int) -> Verdict:
    """The markdown report has one section per finding and the right totals."""
    try:
        text = out.read_text(encoding="utf-8")
    except OSError:
        return Verdict(1, 1, 0, ("report: no output",))
    sections = sum(1 for line in text.splitlines() if line.startswith("## "))
    summary = (
        f"{findings} remaining comment(s) checked against their referenced "
        f"issues; {ready} ready to be removed."
    )
    ok = sections == findings and (summary in text if findings else "Zero findings" in text)
    return Verdict(1, 0 if ok else 1, 0 if ok else 1, () if ok else ("report: mismatch",))
