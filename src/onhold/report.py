"""Render issue-check recommendations as markdown or JSON documents.

The markdown form is meant for humans: one section per checked comment
with its location, text, referenced issue, status evidence, and the
suggested action.  The JSON form is a stable machine schema (described
by ``data/report.schema.json``) with an explicit schema-version field.
Neither form embeds a generation timestamp, so identical inputs always
produce identical documents.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any, Sequence

from .errors import DataFormatError
from .issues import TrackerKind
from .javalex import CommentBlock, as_raw_comment
from .miner import CommentLifecycle
from .timestamps import format_timestamp, parse_timestamp
from .tracker import IssueRecord, Recommendation


SCHEMA_VERSION = 1

REPORT_FORMATS = ("markdown", "json")


def load_report_schema() -> dict[str, Any]:
    """Return the JSON schema that generated reports conform to."""
    text = (
        resources.files("onhold")
        .joinpath("data/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _finding(rec: Recommendation) -> dict[str, Any]:
    block = rec.lifecycle.block
    record = rec.record
    resolved = (
        format_timestamp(record.resolved_date)
        if record.resolved_date is not None
        else None
    )
    return {
        "file_path": block.file_path,
        "start_line": block.start_line,
        "end_line": block.end_line,
        "comment_text": block.normalized_text,
        "issue_key": record.key,
        "tracker": record.tracker.value,
        "issue_status": record.raw_status,
        "issue_resolution": record.raw_resolution,
        "issue_resolved_date": resolved,
        "introduced_commit": rec.lifecycle.introduced_commit,
        "introduced_date": format_timestamp(rec.lifecycle.introduced_date),
        "ready": rec.ready,
        "evidence": rec.evidence,
        "suggested_action": _suggested_action(rec),
        "draft_report": rec.draft_report or None,
    }


def _suggested_action(rec: Recommendation) -> str:
    if rec.ready:
        return (
            f"{rec.record.key} is resolved, so this comment is "
            "ready to be removed along with any workaround it guards."
        )
    return (
        f"keep: {rec.record.key} is still pending "
        f"({rec.evidence})."
    )


def report_payload(recommendations: Sequence[Recommendation]) -> dict[str, Any]:
    findings = [_finding(rec) for rec in recommendations]
    return {
        "schema_version": SCHEMA_VERSION,
        "total": len(findings),
        "ready_count": sum(1 for f in findings if f["ready"]),
        "findings": findings,
    }


def recommendations_from_payload(payload: Any) -> list[Recommendation]:
    """Rebuild recommendation objects from a parsed JSON report.

    Raises :class:`DataFormatError` for any payload of the wrong shape.
    """
    if not isinstance(payload, dict):
        raise DataFormatError("a report must be a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(
            f"unsupported report schema_version {version!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    findings = payload.get("findings", [])
    if not isinstance(findings, list):
        raise DataFormatError("report findings must be a JSON list")
    out: list[Recommendation] = []
    for finding in findings:
        if not isinstance(finding, dict):
            raise DataFormatError(f"malformed report finding: {finding!r}")
        try:
            introduced = parse_timestamp(finding["introduced_date"])
            resolved_raw = finding.get("issue_resolved_date")
            resolved = parse_timestamp(resolved_raw) if resolved_raw else None
            block = CommentBlock(
                file_path=finding["file_path"],
                start_line=int(finding["start_line"]),
                end_line=int(finding["end_line"]),
                raw_text=as_raw_comment(finding["comment_text"]),
                normalized_text=finding["comment_text"],
            )
            kind = TrackerKind(finding["tracker"])
            lifecycle = CommentLifecycle(
                block=block,
                issue_key=finding["issue_key"],
                tracker=kind,
                introduced_commit=finding["introduced_commit"],
                introduced_date=introduced,
            )
            record = IssueRecord(
                tracker=kind,
                key=finding["issue_key"],
                raw_status=finding["issue_status"],
                raw_resolution=finding.get("issue_resolution"),
                resolved_date=resolved,
                fetched_at=introduced,
            )
            ready = bool(finding["ready"])
            evidence = finding.get("evidence", "")
            draft_report = finding.get("draft_report") or ""
            if not isinstance(evidence, str) or not isinstance(draft_report, str):
                raise ValueError("evidence and draft_report must be strings")
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise DataFormatError(f"malformed report finding: {exc}") from exc
        out.append(
            Recommendation(
                lifecycle=lifecycle,
                record=record,
                ready=ready,
                evidence=evidence,
                draft_report=draft_report,
            )
        )
    return out


def _render_json(recommendations: Sequence[Recommendation]) -> str:
    payload = report_payload(recommendations)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _quote(text: str) -> str:
    return "\n".join(f"> {line}".rstrip() for line in text.splitlines() or [""])


def _render_markdown(recommendations: Sequence[Recommendation]) -> str:
    lines: list[str] = ["# On-hold comment check report", ""]
    if not recommendations:
        lines.append("Zero findings: no issue-referencing comments to report.")
        lines.append("")
        return "\n".join(lines)
    ready_count = sum(1 for rec in recommendations if rec.ready)
    lines.append(
        f"{len(recommendations)} remaining comment(s) checked against their "
        f"referenced issues; {ready_count} ready to be removed."
    )
    lines.append("")
    for rec in recommendations:
        block = rec.lifecycle.block
        record = rec.record
        lines.append(f"## {block.file_path}:{block.start_line} ({record.key})")
        lines.append("")
        lines.append(
            f"- Location: {block.file_path}, lines "
            f"{block.start_line}-{block.end_line} "
            f"(introduced in {rec.lifecycle.introduced_commit[:12]} on "
            f"{format_timestamp(rec.lifecycle.introduced_date)})"
        )
        lines.append(f"- Referenced issue: {record.key} ({record.tracker.value})")
        lines.append(f"- Issue state: {rec.evidence}")
        lines.append(f"- Suggested action: {_suggested_action(rec)}")
        lines.append("")
        lines.append("Comment text:")
        lines.append("")
        lines.append(_quote(block.normalized_text))
        lines.append("")
        if rec.draft_report:
            lines.append("Draft removal note:")
            lines.append("")
            lines.append("```")
            lines.append(rec.draft_report.rstrip("\n"))
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def render_report(
    recommendations: Sequence[Recommendation], format: str = "markdown"
) -> str:
    if format == "markdown":
        return _render_markdown(recommendations)
    if format == "json":
        return _render_json(recommendations)
    raise ValueError(
        f"unknown report format {format!r}; expected one of {REPORT_FORMATS}"
    )
