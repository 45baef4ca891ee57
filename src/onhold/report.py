"""Render issue-check recommendations as markdown or JSON documents.

A ``tracker.Recommendation`` is one finding of ``data/report.schema.json``,
so the JSON form copies its fields and ``recommendations_from_payload``
reads a ``check`` JSON back after validating it against that schema.
The markdown form is meant for humans: one section per checked comment
with its location, text, referenced issue, status evidence, and the
suggested action.  Neither form embeds a generation timestamp, so
identical inputs always produce identical documents.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import Any, Sequence

from .errors import DataFormatError
from .timestamps import parse_timestamp
from .tracker import Recommendation


SCHEMA_VERSION = 1

REPORT_FORMATS = ("markdown", "json")

# JSON types as json.loads builds them; exact, so a bool is not an integer.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
               "boolean": bool, "null": type(None)}


def load_report_schema() -> dict[str, Any]:
    """Return the JSON schema that generated reports conform to."""
    text = (
        resources.files("onhold")
        .joinpath("data/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


_schema = functools.cache(load_report_schema)


def _validate(value: Any, rule: dict[str, Any], where: str) -> None:
    """Raise DataFormatError unless ``value`` meets ``rule`` of the report schema.

    Covers the keywords the schema uses: ``$ref`` into ``definitions``,
    ``type``, ``const``, ``enum``, ``minimum``, ``minLength``,
    ``required``, ``properties``, ``additionalProperties: false`` and
    ``items``.
    """
    if "$ref" in rule:
        rule = _schema()["definitions"][rule["$ref"].rsplit("/", 1)[-1]]
    types = rule.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else types
        if not any(type(value) is _JSON_TYPES[name] for name in allowed):
            raise DataFormatError(f"malformed report: {where} must be {' or '.join(allowed)}")
    if "const" in rule and value != rule["const"] or "enum" in rule and value not in rule["enum"]:
        raise DataFormatError(f"malformed report: unsupported {where} {value!r}")
    if "minimum" in rule and value < rule["minimum"]:
        raise DataFormatError(f"malformed report: {where} is below {rule['minimum']}")
    if "minLength" in rule and len(value) < rule["minLength"]:
        raise DataFormatError(f"malformed report: {where} is empty")
    if isinstance(value, dict):
        properties = rule.get("properties", {})
        for name in rule.get("required", ()):
            if name not in value:
                raise DataFormatError(f"malformed report: {where} lacks {name!r}")
        for name, item in value.items():
            if name not in properties and rule.get("additionalProperties") is False:
                raise DataFormatError(f"malformed report: {where} has unknown key {name!r}")
            _validate(item, properties.get(name, {}), f"{where}.{name}")
    if isinstance(value, list):
        for index, item in enumerate(value):
            _validate(item, rule.get("items", {}), f"{where}[{index}]")


def report_payload(recommendations: Sequence[Recommendation]) -> dict[str, Any]:
    findings = [dict(vars(rec)) for rec in recommendations]
    return {
        "schema_version": SCHEMA_VERSION,
        "total": len(findings),
        "ready_count": sum(1 for f in findings if f["ready"]),
        "findings": findings,
    }


def recommendations_from_payload(payload: Any) -> list[Recommendation]:
    """Read the recommendations back from a parsed ``check`` JSON.

    Raises :class:`DataFormatError` for any payload the report schema
    rejects, for an unparsable date and for ``start_line > end_line``.
    """
    _validate(payload, _schema(), "report")
    out: list[Recommendation] = []
    for index, finding in enumerate(payload["findings"]):
        try:
            parse_timestamp(finding["introduced_date"])
            if finding["issue_resolved_date"] is not None:
                parse_timestamp(finding["issue_resolved_date"])
        except ValueError as exc:
            raise DataFormatError(f"malformed report finding {index}: {exc}") from exc
        if finding["start_line"] > finding["end_line"]:
            raise DataFormatError(
                f"malformed report finding {index}: start_line > end_line"
            )
        out.append(Recommendation(**finding))
    return out


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
        lines += [
            f"## {rec.file_path}:{rec.start_line} ({rec.issue_key})",
            "",
            f"- Location: {rec.file_path}, lines {rec.start_line}-{rec.end_line} "
            f"(introduced in {rec.introduced_commit[:12]} on {rec.introduced_date})",
            f"- Referenced issue: {rec.issue_key} ({rec.tracker})",
            f"- Issue state: {rec.evidence}",
            f"- Suggested action: {rec.suggested_action}",
            "",
            "Comment text:",
            "",
            _quote(rec.comment_text),
            "",
        ]
        if rec.draft_report:
            lines += ["Draft removal note:", "", "```", rec.draft_report.rstrip("\n"), "```", ""]
    return "\n".join(lines)


def render_report(
    recommendations: Sequence[Recommendation], format: str = "markdown"
) -> str:
    if format == "markdown":
        return _render_markdown(recommendations)
    if format == "json":
        return json.dumps(report_payload(recommendations), indent=2, sort_keys=True) + "\n"
    raise ValueError(
        f"unknown report format {format!r}; expected one of {REPORT_FORMATS}"
    )
