"""Tests for the markdown and JSON report renderers."""

from __future__ import annotations

import copy
import dataclasses
import json
from datetime import datetime, timezone

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onhold.errors import DataFormatError
from onhold.issues import TrackerKind
from onhold.report import (
    REPORT_FORMATS,
    SCHEMA_VERSION,
    load_report_schema,
    recommendations_from_payload,
    render_report,
    report_payload,
)
from onhold.tracker import IssueRecord, Recommendation, recommend

UTC = timezone.utc


def make_recommendation(ready: bool = True, key: str = "HADOOP-6223") -> Recommendation:
    comment = {
        "file_path": "src/main/java/ipc/Server.java",
        "start_line": 118,
        "end_line": 119,
        "comment_text": "remove this hack\nonce HADOOP-6223 is fixed",
        "issue_key": key,
        "tracker": "jira",
        "introduced_commit": "abcdef0123456789",
        "introduced_date": "2019-07-01T09:30:00Z",
    }
    record = IssueRecord(
        tracker=TrackerKind.JIRA,
        key=key,
        raw_status="Resolved" if ready else "Open",
        raw_resolution="Fixed" if ready else None,
        resolved_date=datetime(2010, 8, 17, 3, 4, 31, tzinfo=UTC) if ready else None,
    )
    (rec,) = recommend([comment], {(TrackerKind.JIRA, key): record})
    return rec


class TestMarkdown:
    def test_ready_finding_contract(self):
        text = render_report([make_recommendation(ready=True)], format="markdown")
        assert "HADOOP-6223" in text
        assert "ready to be removed" in text
        assert "src/main/java/ipc/Server.java, lines 118-119" in text
        assert "introduced in abcdef012345 on 2019-07-01T09:30:00Z" in text
        assert "> remove this hack" in text
        assert "> once HADOOP-6223 is fixed" in text
        assert "Draft removal note:" in text

    def test_pending_finding_suggests_keeping(self):
        text = render_report([make_recommendation(ready=False)], format="markdown")
        assert "keep: HADOOP-6223 is still pending" in text
        assert "status=Open, resolution=none" in text
        assert "Draft removal note:" not in text

    def test_zero_findings_message(self):
        text = render_report([], format="markdown")
        assert "Zero findings" in text

    def test_summary_counts(self):
        recs = [make_recommendation(ready=True), make_recommendation(ready=False, key="HADOOP-2")]
        text = render_report(recs, format="markdown")
        assert "2 remaining comment(s) checked" in text
        assert "1 ready to be removed" in text

    def test_rendering_is_deterministic(self):
        recs = [make_recommendation()]
        assert render_report(recs, "markdown") == render_report(recs, "markdown")

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="markdown"):
            render_report([], format="html")
        assert REPORT_FORMATS == ("markdown", "json")


class TestJsonPayload:
    def test_payload_matches_the_published_schema(self):
        schema = load_report_schema()
        payload = report_payload(
            [make_recommendation(ready=True), make_recommendation(ready=False, key="X-1")]
        )
        jsonschema.validate(payload, schema)

    def test_empty_payload_matches_the_schema(self):
        jsonschema.validate(report_payload([]), load_report_schema())

    def test_counts_and_version(self):
        payload = report_payload(
            [make_recommendation(ready=True), make_recommendation(ready=False, key="X-1")]
        )
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["total"] == 2
        assert payload["ready_count"] == 1

    def test_finding_fields(self):
        payload = report_payload([make_recommendation(ready=True)])
        (finding,) = payload["findings"]
        assert finding["issue_key"] == "HADOOP-6223"
        assert finding["tracker"] == "jira"
        assert finding["issue_resolved_date"] == "2010-08-17T03:04:31Z"
        assert finding["ready"] is True
        assert "ready to be removed" in finding["suggested_action"]

    def test_json_rendering_is_valid_and_deterministic(self):
        recs = [make_recommendation()]
        text = render_report(recs, format="json")
        assert json.loads(text)["total"] == 1
        assert text == render_report(recs, format="json")


class TestPayloadRoundTrip:
    def test_rebuilt_recommendations_render_identically(self):
        recs = [make_recommendation(ready=True), make_recommendation(ready=False, key="X-1")]
        payload = json.loads(render_report(recs, format="json"))
        rebuilt = recommendations_from_payload(payload)
        assert render_report(rebuilt, "markdown") == render_report(recs, "markdown")
        assert render_report(rebuilt, "json") == render_report(recs, "json")

    def test_rebuilt_objects_preserve_the_fields(self):
        payload = report_payload([make_recommendation(ready=True)])
        (rec,) = recommendations_from_payload(payload)
        assert rec == make_recommendation(ready=True)
        assert rec.issue_key == "HADOOP-6223"
        assert rec.tracker == "jira"
        assert rec.ready is True
        assert rec.start_line == 118
        assert rec.comment_text.startswith("remove this hack")

    def test_wrong_schema_version_is_rejected(self):
        payload = report_payload([])
        payload["schema_version"] = 99
        with pytest.raises(DataFormatError, match="schema_version"):
            recommendations_from_payload(payload)

    def test_malformed_finding_is_rejected(self):
        payload = report_payload([make_recommendation()])
        del payload["findings"][0]["issue_key"]
        with pytest.raises(DataFormatError, match="malformed"):
            recommendations_from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("draft_report", 5), ("evidence", ["x"]), ("start_line", [1]), ("comment_text", 3)],
    )
    def test_wrongly_typed_field_is_rejected(self, field, value):
        payload = report_payload([make_recommendation()])
        payload["findings"][0][field] = value
        with pytest.raises(DataFormatError, match="malformed"):
            recommendations_from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("introduced_date", "yesterday"), ("issue_resolved_date", "2010-13-45T00:00:00Z"),
         ("start_line", 120)],
    )
    def test_rejections_beyond_the_schema(self, field, value):
        payload = report_payload([make_recommendation()])
        payload["findings"][0][field] = value
        jsonschema.validate(payload, load_report_schema())
        with pytest.raises(DataFormatError, match="malformed"):
            recommendations_from_payload(payload)

    def test_recommendation_fields_are_the_schema_finding(self):
        finding = load_report_schema()["definitions"]["finding"]
        names = [field.name for field in dataclasses.fields(Recommendation)]
        assert names == finding["required"] == list(finding["properties"])


VALID = report_payload([make_recommendation(ready=True), make_recommendation(ready=False)])
SCHEMA = load_report_schema()
TOP_KEYS = list(SCHEMA["properties"])
FINDING_KEYS = list(SCHEMA["definitions"]["finding"]["properties"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_payloads(draw):
    """A valid report with one mutation that may or may not break the schema."""
    payload = copy.deepcopy(VALID)
    finding = payload["findings"][draw(st.sampled_from([0, 1]))]
    target, keys = draw(st.sampled_from([(payload, TOP_KEYS), (finding, FINDING_KEYS)]))
    mutation = draw(st.sampled_from(
        ["drop", "add", "swap", "tracker", "issue_key", "start_line", "date"]
    ))
    if mutation == "drop":
        del target[draw(st.sampled_from(keys))]
    elif mutation == "add":
        target[draw(st.text(max_size=8) | st.sampled_from(keys))] = draw(JSON_VALUES)
    elif mutation == "swap":
        target[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    elif mutation == "tracker":
        finding["tracker"] = draw(st.text(max_size=8) | st.sampled_from(["jira", "JIRA"]))
    elif mutation == "issue_key":
        finding["issue_key"] = ""
    elif mutation == "start_line":
        finding["start_line"] = draw(st.sampled_from([0, -1, True]))
    else:
        field = draw(st.sampled_from(["introduced_date", "issue_resolved_date"]))
        finding[field] = draw(st.text(max_size=25) | st.none())
    return payload


class TestPayloadValidation:
    @settings(max_examples=300, deadline=None)
    @given(mutated_payloads())
    def test_every_payload_the_schema_rejects_is_rejected(self, payload):
        try:
            jsonschema.validate(payload, SCHEMA)
        except jsonschema.ValidationError:
            with pytest.raises(DataFormatError):
                recommendations_from_payload(payload)
            return
        try:
            recommendations = recommendations_from_payload(payload)
        except DataFormatError:
            return
        assert report_payload(recommendations)["findings"] == payload["findings"]
