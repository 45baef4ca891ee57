"""Tests for the issue-tracker gateway and the ready-to-remove rule.

The readiness truth table below restates the rule independently:
status must be resolved/closed/verified, and outside GitHub the
resolution must be "fixed".  Every (tracker, status, resolution)
combination is written out with its expected verdict.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onhold.errors import (
    ConfigError,
    IssueNotFoundError,
    TrackerAuthError,
    TrackerError,
    TrackerTemporaryError,
)
from onhold.issues import TrackerKind
from onhold.timestamps import format_timestamp
from onhold.tracker import (
    TIMEOUT_SECONDS,
    FixtureTransport,
    HttpTransport,
    IssueGateway,
    IssueRecord,
    Recommendation,
    TrackerConfig,
    is_ready_to_remove,
    recommend,
)

from conftest import FIXTURE_DIR

UTC = timezone.utc
NOW = datetime(2024, 5, 1, 12, 0, tzinfo=UTC)


def record(tracker: TrackerKind, status: str, resolution: str | None) -> IssueRecord:
    return IssueRecord(
        tracker=tracker,
        key="KEY-1" if tracker is TrackerKind.JIRA else "1",
        raw_status=status,
        raw_resolution=resolution,
        resolved_date=None,
    )


# (tracker, status, resolution) -> expected readiness for all 36 combinations.
BUGZILLA, GITHUB, JIRA = TrackerKind.BUGZILLA, TrackerKind.GITHUB, TrackerKind.JIRA
READY_TABLE = [
    (BUGZILLA, "open", None, False),
    (BUGZILLA, "open", "fixed", False),
    (BUGZILLA, "open", "wontfix", False),
    (BUGZILLA, "resolved", None, False),
    (BUGZILLA, "resolved", "fixed", True),
    (BUGZILLA, "resolved", "wontfix", False),
    (BUGZILLA, "closed", None, False),
    (BUGZILLA, "closed", "fixed", True),
    (BUGZILLA, "closed", "wontfix", False),
    (BUGZILLA, "verified", None, False),
    (BUGZILLA, "verified", "fixed", True),
    (BUGZILLA, "verified", "wontfix", False),
    (JIRA, "open", None, False),
    (JIRA, "open", "fixed", False),
    (JIRA, "open", "wontfix", False),
    (JIRA, "resolved", None, False),
    (JIRA, "resolved", "fixed", True),
    (JIRA, "resolved", "wontfix", False),
    (JIRA, "closed", None, False),
    (JIRA, "closed", "fixed", True),
    (JIRA, "closed", "wontfix", False),
    (JIRA, "verified", None, False),
    (JIRA, "verified", "fixed", True),
    (JIRA, "verified", "wontfix", False),
    (GITHUB, "open", None, False),
    (GITHUB, "open", "fixed", False),
    (GITHUB, "open", "wontfix", False),
    (GITHUB, "resolved", None, True),
    (GITHUB, "resolved", "fixed", True),
    (GITHUB, "resolved", "wontfix", True),
    (GITHUB, "closed", None, True),
    (GITHUB, "closed", "fixed", True),
    (GITHUB, "closed", "wontfix", True),
    (GITHUB, "verified", None, True),
    (GITHUB, "verified", "fixed", True),
    (GITHUB, "verified", "wontfix", True),
]


class TestReadyToRemove:
    @pytest.mark.parametrize("tracker,status,resolution,expected", READY_TABLE)
    def test_truth_table(self, tracker, status, resolution, expected):
        assert is_ready_to_remove(record(tracker, status, resolution)) is expected

    def test_status_and_resolution_are_case_insensitive(self):
        assert is_ready_to_remove(record(JIRA, "RESOLVED", "Fixed")) is True
        assert is_ready_to_remove(record(JIRA, " Resolved ", " FIXED ")) is True

    def test_in_progress_is_not_ready(self):
        assert is_ready_to_remove(record(JIRA, "In Progress", "fixed")) is False

    def test_record_requires_a_key(self):
        with pytest.raises(ValueError):
            IssueRecord(JIRA, "", "Open", None, None)


class CountingTransport:
    """Wraps another transport and counts fetches."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def fetch(self, config, key):
        self.calls += 1
        return self.inner.fetch(config, key)


class ScriptedTransport:
    """Returns queued (status, payload) responses in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def fetch(self, config, key):
        self.calls += 1
        return self.responses.pop(0)


def fixture_config(**kwargs) -> TrackerConfig:
    return TrackerConfig(tracker=JIRA, fixture_dir=FIXTURE_DIR, **kwargs)


def cached(gateway: IssueGateway) -> dict:
    """The entries of the gateway's cache file, by issue key."""
    return json.loads(gateway._cache_path().read_text(encoding="utf-8"))


class CountingReplace:
    """Stands in for ``os.replace``; records the calling thread of each call."""

    def __init__(self, monkeypatch):
        self.threads = []
        monkeypatch.setattr(os, "replace", self)

    def __call__(self, source, target):
        self.threads.append(threading.current_thread())
        os.rename(source, target)


JIRA_OK = {
    "fields": {
        "status": {"name": "Resolved"},
        "resolution": {"name": "Fixed"},
        "resolutiondate": "2020-06-01T10:00:00+0000",
    }
}


class TestTrackerConfig:
    def test_github_needs_a_repo_without_fixtures(self):
        with pytest.raises(ConfigError):
            TrackerConfig(tracker=GITHUB)
        TrackerConfig(tracker=GITHUB, repo="apache/dubbo")
        TrackerConfig(tracker=GITHUB, fixture_dir=".")

    def test_server_trackers_need_a_base_url_without_fixtures(self):
        with pytest.raises(ConfigError):
            TrackerConfig(tracker=JIRA)
        TrackerConfig(tracker=JIRA, base_url="https://issues.example.org")
        TrackerConfig(tracker=BUGZILLA, fixture_dir=".")


class TestPayloadParsing:
    def jira_record(self, payload):
        transport = ScriptedTransport([(200, payload)])
        gateway = IssueGateway(
            TrackerConfig(tracker=JIRA, base_url="https://x"), transport
        )
        return gateway.fetch("HADOOP-1")

    def test_jira_fields(self):
        rec = self.jira_record(JIRA_OK)
        assert rec.raw_status == "Resolved"
        assert rec.raw_resolution == "Fixed"
        assert rec.resolved_date == datetime(2020, 6, 1, 10, 0, tzinfo=UTC)

    def test_jira_unresolved(self):
        rec = self.jira_record({"fields": {"status": {"name": "Open"}, "resolution": None}})
        assert rec.raw_resolution is None
        assert rec.resolved_date is None

    def test_missing_status_is_an_error(self):
        with pytest.raises(TrackerError):
            self.jira_record({"fields": {}})

    def bugzilla_record(self, payload):
        transport = ScriptedTransport([(200, payload)])
        gateway = IssueGateway(
            TrackerConfig(tracker=BUGZILLA, base_url="https://x"), transport
        )
        return gateway.fetch("34383")

    def test_bugzilla_fields(self):
        rec = self.bugzilla_record(
            {
                "bugs": [
                    {
                        "status": "RESOLVED",
                        "resolution": "FIXED",
                        "cf_last_resolved": "2019-03-04T05:06:07Z",
                    }
                ]
            }
        )
        assert rec.raw_status == "RESOLVED"
        assert rec.raw_resolution == "FIXED"
        assert rec.resolved_date == datetime(2019, 3, 4, 5, 6, 7, tzinfo=UTC)
        assert is_ready_to_remove(rec) is True

    def test_bugzilla_falls_back_to_last_change_time_when_resolved(self):
        rec = self.bugzilla_record(
            {
                "bugs": [
                    {
                        "status": "RESOLVED",
                        "resolution": "FIXED",
                        "last_change_time": "2019-01-01T00:00:00Z",
                    }
                ]
            }
        )
        assert rec.resolved_date == datetime(2019, 1, 1, tzinfo=UTC)

    def test_bugzilla_open_bug_has_no_resolved_date(self):
        rec = self.bugzilla_record(
            {
                "bugs": [
                    {
                        "status": "NEW",
                        "resolution": "",
                        "last_change_time": "2019-01-01T00:00:00Z",
                    }
                ]
            }
        )
        assert rec.raw_resolution is None
        assert rec.resolved_date is None

    def github_record(self, payload):
        transport = ScriptedTransport([(200, payload)])
        gateway = IssueGateway(
            TrackerConfig(tracker=GITHUB, repo="apache/dubbo"), transport
        )
        return gateway.fetch("3251")

    def test_github_closed_issue_is_ready(self):
        rec = self.github_record({"state": "closed", "closed_at": "2021-02-03T04:05:06Z"})
        assert rec.raw_status == "closed"
        assert rec.raw_resolution is None
        assert rec.resolved_date == datetime(2021, 2, 3, 4, 5, 6, tzinfo=UTC)
        assert is_ready_to_remove(rec) is True

    def test_github_open_issue_is_not_ready(self):
        rec = self.github_record({"state": "open", "closed_at": None})
        assert is_ready_to_remove(rec) is False


class TestFixtureTransport:
    def test_reads_the_recorded_issue(self):
        gateway = IssueGateway(fixture_config())
        rec = gateway.fetch("HADOOP-6223")
        assert rec.raw_status == "Resolved"
        assert rec.raw_resolution == "Fixed"
        assert rec.resolved_date == datetime(2010, 8, 17, 3, 4, 31, tzinfo=UTC)
        assert is_ready_to_remove(rec) is True

    def test_missing_fixture_is_not_found(self):
        gateway = IssueGateway(fixture_config())
        with pytest.raises(IssueNotFoundError):
            gateway.fetch("HADOOP-9999999")

    def test_http_status_override_is_honored(self, tmp_path):
        path = tmp_path / "jira_HADOOP-1.json"
        path.write_text(json.dumps({"_http_status": 401}), encoding="utf-8")
        gateway = IssueGateway(
            TrackerConfig(tracker=JIRA, fixture_dir=tmp_path)
        )
        with pytest.raises(TrackerAuthError, match="ITS_JIRA_TOKEN"):
            gateway.fetch("HADOOP-1")

    def test_no_network_module_is_touched(self, monkeypatch):
        import requests

        def boom(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr(requests, "get", boom)
        gateway = IssueGateway(fixture_config())
        assert gateway.fetch("HADOOP-6223").raw_status == "Resolved"


class TestHttpTransport:
    """The live transport against a fake ``requests.get``; nothing leaves the process."""

    TOKENS = ("ITS_GITHUB_TOKEN", "ITS_JIRA_TOKEN", "ITS_BUGZILLA_TOKEN")

    @pytest.fixture
    def calls(self, monkeypatch):
        import requests

        for name in self.TOKENS:
            monkeypatch.delenv(name, raising=False)
        made = []

        def get(url, **kwargs):
            made.append((url, kwargs))
            response = requests.Response()
            response.status_code = 200
            response._content = b'{"state": "open"}'
            return response

        monkeypatch.setattr(requests, "get", get)
        return made

    @pytest.mark.parametrize(
        "config,key,url",
        [
            (TrackerConfig(tracker=GITHUB, repo="apache/dubbo"), "7",
             "https://api.github.com/repos/apache/dubbo/issues/7"),
            (TrackerConfig(tracker=GITHUB, repo="apache/dubbo",
                           base_url="https://ghe.example.org/api/v3/"), "7",
             "https://ghe.example.org/api/v3/repos/apache/dubbo/issues/7"),
            (TrackerConfig(tracker=JIRA, base_url="https://issues.example.org/jira"),
             "HADOOP-1", "https://issues.example.org/jira/rest/api/2/issue/HADOOP-1"),
            (TrackerConfig(tracker=JIRA, base_url="https://issues.example.org/"),
             "HADOOP-1", "https://issues.example.org/rest/api/2/issue/HADOOP-1"),
            (TrackerConfig(tracker=BUGZILLA, base_url="https://bugs.example.org/"),
             "42", "https://bugs.example.org/rest/bug/42"),
        ],
        ids=["github-default-root", "github-base-url", "jira", "jira-trailing-slash",
             "bugzilla-trailing-slash"],
    )
    def test_url_and_timeout(self, calls, config, key, url):
        assert HttpTransport().fetch(config, key) == (200, {"state": "open"})
        ((called, kwargs),) = calls
        assert called == url
        assert kwargs["timeout"] == TIMEOUT_SECONDS
        assert kwargs["headers"] == {"Accept": "application/json"}

    @pytest.mark.parametrize(
        "kind,env,header,value",
        [
            (BUGZILLA, "ITS_BUGZILLA_TOKEN", "X-BUGZILLA-API-KEY", "s3cret"),
            (JIRA, "ITS_JIRA_TOKEN", "Authorization", "Bearer s3cret"),
            (GITHUB, "ITS_GITHUB_TOKEN", "Authorization", "Bearer s3cret"),
        ],
    )
    def test_token_becomes_the_auth_header(self, calls, monkeypatch, kind, env, header,
                                           value):
        monkeypatch.setenv(env, "s3cret")
        config = TrackerConfig(tracker=kind, base_url="https://t.example.org", repo="a/b")
        HttpTransport().fetch(config, "1")
        ((_, kwargs),) = calls
        assert kwargs["headers"] == {"Accept": "application/json", header: value}

    def test_another_trackers_token_is_not_sent(self, calls, monkeypatch):
        monkeypatch.setenv("ITS_GITHUB_TOKEN", "s3cret")
        config = TrackerConfig(tracker=JIRA, base_url="https://t.example.org")
        HttpTransport().fetch(config, "HADOOP-1")
        ((_, kwargs),) = calls
        assert kwargs["headers"] == {"Accept": "application/json"}

    def test_non_json_body_is_an_empty_payload(self, monkeypatch):
        import requests

        def get(url, **kwargs):
            response = requests.Response()
            response.status_code = 502
            response._content = b"<html>Bad Gateway</html>"
            return response

        monkeypatch.setattr(requests, "get", get)
        config = TrackerConfig(tracker=JIRA, base_url="https://t.example.org")
        assert HttpTransport().fetch(config, "HADOOP-1") == (502, {})


class TestGatewayRetries:
    def make_gateway(self, responses):
        sleeps: list[float] = []
        transport = ScriptedTransport(responses)
        gateway = IssueGateway(
            TrackerConfig(tracker=JIRA, base_url="https://x"),
            transport,
            sleep=sleeps.append,
        )
        return gateway, transport, sleeps

    def test_rate_limit_then_success(self):
        gateway, transport, sleeps = self.make_gateway([(429, {}), (200, JIRA_OK)])
        assert gateway.fetch("HADOOP-1").raw_status == "Resolved"
        assert transport.calls == 2
        assert sleeps == [1.0]

    def test_persistent_server_error_gives_up_with_backoff(self):
        gateway, transport, sleeps = self.make_gateway([(500, {})] * 4)
        with pytest.raises(TrackerTemporaryError):
            gateway.fetch("HADOOP-1")
        assert transport.calls == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_auth_rejection_names_the_environment_variable(self):
        gateway, _, _ = self.make_gateway([(403, {})])
        with pytest.raises(TrackerAuthError, match="ITS_JIRA_TOKEN"):
            gateway.fetch("HADOOP-1")

    def test_unexpected_status_is_a_tracker_error(self):
        gateway, _, _ = self.make_gateway([(302, {})])
        with pytest.raises(TrackerError):
            gateway.fetch("HADOOP-1")


class TestGatewayCaching:
    def test_fetch_many_deduplicates_keys(self):
        transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        gateway = IssueGateway(fixture_config(), transport)
        results = gateway.fetch_many(["HADOOP-6223", "HADOOP-6223"])
        assert transport.calls == 1
        assert results["HADOOP-6223"] is not None

    def test_fetch_many_maps_missing_issues_to_none(self):
        gateway = IssueGateway(fixture_config())
        results = gateway.fetch_many(["HADOOP-6223", "HADOOP-404404"])
        assert results["HADOOP-6223"] is not None
        assert results["HADOOP-404404"] is None

    @pytest.mark.parametrize(
        "answer",
        [[1], {"fields": {"status": {"name": "Resolved"}, "resolutiondate": "soon"}}],
        ids=["not-an-object", "bad-date"],
    )
    def test_fetch_many_skips_a_wrong_shaped_answer_uncached(self, answer, tmp_path):
        fixtures, cache = tmp_path / "fixtures", tmp_path / "cache"
        fixtures.mkdir()
        (fixtures / "jira_HADOOP-1.json").write_text(json.dumps(answer), encoding="utf-8")
        (fixtures / "jira_HADOOP-2.json").write_text(json.dumps(JIRA_OK), encoding="utf-8")
        gateway = IssueGateway(
            TrackerConfig(tracker=JIRA, fixture_dir=fixtures, cache_dir=cache)
        )
        results = gateway.fetch_many(["HADOOP-1", "HADOOP-2"])
        assert results["HADOOP-1"] is None
        assert results["HADOOP-2"].raw_status == "Resolved"
        assert list(cached(gateway)) == ["HADOOP-2"]

    def test_fetch_many_propagates_auth_errors(self, tmp_path):
        path = tmp_path / "jira_HADOOP-1.json"
        path.write_text(json.dumps({"_http_status": 401}), encoding="utf-8")
        gateway = IssueGateway(TrackerConfig(tracker=JIRA, fixture_dir=tmp_path))
        with pytest.raises(TrackerAuthError):
            gateway.fetch_many(["HADOOP-1"])

    def test_skip_warnings_follow_the_key_order(self, caplog):
        keys = [f"HADOOP-{i}" for i in range(1, 10)]
        missing = keys[::2]

        class SlowFirstTransport:
            """404s the missing keys; earlier keys answer later, so threads finish out of order."""

            def fetch(self, config, key):
                time.sleep(0.005 * (len(keys) - keys.index(key)))
                return (404, {}) if key in missing else (200, JIRA_OK)

        gateway = IssueGateway(TrackerConfig(tracker=JIRA, base_url="https://x"),
                               SlowFirstTransport())
        with caplog.at_level(logging.WARNING, logger="onhold.tracker"):
            results = gateway.fetch_many(keys)
        assert [key for key, record in results.items() if record is None] == missing
        assert [r.args[0] for r in caplog.records] == missing
        assert all(r.getMessage().startswith("skipping issue ") for r in caplog.records)

    def test_disk_cache_survives_gateway_instances(self, tmp_path):
        cache = tmp_path / "cache"
        first_transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        gateway = IssueGateway(fixture_config(cache_dir=cache), first_transport)
        rec = gateway.fetch("HADOOP-6223")
        assert first_transport.calls == 1

        second_transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        reopened = IssueGateway(fixture_config(cache_dir=cache), second_transport)
        cached = reopened.fetch("HADOOP-6223")
        assert second_transport.calls == 0
        assert cached.raw_status == rec.raw_status
        assert cached.resolved_date == rec.resolved_date

    def test_expired_disk_cache_refetches(self, tmp_path):
        cache = tmp_path / "cache"
        gateway = IssueGateway(fixture_config(cache_dir=cache))
        gateway.fetch("HADOOP-6223")

        later = datetime.now(UTC) + timedelta(days=2)
        transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        reopened = IssueGateway(
            fixture_config(cache_dir=cache),
            transport,
            clock=lambda: later,
        )
        reopened.fetch("HADOOP-6223")
        assert transport.calls == 1

    @pytest.mark.parametrize(
        "entry",
        [
            "not json",
            "[]",
            json.dumps({"fetched_at": format_timestamp(datetime.now(UTC))}),
            json.dumps({"tracker": "jira", "key": "HADOOP-6223", "status": 5,
                        "fetched_at": format_timestamp(datetime.now(UTC))}),
            json.dumps({"tracker": "jira", "key": "HADOOP-6223", "status": "Open",
                        "resolution": None, "resolved_date": None,
                        "fetched_at": format_timestamp(datetime.now(UTC))}),
            json.dumps({"fetched_at": format_timestamp(datetime.now(UTC)), "payload": []}),
            json.dumps({"fetched_at": format_timestamp(datetime.now(UTC)),
                        "payload": {"fields": {"status": {"name": 5}}}}),
            json.dumps({"fetched_at": format_timestamp(datetime.now(UTC)),
                        "payload": {"fields": {"status": {"name": "Open"},
                                               "resolution": {"name": ["Fixed"]}}}}),
            json.dumps({"fetched_at": 5, "payload": JIRA_OK}),
        ],
        ids=["not-json", "list", "no-tracker", "status-not-a-string", "old-format",
             "payload-a-list", "payload-status-a-number", "payload-resolution-a-list",
             "fetched-at-a-number"],
    )
    def test_corrupt_cache_entry_refetches(self, entry, tmp_path):
        transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        gateway = IssueGateway(fixture_config(cache_dir=tmp_path), transport)
        # "not json" makes the whole file unreadable; the others are one bad entry.
        gateway._cache_path().write_text('{"HADOOP-6223": %s}' % entry, encoding="utf-8")
        assert gateway.fetch("HADOOP-6223").raw_status == "Resolved"
        assert transport.calls == 1
        assert cached(gateway)["HADOOP-6223"]["payload"]["fields"]["status"]["name"] == "Resolved"

    @pytest.mark.parametrize("text", ["", "not json", "[]", '"HADOOP-6223"'],
                             ids=["empty", "not-json", "list", "string"])
    def test_unreadable_cache_file_is_a_miss_and_is_replaced(self, text, tmp_path):
        transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        gateway = IssueGateway(fixture_config(cache_dir=tmp_path), transport)
        gateway._cache_path().write_text(text, encoding="utf-8")
        assert gateway.fetch_many(["HADOOP-6223"])["HADOOP-6223"].raw_status == "Resolved"
        assert transport.calls == 1
        assert list(cached(gateway)) == ["HADOOP-6223"]

    def test_old_per_key_cache_files_are_ignored(self, tmp_path):
        transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
        gateway = IssueGateway(fixture_config(cache_dir=tmp_path), transport, clock=lambda: NOW)
        old = tmp_path / f"{gateway._cache_path().stem}_HADOOP-6223.json"
        old.write_text(json.dumps({"fetched_at": format_timestamp(NOW), "payload": JIRA_OK}),
                       encoding="utf-8")
        gateway.fetch("HADOOP-6223")
        assert transport.calls == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [old.name, gateway._cache_path().name]
        )

    def test_cache_entry_holds_the_answer_and_its_fetch_time(self, tmp_path):
        gateway = IssueGateway(fixture_config(cache_dir=tmp_path), clock=lambda: NOW)
        gateway.fetch("HADOOP-6223")
        recorded = json.loads((FIXTURE_DIR / "jira_HADOOP-6223.json").read_text(encoding="utf-8"))
        assert cached(gateway) == {
            "HADOOP-6223": {"fetched_at": format_timestamp(NOW), "payload": recorded}
        }

    @pytest.mark.parametrize(
        "kind,key,payload",
        [
            (JIRA, "HADOOP-6223", None),
            (GITHUB, "3251", {"state": "closed", "closed_at": "2021-02-03T04:05:06Z"}),
            (BUGZILLA, "34383", {"bugs": [{"status": "RESOLVED", "resolution": "FIXED",
                                           "cf_last_resolved": "2019-03-04T05:06:07Z"}]}),
        ],
        ids=["jira", "github", "bugzilla"],
    )
    def test_cache_hit_equals_a_fresh_fetch(self, kind, key, payload, tmp_path):
        fixtures = FIXTURE_DIR
        if payload is not None:
            fixtures = tmp_path / "fixtures"
            fixtures.mkdir()
            (fixtures / f"{kind.value}_{key}.json").write_text(json.dumps(payload),
                                                               encoding="utf-8")
        config = TrackerConfig(tracker=kind, fixture_dir=fixtures, cache_dir=tmp_path / "cache")
        fresh = IssueGateway(config).fetch(key)
        warm_transport = ScriptedTransport([])
        cached = IssueGateway(config, warm_transport).fetch(key)
        assert warm_transport.calls == 0
        assert (cached.raw_status, cached.raw_resolution, cached.resolved_date) == (
            fresh.raw_status, fresh.raw_resolution, fresh.resolved_date
        )

    def test_warm_run_leaves_only_cache_entries(self, tmp_path):
        cache = tmp_path / "cache"
        keys = [f"HADOOP-{i}" for i in range(12)]
        cold = IssueGateway(
            fixture_config(cache_dir=cache), ScriptedTransport([(200, JIRA_OK)] * len(keys))
        )
        assert all(cold.fetch_many(keys).values())
        warm_transport = ScriptedTransport([])
        warm = IssueGateway(fixture_config(cache_dir=cache), warm_transport)
        assert all(warm.fetch_many(keys).values())
        assert warm_transport.calls == 0
        assert [path.name for path in cache.iterdir()] == [warm._cache_path().name]
        assert sorted(cached(warm)) == sorted(keys)

    def test_fetch_many_writes_the_cache_file_once_from_its_own_thread(self, tmp_path,
                                                                       monkeypatch):
        replaces = CountingReplace(monkeypatch)
        keys = [f"HADOOP-{i}" for i in range(12)]
        cold = IssueGateway(
            fixture_config(cache_dir=tmp_path), ScriptedTransport([(200, JIRA_OK)] * len(keys))
        )
        assert all(cold.fetch_many(keys).values())
        assert replaces.threads == [threading.current_thread()]
        warm = IssueGateway(fixture_config(cache_dir=tmp_path), ScriptedTransport([]))
        assert all(warm.fetch_many(keys).values())
        assert len(replaces.threads) == 1

    def test_fetch_many_keeps_every_fresh_entry_under_thread_switching(self, tmp_path):
        class AlwaysOk:
            def fetch(self, config, key):
                return 200, JIRA_OK

        keys = [f"HADOOP-{i}" for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gateway = IssueGateway(fixture_config(cache_dir=tmp_path), AlwaysOk())
            assert all(gateway.fetch_many(keys).values())
        finally:
            sys.setswitchinterval(interval)
        assert sorted(cached(gateway)) == sorted(keys)

    def test_a_lone_fetch_writes_at_most_once(self, tmp_path, monkeypatch):
        replaces = CountingReplace(monkeypatch)
        gateway = IssueGateway(fixture_config(cache_dir=tmp_path))
        gateway.fetch("HADOOP-6223")
        assert len(replaces.threads) == 1
        gateway.fetch("HADOOP-6223")
        assert len(replaces.threads) == 1
        assert list(cached(gateway)) == ["HADOOP-6223"]

    def test_two_gateways_on_one_directory_keep_both_key_sets(self, tmp_path):
        first_keys = [f"HADOOP-{i}" for i in range(1, 4)]
        second_keys = [f"HADOOP-{i}" for i in range(11, 14)]
        second = IssueGateway(
            fixture_config(cache_dir=tmp_path),
            ScriptedTransport([(200, JIRA_OK)] * len(second_keys)),
        )

        class InterleavingTransport:
            """Lets the second gateway fetch and save while the first is mid-batch."""

            def __init__(self):
                self.lock = threading.Lock()
                self.started = False

            def fetch(self, config, key):
                with self.lock:
                    if not self.started:
                        self.started = True
                        assert all(second.fetch_many(second_keys).values())
                return 200, JIRA_OK

        first = IssueGateway(fixture_config(cache_dir=tmp_path), InterleavingTransport())
        assert all(first.fetch_many(first_keys).values())
        assert sorted(cached(first)) == sorted(first_keys + second_keys)
        warm_transport = ScriptedTransport([])
        warm = IssueGateway(fixture_config(cache_dir=tmp_path), warm_transport)
        assert all(warm.fetch_many(first_keys + second_keys).values())
        assert warm_transport.calls == 0

    def test_expired_entries_are_dropped_on_save(self, tmp_path):
        config = fixture_config(cache_dir=tmp_path)
        early = IssueGateway(config, ScriptedTransport([(200, JIRA_OK)]),
                             clock=lambda: NOW - timedelta(days=2))
        early.fetch_many(["HADOOP-1"])
        assert list(cached(early)) == ["HADOOP-1"]
        late = IssueGateway(config, ScriptedTransport([(200, JIRA_OK)]), clock=lambda: NOW)
        late.fetch_many(["HADOOP-2"])
        assert list(cached(late)) == ["HADOOP-2"]


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12)
)


def json_values(keys: st.SearchStrategy[str]) -> st.SearchStrategy:
    return st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=8,
    )


# Keys a Jira answer or a cache entry is read by, so that fuzzed entries
# reach every branch of the parser instead of failing at the first lookup.
ANSWER_KEYS = st.sampled_from(
    ["fields", "status", "name", "resolution", "resolutiondate", "fetched_at", "payload"]
) | st.text(max_size=6)


class TestFuzzedCacheEntries:
    """Whatever a cache file or entry holds, ``fetch`` answers and never raises."""

    def fetch_over(self, file_text: str) -> tuple[IssueRecord, CountingTransport]:
        with tempfile.TemporaryDirectory() as cache:
            transport = CountingTransport(FixtureTransport(FIXTURE_DIR))
            gateway = IssueGateway(fixture_config(cache_dir=cache), transport, clock=lambda: NOW)
            gateway._cache_path().write_text(file_text, encoding="utf-8")
            return gateway.fetch("HADOOP-6223"), transport

    # Keys of at most six characters never spell "fetched_at", "payload"
    # or "HADOOP-6223", so the value is a miss as the whole file and as
    # the issue's entry.
    @settings(deadline=None)
    @given(json_values(st.text(max_size=6)))
    def test_arbitrary_json_is_a_miss(self, value):
        for file_value in (value, {"HADOOP-6223": value}):
            rec, transport = self.fetch_over(json.dumps(file_value))
            assert transport.calls == 1
            assert rec.raw_status == "Resolved"

    @settings(deadline=None)
    @given(json_values(ANSWER_KEYS))
    @example({"fields": {"status": {"name": "Open"}, "resolution": {"name": "Fixed"}}})
    def test_a_fresh_entry_is_a_well_typed_hit_or_a_miss(self, payload):
        entry = {"fetched_at": format_timestamp(NOW), "payload": payload}
        rec, transport = self.fetch_over(json.dumps({"HADOOP-6223": entry}))
        if transport.calls == 1:
            assert rec.raw_status == "Resolved"
        else:
            assert transport.calls == 0
            assert isinstance(rec.raw_status, str) and rec.raw_status
            assert isinstance(rec.raw_resolution, (str, type(None)))
            recommend([lifecycle("remove after HADOOP-6223", "HADOOP-6223")],
                      {(JIRA, "HADOOP-6223"): rec})


def lifecycle(text: str, key: str, tracker: TrackerKind = JIRA) -> dict[str, object]:
    """A remaining comment as ``recommend`` takes it: a finding's comment fields."""
    return {
        "file_path": "src/A.java",
        "start_line": 3,
        "end_line": 3,
        "comment_text": text,
        "issue_key": key,
        "tracker": tracker.value,
        "introduced_commit": "abc1234567890",
        "introduced_date": "2021-01-01T00:00:00Z",
    }


class TestRecommend:
    def records(self):
        return {
            (JIRA, "HADOOP-1"): IssueRecord(JIRA, "HADOOP-1", "Resolved", "Fixed",
                                            datetime(2021, 3, 1, tzinfo=UTC)),
            (JIRA, "HADOOP-2"): IssueRecord(JIRA, "HADOOP-2", "Open", None, None),
        }

    def test_ready_comment_gets_a_draft(self):
        lives = [lifecycle("remove after HADOOP-1 is fixed", "HADOOP-1")]
        (rec,) = recommend(lives, self.records())
        assert rec.ready is True
        assert "HADOOP-1" in rec.draft_report
        assert "src/A.java" in rec.draft_report
        assert "abc123456789" in rec.draft_report
        assert rec.evidence == "status=Resolved, resolution=Fixed, resolved_on=2021-03-01T00:00:00Z"

    def test_pending_comment_keeps_an_empty_draft(self):
        lives = [lifecycle("waiting for HADOOP-2", "HADOOP-2")]
        (rec,) = recommend(lives, self.records())
        assert rec.ready is False
        assert rec.draft_report is None
        assert rec.evidence == "status=Open, resolution=none"

    def test_unfetched_issue_is_skipped(self):
        lives = [lifecycle("remove after HADOOP-777", "HADOOP-777")]
        assert recommend(lives, self.records()) == []

    def test_github_evidence_omits_the_resolution(self):
        records = {(GITHUB, "9"): IssueRecord(GITHUB, "9", "closed", None,
                                              datetime(2021, 3, 1, tzinfo=UTC))}
        lives = [lifecycle("closes issue 9", "9", tracker=GITHUB)]
        (rec,) = recommend(lives, records)
        assert rec.evidence == "status=closed, resolved_on=2021-03-01T00:00:00Z"
        assert rec.ready is True

    def test_records_are_looked_up_by_tracker_and_key(self):
        lives = [lifecycle("fixed by bug 9", "9", tracker=BUGZILLA)]
        records = {(GITHUB, "9"): IssueRecord(GITHUB, "9", "closed", None, None)}
        assert recommend(lives, records) == []

    def test_recommendation_is_a_frozen_record(self):
        lives = [lifecycle("remove after HADOOP-1", "HADOOP-1")]
        (rec,) = recommend(lives, self.records())
        assert isinstance(rec, Recommendation)
        with pytest.raises(AttributeError):
            rec.ready = False


def test_tracker_does_not_import_the_miner():
    # Checking issues needs no git history: the tracker stays off the mining side.
    code = "import sys, onhold.tracker; sys.exit('onhold.miner' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
