"""Issue-tracker gateway: fetch issue state and decide ready-to-remove.

Network access sits behind a transport seam so the whole pipeline runs
against recorded fixture files ({tracker}_{KEY}.json) with zero network
traffic.  Auth tokens come only from the environment (ITS_GITHUB_TOKEN,
ITS_JIRA_TOKEN, ITS_BUGZILLA_TOKEN), never from configuration files.

The disk cache is one JSON file per tracker and server,
``{tracker}_{server digest}.json``, mapping each issue key to the
tracker's own answer with its fetch time, ``{"fetched_at": ...,
"payload": ...}``.  A hit goes through the same parser as a fresh
answer.  Saving merges with the file on disk and drops expired
entries.  An answer of the wrong shape (not a JSON object, or a bad
date) skips that issue with a warning, like a missing issue, and is
not cached.  ``recommend`` turns each remaining comment, a dict of a
finding's eight comment fields, into a ``Recommendation``: one finding
of ``data/report.schema.json``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from .errors import (
    ConfigError,
    IssueNotFoundError,
    TrackerAuthError,
    TrackerError,
    TrackerTemporaryError,
)
from .issues import TrackerKind
from .timestamps import format_timestamp, parse_timestamp

log = logging.getLogger("onhold.tracker")

READY_STATUSES = frozenset({"resolved", "closed", "verified"})
READY_RESOLUTION = "fixed"

CACHE_TTL_SECONDS = 24 * 3600
MAX_RETRIES = 3
TIMEOUT_SECONDS = 10.0
CONCURRENCY = 4

_TOKEN_ENV = {
    TrackerKind.GITHUB: "ITS_GITHUB_TOKEN",
    TrackerKind.JIRA: "ITS_JIRA_TOKEN",
    TrackerKind.BUGZILLA: "ITS_BUGZILLA_TOKEN",
}


@dataclass(frozen=True)
class IssueRecord:
    tracker: TrackerKind
    key: str
    raw_status: str
    raw_resolution: str | None
    resolved_date: datetime | None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("issue record without a key")


@dataclass(frozen=True)
class TrackerConfig:
    tracker: TrackerKind
    base_url: str = ""       # Bugzilla/Jira server root; GitHub API root override
    repo: str = ""           # GitHub owner/name
    fixture_dir: str | Path | None = None
    cache_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.tracker is TrackerKind.GITHUB:
            if not self.repo and self.fixture_dir is None:
                raise ConfigError("GitHub tracker needs repo='owner/name'")
        elif not self.base_url and self.fixture_dir is None:
            raise ConfigError(f"{self.tracker.value} tracker needs base_url")


class Transport(Protocol):
    def fetch(self, config: TrackerConfig, key: str) -> tuple[int, dict]:
        """Return (HTTP-style status code, decoded JSON payload)."""


def _issue_url(config: TrackerConfig, key: str) -> str:
    if config.tracker is TrackerKind.BUGZILLA:
        return f"{config.base_url.rstrip('/')}/rest/bug/{key}"
    if config.tracker is TrackerKind.GITHUB:
        root = config.base_url.rstrip("/") or "https://api.github.com"
        return f"{root}/repos/{config.repo}/issues/{key}"
    return f"{config.base_url.rstrip('/')}/rest/api/2/issue/{key}"


class HttpTransport:
    """requests-based transport with per-tracker auth headers."""

    def fetch(self, config: TrackerConfig, key: str) -> tuple[int, dict]:
        import requests

        headers = {"Accept": "application/json"}
        token = os.environ.get(_TOKEN_ENV[config.tracker], "")
        if token:
            if config.tracker is TrackerKind.BUGZILLA:
                headers["X-BUGZILLA-API-KEY"] = token
            else:
                headers["Authorization"] = f"Bearer {token}"
        response = requests.get(
            _issue_url(config, key), headers=headers, timeout=TIMEOUT_SECONDS
        )
        try:
            payload = response.json()
        except ValueError:
            payload = {}
        return response.status_code, payload


class FixtureTransport:
    """Reads recorded responses named {tracker}_{KEY}.json; no network."""

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def fetch(self, config: TrackerConfig, key: str) -> tuple[int, dict]:
        path = self.fixture_dir / f"{config.tracker.value}_{key}.json"
        if not path.exists():
            return 404, {}
        # An answer that is not JSON reads as {}, as HttpTransport reads one.
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            payload = {}
        status = int(payload.pop("_http_status", 200)) if isinstance(payload, dict) else 200
        return status, payload


def _parse_payload(tracker: TrackerKind, key: str, payload: Any) -> IssueRecord:
    """The record in one decoded answer, fresh or cached.

    An answer of the wrong shape raises TrackerError naming the tracker and key.
    """
    resolution: str | None = None
    try:
        if tracker is TrackerKind.BUGZILLA:
            bugs = payload.get("bugs") or [payload]
            bug = bugs[0] if bugs else {}
            status = bug.get("status", "")
            resolution = bug.get("resolution") or None
            stamp = bug.get("cf_last_resolved") or (
                bug.get("last_change_time") if resolution else None
            )
        elif tracker is TrackerKind.GITHUB:
            status = payload.get("state", "")
            stamp = payload.get("closed_at")
        else:
            fields = payload.get("fields", {})
            status = (fields.get("status") or {}).get("name", "")
            resolution_obj = fields.get("resolution")
            resolution = resolution_obj.get("name") if resolution_obj else None
            stamp = fields.get("resolutiondate")
        resolved_date = parse_timestamp(stamp) if stamp else None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise TrackerError(f"{tracker.value} issue {key}: malformed response: {exc}") from exc
    if not isinstance(status, str) or not status:
        raise TrackerError(f"{tracker.value} issue {key}: no status in response")
    if not isinstance(resolution, (str, type(None))):
        raise TrackerError(f"{tracker.value} issue {key}: resolution is not a string")
    return IssueRecord(
        tracker=tracker,
        key=key,
        raw_status=status,
        raw_resolution=resolution,
        resolved_date=resolved_date,
    )


def is_ready_to_remove(record: IssueRecord) -> bool:
    """Whether the referenced issue is settled enough to drop the comment.

    The issue must have reached status resolved, closed, or verified
    with resolution "fixed".  GitHub has no resolution field, so a
    qualifying status alone suffices there; for Bugzilla and Jira a
    missing or non-"fixed" resolution blocks readiness.
    """
    status = record.raw_status.strip().lower()
    if status not in READY_STATUSES:
        return False
    if record.tracker is TrackerKind.GITHUB:
        return True
    resolution = (record.raw_resolution or "").strip().lower()
    return resolution == READY_RESOLUTION


class IssueGateway:
    """Fetches issue records through an optional on-disk cache.

    ``fetch_many`` asks for each distinct key once; the disk cache
    (TTL-bounded, one file per tracker and server) carries records
    across runs.  ``fetch_many`` reads that file once before its pool
    starts and writes it once after the pool is done.  Retries with
    exponential backoff cover rate limits and transient server errors.
    """

    def __init__(
        self,
        config: TrackerConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], datetime] | None = None,
    ):
        self.config = config
        if transport is not None:
            self.transport = transport
        elif config.fixture_dir is not None:
            self.transport = FixtureTransport(config.fixture_dir)
        else:
            self.transport = HttpTransport()
        self._sleep = sleep
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        # While fetch_many runs: the cache file's entries as read before
        # its pool started, and the fresh entries waiting to be saved.
        self._batch: tuple[dict[str, Any], dict[str, Any]] | None = None

    # -- disk cache -------------------------------------------------

    def _cache_path(self) -> Path | None:
        """{tracker}_{server digest}.json: equal keys of two servers stay apart."""
        if self.config.cache_dir is None:
            return None
        server = hashlib.blake2b(
            json.dumps([self.config.base_url, self.config.repo]).encode("utf-8"), digest_size=8
        ).hexdigest()
        return Path(self.config.cache_dir) / f"{self.config.tracker.value}_{server}.json"

    def _load_entries(self) -> dict[str, Any]:
        """The cache file's entries by issue key; an unreadable file holds none."""
        path = self._cache_path()
        if path is None:
            return {}
        try:
            entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        return entries if isinstance(entries, dict) else {}

    def _expired(self, entry: Any) -> bool:
        """Whether the entry is past its TTL; one without a readable fetch time is."""
        try:
            fetched_at = parse_timestamp(entry["fetched_at"])
            return (self._clock() - fetched_at).total_seconds() > CACHE_TTL_SECONDS
        except (ValueError, KeyError, TypeError, AttributeError):
            return True

    def _read_entry(self, entries: Mapping[str, Any], key: str) -> IssueRecord | None:
        """The cached record, or None when the entry is missing, expired or unparsable."""
        entry = entries.get(key)
        if entry is None or self._expired(entry):
            return None
        try:
            return _parse_payload(self.config.tracker, key, entry["payload"])
        except (KeyError, TrackerError):
            return None

    def _save(self, fresh: Mapping[str, Any]) -> None:
        """Merge fresh entries into the cache file and drop expired ones.

        The file is read again just before it is replaced, so a concurrent
        ``check`` loses at most what it fetched in that window; a temp file
        renamed over the old one means no reader sees half a file.
        """
        path = self._cache_path()
        if path is None or not fresh:
            return
        entries = {**self._load_entries(), **fresh}
        kept = {key: entry for key, entry in entries.items() if not self._expired(entry)}
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(kept, sort_keys=True))
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise

    # -- fetching ---------------------------------------------------

    def _fetch_uncached(self, key: str) -> tuple[IssueRecord, dict[str, Any]]:
        """Ask the transport, retrying rate limits and server errors.

        Returns the record and the cache entry of its answer.
        """
        env_var = _TOKEN_ENV[self.config.tracker]
        delay = 1.0
        attempts = 0
        while True:
            status_code, payload = self.transport.fetch(self.config, key)
            if status_code == 404:
                raise IssueNotFoundError(
                    f"{self.config.tracker.value} issue {key} not found"
                )
            if status_code in (401, 403):
                raise TrackerAuthError(
                    f"{self.config.tracker.value} rejected the request for {key} "
                    f"(HTTP {status_code}); set {env_var}"
                )
            if status_code == 429 or status_code >= 500:
                attempts += 1
                if attempts > MAX_RETRIES:
                    raise TrackerTemporaryError(
                        f"{self.config.tracker.value} issue {key}: "
                        f"HTTP {status_code} after {attempts} attempts"
                    )
                self._sleep(delay)
                delay *= 2
                continue
            if status_code != 200:
                raise TrackerError(
                    f"{self.config.tracker.value} issue {key}: HTTP {status_code}"
                )
            record = _parse_payload(self.config.tracker, key, payload)
            return record, {"fetched_at": format_timestamp(self._clock()), "payload": payload}

    def fetch(self, key: str) -> IssueRecord:
        """The issue's record, from the cache when it holds a fresh entry.

        Inside ``fetch_many`` the cache file is the one read before its
        pool started, and a fresh answer waits there to be saved; a lone
        call reads the file and saves its answer itself.
        """
        batch = self._batch
        entries = batch[0] if batch is not None else self._load_entries()
        record = self._read_entry(entries, key)
        if record is not None:
            return record
        record, entry = self._fetch_uncached(key)
        if batch is not None:
            batch[1][key] = entry
        else:
            self._save({key: entry})
        return record

    def fetch_many(self, keys: Iterable[str]) -> dict[str, IssueRecord | None]:
        """Fetch concurrently; failed keys map to None.

        One warning per failed key is logged after every fetch is done,
        in the order of ``keys``, so the log does not depend on thread
        timing.  Auth rejections are not per-issue conditions and
        propagate instead of being recorded as missing issues.
        """
        unique = list(dict.fromkeys(keys))

        def one(key: str) -> IssueRecord | TrackerError:
            try:
                return self.fetch(key)
            except TrackerAuthError:
                raise
            except TrackerError as exc:
                return exc

        if not unique:
            return {}
        self._batch = (self._load_entries(), {})
        try:
            with ThreadPoolExecutor(max_workers=min(CONCURRENCY, len(unique))) as pool:
                outcomes = list(pool.map(one, unique))
        finally:
            fresh = self._batch[1]
            self._batch = None
            self._save(fresh)
        records: dict[str, IssueRecord | None] = {}
        for key, outcome in zip(unique, outcomes):
            if isinstance(outcome, TrackerError):
                log.warning("skipping issue %s: %s", key, outcome)
                outcome = None
            records[key] = outcome
        return records


@dataclass(frozen=True)
class Recommendation:
    """One checked comment: exactly a finding of ``data/report.schema.json``.

    Timestamps are ``format_timestamp`` text, ``tracker`` is the tracker
    kind's value, and ``draft_report`` is None unless ``ready``.
    """

    file_path: str
    start_line: int
    end_line: int
    comment_text: str
    issue_key: str
    tracker: str
    issue_status: str
    issue_resolution: str | None
    issue_resolved_date: str | None
    introduced_commit: str
    introduced_date: str
    ready: bool
    evidence: str
    suggested_action: str
    draft_report: str | None


def _evidence(record: IssueRecord, resolved: str | None) -> str:
    parts = [f"status={record.raw_status}"]
    if record.tracker is not TrackerKind.GITHUB:
        parts.append(f"resolution={record.raw_resolution or 'none'}")
    if resolved is not None:
        parts.append(f"resolved_on={resolved}")
    return ", ".join(parts)


def _suggested_action(key: str, ready: bool, evidence: str) -> str:
    if ready:
        return (
            f"{key} is resolved, so this comment is "
            "ready to be removed along with any workaround it guards."
        )
    return f"keep: {key} is still pending ({evidence})."


def _draft_report(comment: Mapping[str, Any], record: IssueRecord, resolved: str | None) -> str:
    where = f"{comment['file_path']}, lines {comment['start_line']}-{comment['end_line']}"
    return (
        f"Remove obsolete on-hold comment referencing {record.key}\n"
        f"\n"
        f"The comment says:\n"
        f"    {comment['comment_text']}\n"
        f"\n"
        f"Location: {where} (introduced in {comment['introduced_commit'][:12]}).\n"
        f"Referenced issue {record.key} is now {record.raw_status}"
        f"{'/' + record.raw_resolution if record.raw_resolution else ''}"
        f"{' on ' + resolved if resolved else ''}.\n"
        f"The condition this comment was waiting on has been met, so the\n"
        f"comment and any workaround it guards can likely be removed.\n"
    )


def recommend(
    comments: Sequence[Mapping[str, Any]],
    records: Mapping[tuple[TrackerKind, str], IssueRecord | None],
) -> list[Recommendation]:
    """Pair remaining on-hold comments with issue state and verdicts.

    Each comment is a dict of a finding's eight comment fields, named and
    typed as in ``Recommendation``.  ``records`` is keyed by (tracker,
    issue key), so equal keys of two trackers stay apart; comments whose
    issue could not be fetched are skipped with a warning.
    """
    out: list[Recommendation] = []
    for comment in comments:
        record = records.get((TrackerKind(comment["tracker"]), comment["issue_key"]))
        if record is None:
            log.warning("issue %s unavailable; comment at %s:%d skipped",
                        comment["issue_key"], comment["file_path"], comment["start_line"])
            continue
        ready = is_ready_to_remove(record)
        resolved = format_timestamp(record.resolved_date) if record.resolved_date else None
        evidence = _evidence(record, resolved)
        out.append(Recommendation(
            **comment, issue_status=record.raw_status,
            issue_resolution=record.raw_resolution, issue_resolved_date=resolved,
            ready=ready, evidence=evidence,
            suggested_action=_suggested_action(record.key, ready, evidence),
            draft_report=_draft_report(comment, record, resolved) if ready else None,
        ))
    return out
