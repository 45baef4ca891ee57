"""Shared exception types, and the UTF-8 file reader whose error names the file."""

from __future__ import annotations

from pathlib import Path


class OnholdError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(OnholdError):
    """Bad or missing configuration: repository, branch, patterns, config file."""


class DataFormatError(OnholdError):
    """Malformed dataset or model file."""


class TrainingError(OnholdError):
    """Dataset unusable for training (e.g. a single-class fold)."""


class WorkerError(OnholdError):
    """A worker process died, e.g. killed for lack of memory; names its lost job."""


class TrackerError(OnholdError):
    """Base class for issue-tracker gateway failures."""


class IssueNotFoundError(TrackerError):
    """The tracker reports no issue under the requested key."""


class TrackerAuthError(TrackerError):
    """Authentication or authorization failure; names the token env var."""


class TrackerTemporaryError(TrackerError):
    """Transient failure (rate limit / server error) after retries."""


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 is a DataFormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8: {exc}") from exc
