"""Shared exception types."""


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
