"""Issue-reference detection and term abstraction for code comments.

Each issue tracker gets its own set of regular expressions: one group that
finds issue ids and issue URLs in comment text, and one group that rewrites
them to the placeholder token ``abstractissueid``.  One generic rule,
compiled once, then rewrites any remaining hyperlink to ``abstracturl``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigError

ABSTRACT_ISSUE_ID = "abstractissueid"
ABSTRACT_URL = "abstracturl"


class TrackerKind(enum.Enum):
    BUGZILLA = "bugzilla"
    GITHUB = "github"
    JIRA = "jira"

    @classmethod
    def parse(cls, text: str) -> "TrackerKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown tracker kind {text!r}; expected one of "
                f"{', '.join(k.value for k in cls)}"
            ) from None


# Pattern templates.  "projectname" is replaced with the (lowercased,
# escaped) tracker project token when a set is instantiated; the empty-key
# case drops that alternative entirely rather than leaving an empty branch.
_BUGZILLA_ID = r"(?<![A-Za-z])(?:bug|projectname|bugzilla|bz)[ -](?:#)?\d+(?:\.[0-9xX*]+)*"
_BUGZILLA_URL = r"https?:\/\/[\w._/]*show_bug\.cgi\?id=\d+"
_GITHUB_ID = r"(?<![A-Za-z])(?:bug|issues?)[ -](?:#)?\d+(?:\.[0-9xX*]+)*"
_GITHUB_URL = r"https?:\/\/github\.com\/[\w._/]*\/issues\/\d+"
_JIRA_ID = r"(?<![A-Za-z])(?:bug|projectname)[ -](?:#)?\d+(?:\.[0-9xX*]+)*"
_JIRA_URL = r"https?://issues\.apache\.org/jira/browse/(?:projectname)-\d+"
_GENERIC_URL = (
    r"https?:\/\/(www\.)?[-a-zA-Z0-9@:%._\+~#=]{2,256}\.[a-z]{2,6}\b"
    r"([-a-zA-Z0-9@:%_\+.~#?&//=]*)"
)
# Each set lists the generic rule last; abstract_terms runs it once, after every set.
_GENERIC_ABSTRACTOR = re.compile(_GENERIC_URL, re.IGNORECASE)


@dataclass(frozen=True)
class IssueReference:
    """One detected tracker reference inside a comment."""

    tracker: TrackerKind
    project_key: str | None
    issue_number: int
    matched_text: str
    char_span: tuple[int, int]

    @property
    def key(self) -> str:
        """Tracker-native id: ``PROJECT-N`` for Jira, the number otherwise."""
        if self.tracker is TrackerKind.JIRA and self.project_key:
            return f"{self.project_key}-{self.issue_number}"
        return str(self.issue_number)


@dataclass(frozen=True)
class PatternSet:
    """Instantiated detection and abstraction patterns for one project."""

    tracker: TrackerKind
    project_key: str
    detection_patterns: tuple[str, ...]
    abstraction_patterns: tuple[tuple[str, str], ...]
    _detectors: tuple[re.Pattern, ...] = field(repr=False)
    _abstractors: tuple[re.Pattern, ...] = field(repr=False)


def _instantiate(template: str, project_key: str) -> str:
    key = re.escape(project_key.lower())
    if key:
        return template.replace("projectname", key)
    # Drop the placeholder alternative; an empty regex branch would match
    # everywhere.
    return template.replace("projectname|", "").replace("|projectname", "")


def _compile_detector(source: str) -> re.Pattern:
    # The first \d+ in every pattern is the issue number; tag it so the
    # reference can be parsed without re-tokenizing the match.
    augmented = source.replace(r"\d+", r"(?P<issue>\d+)", 1)
    return re.compile(augmented, re.IGNORECASE)


def build_patterns(tracker: TrackerKind, project_key: str = "") -> PatternSet:
    """Instantiate the detection and abstraction patterns for one tracker.

    ``project_key`` is required for Jira (it names the issue key prefix,
    e.g. ``HADOOP``) and optional elsewhere.  Matching is case-insensitive.
    No pattern matches a line break, so a text's lines can be matched
    joined or apart alike; a key containing one is a ConfigError, as is
    instantiation that produces an uncompilable pattern.
    """
    key = project_key.strip()
    if tracker is TrackerKind.JIRA and not key:
        raise ConfigError("a Jira pattern set needs a non-empty project key")
    if len(key.splitlines()) > 1:
        raise ConfigError(f"project key {key!r} contains a line break")

    if tracker is TrackerKind.BUGZILLA:
        detection = [_instantiate(_BUGZILLA_ID, key), _BUGZILLA_URL]
        issue_abstraction = [_BUGZILLA_URL, _instantiate(_BUGZILLA_ID, key)]
    elif tracker is TrackerKind.GITHUB:
        detection = [_GITHUB_ID, _GITHUB_URL]
        issue_abstraction = [_GITHUB_URL, _GITHUB_ID]
    else:
        detection = [_instantiate(_JIRA_ID, key)]
        # The browse-URL rule must run before the bare-id rule so a full URL
        # collapses to a single token instead of leaving URL debris behind.
        issue_abstraction = [_instantiate(_JIRA_URL, key), _instantiate(_JIRA_ID, key)]

    try:
        detectors = tuple(_compile_detector(src) for src in detection)
        abstractors = tuple(re.compile(src, re.IGNORECASE) for src in issue_abstraction)
    except re.error as exc:
        raise ConfigError(f"pattern for {tracker.value} failed to compile: {exc}") from exc

    return PatternSet(
        tracker=tracker,
        project_key=key.upper(),
        detection_patterns=tuple(detection),
        abstraction_patterns=(*((src, ABSTRACT_ISSUE_ID) for src in issue_abstraction),
                              (_GENERIC_URL, ABSTRACT_URL)),
        _detectors=detectors,
        _abstractors=abstractors,
    )


@dataclass(frozen=True)
class PatternCollection:
    """Several project pattern sets applied together (mixed-project data).

    All issue rules from every set run before the single generic-URL rule,
    so a Jira browse URL is never half-eaten by another set's URL rule.
    """

    sets: tuple[PatternSet, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ConfigError("a pattern collection needs at least one pattern set")


Patterns = PatternSet | PatternCollection


JIRA_KEY = re.compile(r"^([A-Za-z][A-Za-z0-9]*)-\d+$")


def derive_patterns(issue_keys: Iterable[str] = ()) -> PatternCollection:
    """The keyless Bugzilla and GitHub sets, plus one Jira set per distinct
    ``KEY-123`` prefix among ``issue_keys`` (upper-cased, sorted).

    Jira needs a concrete project key, so without keys only the trackers
    that work without one are covered.
    """
    prefixes = sorted(
        {
            match.group(1).upper()
            for key in issue_keys
            if (match := JIRA_KEY.match(key.strip()))
        }
    )
    return PatternCollection(
        (
            build_patterns(TrackerKind.BUGZILLA),
            build_patterns(TrackerKind.GITHUB),
            *(build_patterns(TrackerKind.JIRA, prefix) for prefix in prefixes),
        )
    )


def _pattern_sets(patterns: Patterns) -> tuple[PatternSet, ...]:
    if isinstance(patterns, PatternCollection):
        return patterns.sets
    return (patterns,)


def find_issue_references(comment_text: str, patterns: Patterns) -> list[IssueReference]:
    """All non-overlapping issue references, leftmost-longest.

    Every detection pattern of every set runs over the text; overlapping
    candidates are resolved by earliest start, then longest match.
    """
    candidates: list[tuple[int, int, IssueReference]] = []
    for pset in _pattern_sets(patterns):
        for detector in pset._detectors:
            for m in detector.finditer(comment_text):
                number = int(m.group("issue"))
                if number <= 0:
                    continue
                ref = IssueReference(
                    tracker=pset.tracker,
                    project_key=pset.project_key or None,
                    issue_number=number,
                    matched_text=m.group(0),
                    char_span=(m.start(), m.end()),
                )
                candidates.append((m.start(), -m.end(), ref))

    candidates.sort(key=lambda item: (item[0], item[1]))
    chosen: list[IssueReference] = []
    cursor = 0
    for start, neg_end, ref in candidates:
        if start >= cursor:
            chosen.append(ref)
            cursor = -neg_end
    return chosen


def abstract_terms(comment_text: str, patterns: Patterns) -> str:
    """Replace issue ids/URLs with ``abstractissueid`` and other URLs with
    ``abstracturl``.

    Every set's issue rules run first, in set order, and the generic URL
    rule once, last.  The operation is idempotent: the placeholder tokens
    match none of the patterns.
    """
    text = comment_text
    for pset in _pattern_sets(patterns):
        for pattern in pset._abstractors:
            text = pattern.sub(ABSTRACT_ISSUE_ID, text)
    return _GENERIC_ABSTRACTOR.sub(ABSTRACT_URL, text)


def dump_pattern_sources(patterns: Patterns) -> str:
    """Human-readable listing of every instantiated regex, for audit."""
    lines: list[str] = []
    for pset in _pattern_sets(patterns):
        header = pset.tracker.value
        if pset.project_key:
            header += f" ({pset.project_key})"
        lines.append(f"[{header}]")
        for src in pset.detection_patterns:
            lines.append(f"detect\t{src}")
        for src, token in pset.abstraction_patterns:
            lines.append(f"abstract:{token}\t{src}")
    return "\n".join(lines)
