"""Command-line surface tying the mining/classification pipeline together.

Subcommands cover the full workflow: ``mine`` a repository's history
for issue-referencing comments, ``detect`` references in existing
comment tables, ``train``/``classify`` the on-hold model, ``check``
remaining comments against their trackers, ``evaluate`` variants under
cross-validation, summarize ``lifecycle`` statistics, and render a
``report``.  Informational lines go to stderr; result tables go to
stdout or ``--out``, so identical inputs and seeds yield byte-identical
output files.

The learning stack (``learn``, ``ngrams``, ``evalstats`` and with them
numpy, and the numpy-free ``textprep``) is imported only by the commands
that use it: ``train``, ``classify``, ``evaluate`` and ``lifecycle``.
``mine``, ``detect``, ``check`` and ``report`` learn nothing and start
without it; the parser's algorithm and variant names come from
``datasetio``.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import sys
from datetime import datetime
from pathlib import Path
from typing import Callable, Sequence

from . import datasetio, miner, report, tracker
from .datasetio import Label
from .errors import (
    ConfigError,
    DataFormatError,
    IssueNotFoundError,
    TrackerError,
    TrainingError,
    WorkerError,
    read_utf8,
)
from .issues import (
    JIRA_KEY,
    PatternCollection,
    Patterns,
    TrackerKind,
    build_patterns,
    derive_patterns,
    dump_pattern_sources,
    find_issue_references,
)
from .timestamps import format_timestamp, parse_timestamp


DEFAULT_SEED = 0

LIFECYCLE_COLUMNS = (
    "comment_text",
    "file_path",
    "line_number",
    "end_line",
    "issue_key",
    "tracker",
    "introduced_commit",
    "introduced_date",
    "removed_commit",
    "removed_date",
    "ambiguous",
    "raw_text",
)

DETECT_COLUMNS = (
    "row",
    "file_path",
    "line_number",
    "issue_key",
    "tracker",
    "matched_text",
    "char_start",
    "char_end",
)


class _UsageError(Exception):
    """Raised for bad invocations; printed as usage text, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


# --------------------------------------------------------------------------
# project configuration


@dataclasses.dataclass(frozen=True)
class ProjectConfig:
    """Per-project settings loaded from a JSON file.

    Credentials never belong here; the tracker gateway reads tokens
    from ITS_*_TOKEN environment variables only.
    """

    repo_path: str = ""
    branch: str = "HEAD"
    tracker: TrackerKind | None = None
    project_key: str = ""
    base_url: str = ""
    cache_dir: str = ""


_CONFIG_KEYS = frozenset(field.name for field in dataclasses.fields(ProjectConfig))
_SECRET_HINTS = ("token", "secret", "password", "apikey", "api_key")


def load_project_config(path: str | Path) -> ProjectConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key, value in payload.items():
        lowered = key.lower()
        if any(hint in lowered for hint in _SECRET_HINTS):
            raise ConfigError(
                f"{path}: refusing secret-looking key {key!r}; pass credentials "
                "via the ITS_GITHUB_TOKEN / ITS_JIRA_TOKEN / ITS_BUGZILLA_TOKEN "
                "environment variables"
            )
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if not isinstance(value, str):
            raise ConfigError(
                f"{path}: config key {key!r} must be a string, got {json.dumps(value)}"
            )
    kind = TrackerKind.parse(payload["tracker"]) if "tracker" in payload else None
    return ProjectConfig(**{**payload, "tracker": kind, "branch": payload.get("branch") or "HEAD"})


# --------------------------------------------------------------------------
# shared helpers


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _destination(out: str | None) -> Path | None:
    """The file an ``--out`` value names, or None for stdout."""
    return None if out in (None, "", "-") else Path(out).resolve()


def _emit(text: str, out: str | None) -> None:
    if _destination(out) is None:
        sys.stdout.write(text)
    else:
        with io.open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _load_config(args: argparse.Namespace) -> ProjectConfig | None:
    path = getattr(args, "config", None)
    return load_project_config(path) if path else None


def _trackers(
    args: argparse.Namespace, config: ProjectConfig | None = None
) -> list[tuple[TrackerKind | None, str, str]]:
    """(tracker, project, base URL) of each ``--tracker``, paired by position.

    Without ``--tracker`` flags, the config's tracker and project key
    form the one such entry.  A last entry, whose tracker is None, names
    the server of every tracker left without one: the config's
    ``base_url``, or without ``--tracker`` flags a lone ``--base-url``.
    A value not given, or a command without ``--base-url``, reads ``""``.
    """
    trackers = [TrackerKind.parse(t) for t in args.tracker or []]
    projects = args.project or []
    urls = getattr(args, "base_url", None) or []
    if len(projects) > len(trackers):
        raise ConfigError(
            f"{len(projects)} --project values for {len(trackers)} --tracker values"
        )
    if len(urls) > max(len(trackers), 1):
        raise ConfigError(
            f"{len(urls)} --base-url values for {len(trackers)} --tracker values"
        )
    other = config.base_url if config else ""
    if not trackers:
        named = [(config.tracker, config.project_key, "")] if config and config.tracker else []
        return [*named, (None, "", urls[0] if urls else other)]
    return [*itertools.zip_longest(trackers, projects, urls, fillvalue=""), (None, "", other)]


def _patterns(
    args: argparse.Namespace,
    config: ProjectConfig | None = None,
    issue_keys: Sequence[str] = (),
) -> Patterns:
    """Pattern sets of the tracker/project pairs, else derived from issue keys."""
    pairs = [(kind, project) for kind, project, _ in _trackers(args, config) if kind is not None]
    if not pairs:
        return derive_patterns(issue_keys)
    return PatternCollection(tuple(build_patterns(kind, key) for kind, key in pairs))


def _dataset_echo(source: str | Path, labels: Sequence[Label]) -> str:
    on_hold = sum(1 for label in labels if label is Label.ON_HOLD)
    cross = len(labels) - on_hold
    return (
        f"dataset {source}: {len(labels):,} comments, "
        f"{on_hold:,} OnHold / {cross:,} CrossReference"
    )


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_mine(args: argparse.Namespace) -> None:
    config = _load_config(args)
    repo = args.repo or (config.repo_path if config else "")
    if not repo:
        raise _UsageError("mine: --repo is required (or a config with repo_path)")
    branch = args.branch or (config.branch if config else "HEAD")
    patterns = _patterns(args, config)
    history = miner.walk_history(repo, branch=branch)
    lifecycles = miner.trace_lifecycles(
        repo, history, patterns, include_tests=args.include_tests
    )
    rows = [
        [
            lc.block.normalized_text,
            lc.block.file_path,
            str(lc.block.start_line),
            str(lc.block.end_line),
            lc.issue_key,
            lc.tracker.value,
            lc.introduced_commit,
            format_timestamp(lc.introduced_date),
            lc.removed_commit or "",
            format_timestamp(lc.removed_date) if lc.removed_date else "",
            "true" if lc.ambiguous else "false",
            lc.block.raw_text,
        ]
        for lc in lifecycles
    ]
    _emit(datasetio.format_table(LIFECYCLE_COLUMNS, rows), args.out)
    _info(
        f"mined {len(history)} commits in {repo}: "
        f"{len(rows)} issue-referencing comment lifecycles"
    )


def _cmd_detect(args: argparse.Namespace) -> None:
    patterns = _patterns(args)
    if args.dump_patterns:
        _emit(dump_pattern_sources(patterns) + "\n", args.out)
        return
    if not args.input:
        raise _UsageError("detect: --input is required (or use --dump-patterns)")
    header, numbered = datasetio.load_table(args.input)
    positions = datasetio.require_columns(header, ("comment_text",), str(args.input))
    text_at = positions["comment_text"]
    out_rows: list[list[str]] = []
    for lineno, fields in numbered:
        file_path = fields[positions["file_path"]] if "file_path" in positions else ""
        line_no = (
            fields[positions["line_number"]] if "line_number" in positions else ""
        )
        for ref in find_issue_references(fields[text_at], patterns):
            out_rows.append(
                [
                    str(lineno),
                    file_path,
                    line_no,
                    ref.key,
                    ref.tracker.value,
                    ref.matched_text,
                    str(ref.char_span[0]),
                    str(ref.char_span[1]),
                ]
            )
    _emit(datasetio.format_table(DETECT_COLUMNS, out_rows), args.out)
    _info(f"{len(out_rows)} issue references in {len(numbered)} comments")


def _prepare_vectors(
    args: argparse.Namespace, rows: Sequence[datasetio.DatasetRow]
) -> tuple[list[list[str]], list[Label]]:
    from . import textprep

    patterns = _patterns(args, issue_keys=[row.issue_key for row in rows])
    lemma_table = textprep.load_lemma_table(args.lemma_table)
    tokens = textprep.preprocess_many([row.comment_text for row in rows], patterns, lemma_table)
    labels = [row.label for row in rows]
    return tokens, labels


def _cmd_train(args: argparse.Namespace) -> None:
    from . import learn, ngrams

    rows = datasetio.load_dataset(args.dataset)
    tokens, labels = _prepare_vectors(args, rows)
    _info(_dataset_echo(args.dataset, labels))
    vocab, dataset = learn.featurize(tokens, labels, bow=args.bow)
    model = learn.fit(dataset, args.algorithm, smote=args.smote, seed=args.seed)
    for row in model.inner_cv:
        _info(
            f"inner CV {row.algorithm} {json.dumps(row.hyperparameters, sort_keys=True)}: "
            f"mean F1 {row.mean_f1:.4f}, mean AUC {row.mean_auc:.4f}, "
            f"mean fit {row.mean_fit_s * 1000:.1f} ms{' (chosen)' if row.chosen else ''}"
        )
    model.vocabulary_hash = learn.vocabulary_digest(vocab)
    learn.save_model(model, args.model)
    ngrams.save_vocabulary(vocab, args.vocab)
    _info(
        f"trained {model.algorithm} on {len(dataset)} rows"
        f"{' (before SMOTE)' if args.smote else ''}; "
        f"model -> {args.model}, vocabulary -> {args.vocab} ({len(vocab)} terms)"
    )


def _cmd_classify(args: argparse.Namespace) -> None:
    from . import learn, ngrams, textprep

    vocab = ngrams.load_vocabulary(args.vocab)
    model = learn.load_model(args.model)
    digest = learn.vocabulary_digest(vocab)
    if model.vocabulary_hash and model.vocabulary_hash != digest:
        raise ConfigError(
            f"{args.vocab} does not match the model's vocabulary hash; "
            "pass the vocabulary file saved at training time"
        )
    if len(vocab) != model.n_features:
        raise ConfigError(
            f"{args.vocab} has {len(vocab)} terms but the model has "
            f"{model.n_features} features"
        )
    lemma_table = textprep.load_lemma_table(args.lemma_table)
    header, numbered = datasetio.load_table(args.input)
    positions = datasetio.require_columns(header, ("comment_text",), str(args.input))
    text_at = positions["comment_text"]
    key_at = positions.get("issue_key")
    patterns = _patterns(
        args,
        issue_keys=[fields[key_at] for _, fields in numbered] if key_at is not None else [],
    )
    drop = {
        positions[name]
        for name in ("predicted_label", "score")
        if name in positions
    }
    kept = [i for i in range(len(header)) if i not in drop]
    out_rows: list[list[str]] = []
    n_on_hold = 0
    # One score chunk at a time, so no whole-table feature matrix is built.
    for start, end in learn.score_chunks(len(numbered)):
        chunk = numbered[start:end]
        tokens = textprep.preprocess_many([fields[text_at] for _, fields in chunk], patterns,
                                          lemma_table)
        scores = learn.predict_proba_batch(model, ngrams.term_matrix(tokens, vocab))
        for (_, fields), score in zip(chunk, scores):
            label = model.label(score)
            n_on_hold += label is Label.ON_HOLD
            out_rows.append([fields[i] for i in kept] + [label.value, repr(float(score))])
    out_header = tuple(header[i] for i in kept) + ("predicted_label", "score")
    _emit(datasetio.format_table(out_header, out_rows), args.out)
    _info(f"{n_on_hold} of {len(numbered)} comments classified OnHold")


def _finding_fields(
    cell: Callable[[str], str], location: str, issue_key: str, kind: TrackerKind
) -> dict[str, object]:
    """The row's eight comment fields, as ``tracker.recommend`` takes them.

    Absent cells read as line 1, an end line after the text's last newline,
    an "unknown" path and commit, and the epoch.  A line number below 1,
    which ``report`` would refuse, or an end line before the line number
    is a DataFormatError.
    """
    text = cell("comment_text")
    try:
        start = int(cell("line_number") or "1")
        if start < 1:
            raise ValueError(f"line number {start} is below 1")
        end_raw = cell("end_line")
        end = int(end_raw) if end_raw else start + text.count("\n")
        if end < start:
            raise ValueError(f"end line {end} is before line number {start}")
        stamp = cell("introduced_date")
        introduced = format_timestamp(parse_timestamp(stamp)) if stamp else "1970-01-01T00:00:00Z"
    except ValueError as exc:
        raise DataFormatError(f"{location}: {exc}") from exc
    return {
        "file_path": cell("file_path") or "unknown",
        "start_line": start,
        "end_line": end,
        "comment_text": text,
        "issue_key": issue_key,
        "tracker": kind.value,
        "introduced_commit": cell("introduced_commit") or "unknown",
        "introduced_date": introduced,
    }


def _cmd_check(args: argparse.Namespace) -> None:
    config = _load_config(args)
    header, numbered = datasetio.load_table(args.input)
    positions = datasetio.require_columns(
        header, ("comment_text", "issue_key"), str(args.input)
    )
    entries = _trackers(args, config)
    # Rows without a tracker column take the first tracker named.
    default_kind = entries[0][0]
    # A GitHub key names no repository, so two would leave each issue's
    # repository a guess.  Jira and Bugzilla requests ignore --project,
    # so their gateways, and hence their cache keys, get no repository.
    repos = sorted({project for kind, project, _ in entries if kind is TrackerKind.GITHUB})
    if len(repos) > 1:
        raise ConfigError(f"github takes one --project, got {', '.join(map(repr, repos))}")
    # Each tracker's server; None's serves the trackers left without one.
    servers: dict[TrackerKind | None, str] = {}
    for kind, _, url in entries:
        if url and servers.setdefault(kind, url) != url:
            raise ConfigError(
                f"{kind.value} takes one --base-url, got {servers[kind]!r} and {url!r}"
            )
    cache_dir = args.cache_dir or (config.cache_dir if config else "")

    comments: list[dict[str, object]] = []
    per_tracker: dict[TrackerKind, set[str]] = {}
    for lineno, fields in numbered:
        location = f"{args.input}:{lineno}"

        def cell(name: str) -> str:
            index = positions.get(name)
            return fields[index] if index is not None else ""

        if cell("removed_commit") or cell("removed_date"):
            continue
        verdict = cell("predicted_label") or cell("label")
        if verdict:
            try:
                if Label.parse(verdict) is not Label.ON_HOLD:
                    continue
            except ValueError as exc:
                raise DataFormatError(f"{location}: {exc}") from exc
        key = cell("issue_key").strip()
        if not key:
            continue
        raw_kind = cell("tracker")
        if raw_kind:
            kind = TrackerKind.parse(raw_kind)
        elif default_kind is not None:
            kind = default_kind
        elif JIRA_KEY.match(key):
            kind = TrackerKind.JIRA
        else:
            raise ConfigError(
                f"{location}: cannot tell the tracker for issue {key!r}; "
                "add a tracker column or pass --tracker"
            )
        per_tracker.setdefault(kind, set()).add(key)
        comments.append(_finding_fields(cell, location, key, kind))

    records: dict[tuple[TrackerKind, str], tracker.IssueRecord | None] = {}
    for kind in sorted(per_tracker, key=lambda item: item.value):
        gateway_config = tracker.TrackerConfig(
            tracker=kind,
            base_url=servers.get(kind) or servers.get(None, ""),
            repo=repos[0] if repos and kind is TrackerKind.GITHUB else "",
            fixture_dir=args.fixtures,
            cache_dir=cache_dir or None,
        )
        gateway = tracker.IssueGateway(gateway_config)
        fetched = gateway.fetch_many(sorted(per_tracker[kind]))
        records.update(((kind, key), record) for key, record in fetched.items())

    recommendations = tracker.recommend(comments, records)
    _emit(report.render_report(recommendations, "json"), args.out)
    ready = sum(1 for rec in recommendations if rec.ready)
    _info(
        f"checked {len(comments)} remaining comments: "
        f"{ready} ready to be removed"
    )


def _cmd_evaluate(args: argparse.Namespace) -> None:
    from . import evalstats

    # Both tables have six columns, so one written after the other on one
    # stream would read as a single table.
    if args.compare and _destination(args.out) == _destination(args.comparisons_out):
        raise _UsageError("evaluate: --compare needs --out and --comparisons-out to differ")
    rows = datasetio.load_dataset(args.dataset)
    tokens, labels = _prepare_vectors(args, rows)
    _info(_dataset_echo(args.dataset, labels))
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    if not variants:
        raise _UsageError("evaluate: --variants must name at least one variant")
    results = evalstats.evaluate_variants(
        tokens,
        labels,
        variants=variants,
        k=args.k,
        seed=args.seed,
    )
    _emit(evalstats.results_tsv(results), args.out)
    for variant in variants:
        scores = results[variant]
        _info(
            f"{variant}: precision={scores.mean('precision'):.3f} "
            f"recall={scores.mean('recall'):.3f} f1={scores.mean('f1'):.3f} "
            f"auc={scores.mean('auc'):.3f}"
        )
    if args.compare and len(variants) >= 2:
        comparisons: list[evalstats.ComparisonResult] = []
        for a, b in itertools.combinations(variants, 2):
            comparisons.extend(evalstats.compare_folds(results[a], results[b]))
        _emit(evalstats.comparisons_tsv(comparisons), args.comparisons_out)


def _cmd_lifecycle(args: argparse.Namespace) -> None:
    from . import evalstats

    rows = datasetio.load_dataset(args.dataset)
    _info(_dataset_echo(args.dataset, [row.label for row in rows]))
    span_records = [
        (row.label, row.introduced_date, row.removed_date)
        for row in rows
        if row.introduced_date is not None and row.removed_date is not None
    ]
    spans = evalstats.lifespan_stats(span_records)
    removals: list[tuple[datetime, datetime | None]] = []
    for row in rows:
        if row.label is not Label.ON_HOLD or row.removed_date is None:
            continue
        resolved = row.issue_resolved_date
        resolution = (row.issue_resolution or "").strip().lower()
        if resolved is not None and resolution not in ("", "fixed"):
            resolved = None
        removals.append((row.removed_date, resolved))
    delays = evalstats.resolution_delay_stats(removals)

    table: list[tuple[str, str, str, int | float | None]] = [
        ("lifespan", label.value, metric, value)
        for label in (Label.ON_HOLD, Label.CROSS_REFERENCE)
        if (summary := spans.get(label)) is not None
        for metric, value in (
            ("count", summary.count),
            ("median_days", summary.median),
            ("mean_days", summary.mean),
            *((f"p{percentile}", q) for percentile, q in summary.percentiles),
        )
    ]
    table += [
        ("resolution_delay", Label.ON_HOLD.value, metric, value)
        for metric, value in (
            ("removed_after_fix", delays.removed_after),
            ("removed_before_fix", delays.removed_before),
            ("open_or_wontfix", delays.open_or_wontfix),
            ("same_day_fraction", delays.same_day_fraction),
            ("over_one_year_fraction", delays.over_one_year_fraction),
            ("median_delay_days", delays.median_delay),
        )
    ]
    out_rows = [
        [section, group, metric, "" if value is None else repr(value)]
        for section, group, metric, value in table
    ]
    _emit(
        datasetio.format_table(("section", "group", "metric", "value"), out_rows),
        args.out,
    )


def _cmd_report(args: argparse.Namespace) -> None:
    try:
        payload = json.loads(read_utf8(args.input))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.input}: not valid JSON: {exc}") from exc
    try:
        recommendations = report.recommendations_from_payload(payload)
    except DataFormatError as exc:
        raise DataFormatError(f"{args.input}: {exc}") from exc
    _emit(report.render_report(recommendations, args.format), args.out)


# --------------------------------------------------------------------------
# parser assembly


def _add_pattern_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tracker",
        action="append",
        choices=[kind.value for kind in TrackerKind],
        help="tracker kind; repeatable, paired positionally with --project "
        "(default: Bugzilla and GitHub, plus Jira for each KEY-123 prefix among "
        "the input's issue keys)",
    )
    parser.add_argument(
        "--project",
        action="append",
        help="project key for the matching --tracker (Jira key, Bugzilla "
        "product, or GitHub owner/name)",
    )


def _add_text_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lemma-table",
        default=None,
        help="override the built-in lemma exception table (token TAB lemma)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="onhold",
        description="Mine, classify, and check issue-referencing code comments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(
        name: str, help_text: str, handler, out: bool = True, seed: bool = False
    ) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        if out:
            p.add_argument("--out", default=None, help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
        return p

    p = sub("mine", "Trace issue-referencing comment lifecycles from git history.",
            _cmd_mine)
    p.add_argument("--repo", default=None, help="path to the git repository")
    p.add_argument("--branch", default=None, help="branch to walk (default HEAD)")
    p.add_argument("--config", default=None, help="project JSON config file")
    p.add_argument(
        "--include-tests",
        action="store_true",
        help="also mine comments in test files",
    )
    _add_pattern_flags(p)

    p = sub("detect", "Detect issue references in a TSV of comments.", _cmd_detect)
    p.add_argument("--input", default=None, help="TSV with a comment_text column")
    p.add_argument(
        "--dump-patterns",
        action="store_true",
        help="print the instantiated regex patterns and exit",
    )
    _add_pattern_flags(p)

    p = sub("train", "Train a classifier on a labeled dataset TSV.", _cmd_train,
            out=False, seed=True)
    p.add_argument("--dataset", required=True, help="labeled dataset TSV")
    p.add_argument("--model", required=True, help="where to write the model file")
    p.add_argument(
        "--vocab", required=True, help="where to write the vocabulary TSV"
    )
    p.add_argument(
        "--algorithm",
        default="auto",
        choices=("auto",) + datasetio.ALGORITHMS,
        help="classifier (auto = inner cross-validated model selection)",
    )
    p.add_argument("--smote", action="store_true", help="oversample the minority class")
    p.add_argument(
        "--bow",
        action="store_true",
        help="use unigram bag-of-words features instead of weighted n-grams",
    )
    _add_pattern_flags(p)
    _add_text_flags(p)

    p = sub("classify", "Score a TSV of comments with a trained model.",
            _cmd_classify)
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--vocab", required=True, help="vocabulary TSV from train")
    p.add_argument("--input", required=True, help="TSV with a comment_text column")
    _add_pattern_flags(p)
    _add_text_flags(p)

    p = sub("check", "Check remaining on-hold comments against their tracker.",
            _cmd_check)
    p.add_argument("--input", required=True,
                   help="predictions or mined-lifecycle TSV")
    p.add_argument("--config", default=None, help="project JSON config file")
    p.add_argument("--base-url", action="append", default=None,
                   help="tracker API base URL; repeatable, paired positionally with "
                        "--tracker (one value alone serves every tracker)")
    p.add_argument("--fixtures", default=None,
                   help="directory of recorded {tracker}_{KEY}.json responses "
                        "(no network access)")
    p.add_argument("--cache-dir", default=None, help="on-disk issue cache directory")
    _add_pattern_flags(p)

    p = sub("evaluate", "Cross-validate classification variants on a dataset.",
            _cmd_evaluate, seed=True)
    p.add_argument("--dataset", required=True, help="labeled dataset TSV")
    p.add_argument("--variants", default="ngram-auto",
                   help="comma-separated variants: " + ",".join(datasetio.VARIANTS))
    p.add_argument("--k", type=int, default=10, help="number of folds")
    p.add_argument("--compare", action="store_true",
                   help="also emit pairwise significance comparisons")
    p.add_argument("--comparisons-out", default=None,
                   help="output file for comparisons (default: stdout)")
    _add_pattern_flags(p)
    _add_text_flags(p)

    p = sub("lifecycle", "Summarize comment life spans and resolution delays.",
            _cmd_lifecycle)
    p.add_argument("--dataset", required=True, help="labeled dataset TSV with dates")

    p = sub("report", "Render a check JSON report as markdown or JSON.",
            _cmd_report)
    p.add_argument("--input", required=True, help="JSON report from check")
    p.add_argument("--format", default="markdown", choices=report.REPORT_FORMATS,
                   help="output format")

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 1
    try:
        args.handler(args)
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    # A missing user-supplied path (FileNotFoundError) is an invocation
    # mistake, not an environment failure, so it is caught before OSError.
    except (ConfigError, DataFormatError, TrainingError, WorkerError, IssueNotFoundError,
            ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrackerError, OSError) as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    console_main()
