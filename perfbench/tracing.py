"""Spans and counters around the public functions of each onhold layer.

Tracing is installed from the benchmark's own files: each function is
replaced, under the name its caller looks it up by, with a wrapper that
records a span (name, start, end, parent span, thread, CLI command) and
optional counters.  Functions bound by ``from ... import`` are wrapped
in the importing module; methods are wrapped on their class.  Span
parents are kept per thread, since ``IssueGateway.fetch_many`` calls
``fetch`` from its own worker pool.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import gzip
import json
import math
import threading
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

ALGORITHMS = ("ExtraTrees", "RandomForest", "NaiveBayes", "LinearSVM", "KNN")
CLI_COMMANDS = ("mine", "train", "classify", "check", "report")

# Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("javalex.extract_comments.calls", "count"),
    ("javalex.extract_comments.self_s", "s"),
    ("javalex.mb_per_s", "MB/s"),
    ("javalex.blocks", "count"),
    ("miner.walk_history.s", "s"),
    ("miner.commits", "count"),
    ("miner.changes", "count"),
    ("miner.read_text.calls", "count"),
    ("miner.read_text.s", "s"),
    ("miner.blob_mb", "MB"),
    ("miner.trace_lifecycles.self_s", "s"),
    ("miner.lifecycles", "count"),
    ("miner.git_peak_rss_mb", "MB"),
    ("issues.find_issue_references.calls", "count"),
    ("issues.find_issue_references.s", "s"),
    ("issues.detect_hit_ratio", "ratio"),
    ("issues.abstract_terms.calls", "count"),
    ("issues.abstract_terms.s", "s"),
    ("textprep.preprocess.calls", "count"),
    ("textprep.preprocess.self_s", "s"),
    ("ngrams.vectorize.calls", "count"),
    ("ngrams.vectorize.s", "s"),
    ("ngrams.extract_terms.calls", "count"),
    ("ngrams.extract_terms.s", "s"),
    ("ngrams.vocab_terms", "count"),
    *(
        (f"learn.train.{algorithm}.{quantity}", unit)
        for algorithm in ALGORITHMS
        for quantity, unit in (("calls", "count"), ("s", "s"))
    ),
    ("learn.select_model.self_s", "s"),
    ("learn.make_dataset.s", "s"),
    ("learn.predict_proba_batch.calls", "count"),
    ("learn.predict_proba_batch.rows", "count"),
    ("learn.predict_proba_batch.s", "s"),
    ("evalstats.kfold_split.s", "s"),
    ("evalstats.compute_metrics.s", "s"),
    ("evalstats.compute_auc.s", "s"),
    ("datasetio.load_table.s", "s"),
    ("datasetio.load_dataset.s", "s"),
    ("datasetio.format_table.s", "s"),
    ("datasetio.rows", "count"),
    ("tracker.fetch.calls", "count"),
    ("tracker.fetch.p50_ms", "ms"),
    ("tracker.fetch.p99_ms", "ms"),
    ("tracker.fetch_many.s", "s"),
    ("tracker.transport.calls", "count"),
    ("tracker.cache_hit_ratio.cold", "ratio"),
    ("tracker.cache_hit_ratio.warm", "ratio"),
    ("tracker.not_found", "count"),
    ("tracker.retries", "count"),
    ("tracker.recommend.s", "s"),
    ("report.render_report.s", "s"),
    *((f"cli.{command}.self_s", "s") for command in CLI_COMMANDS),
    ("trace_overhead_ratio", "ratio"),
)


class Span(NamedTuple):
    ident: int
    parent: int          # 0 for a root span of its thread
    name: str
    thread: int
    command: str         # label of the CLI command the span belongs to
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store with wrappers to install."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.command = ""
        self._local = threading.local()
        self._ids = count(1)
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []

    def add(self, name: str, value: float) -> None:
        key = (self.command, name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.command, name)
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        ident = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(ident)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(ident, parent, name, threading.get_ident(), self.command, start, end)
            )

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        after: Callable[["Tracer", tuple, dict, Any], None] | None = None,
        before: Callable[["Tracer", tuple], None] | None = None,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(tracer, args)
            label = name if isinstance(name, str) else name(args, kwargs)
            result = tracer.call(label, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def take(self) -> tuple[list[Span], dict[tuple[str, str], float]]:
        """Hand over and reset what was recorded since the last call."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters


def _git_hwm_mb(pid: int) -> float:
    """Peak resident set of a live child, read before it exits.

    ``getrusage(RUSAGE_CHILDREN)`` cannot isolate git's memory on Linux:
    a child's maximum includes the parent's resident set at the moment
    it was spawned.  ``VmHWM`` of the child itself does not.
    """
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every onhold layer."""
    from onhold import (
        cli, datasetio, evalstats, issues, javalex, learn, miner, ngrams,
        report, textprep, tracker,
    )

    def blocks(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        t.add("javalex.bytes", len(args[0].encode("utf-8")))
        t.add("javalex.blocks", len(result))

    for module in (javalex, miner):
        tracer.wrap(module, "extract_comments", "javalex.extract_comments", blocks)

    def history(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        t.add("miner.commits", len(result))
        t.add("miner.changes", sum(len(entry.changes) for entry in result))

    tracer.wrap(miner, "walk_history", "miner.walk_history", history)
    tracer.wrap(miner, "trace_lifecycles", "miner.trace_lifecycles",
                lambda t, a, k, r: t.add("miner.lifecycles", len(r)))
    tracer.wrap(miner.GitCatFile, "read_text", "miner.read_text",
                lambda t, a, k, r: t.add("miner.blob_bytes", len(r.encode("utf-8")) if r else 0))
    def git_memory(t: Tracer, args: tuple) -> None:
        proc = getattr(args[0], "_proc", None)
        if proc is not None:
            t.peak("miner.git_hwm_mb", _git_hwm_mb(proc.pid))

    tracer.wrap(miner.GitCatFile, "close", "miner.close", before=git_memory)

    def detected(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        t.add("issues.detect_hits", 1 if result else 0)

    for module in (issues, miner, cli):
        tracer.wrap(module, "find_issue_references", "issues.find_issue_references", detected)
    for module in (issues, textprep):
        tracer.wrap(module, "abstract_terms", "issues.abstract_terms")
    tracer.wrap(textprep, "preprocess", "textprep.preprocess")
    tracer.wrap(ngrams, "vectorize", "ngrams.vectorize")
    tracer.wrap(ngrams, "extract_terms", "ngrams.extract_terms",
                lambda t, a, k, r: t.add("ngrams.vocab_terms", len(r)))

    tracer.wrap(learn, "train", lambda a, k: "learn.train." + (a[1] if len(a) > 1 else k["algorithm"]))
    tracer.wrap(learn, "select_model", "learn.select_model")
    tracer.wrap(learn, "make_dataset", "learn.make_dataset")
    tracer.wrap(learn, "predict_proba_batch", "learn.predict_proba_batch",
                lambda t, a, k, r: t.add("learn.predict_rows", len(a[1])))
    for name in ("kfold_split", "compute_metrics", "compute_auc"):
        tracer.wrap(evalstats, name, f"evalstats.{name}")

    tracer.wrap(datasetio, "load_table", "datasetio.load_table",
                lambda t, a, k, r: t.add("datasetio.rows", len(r[1])))
    tracer.wrap(datasetio, "load_dataset", "datasetio.load_dataset",
                lambda t, a, k, r: t.add("datasetio.rows", len(r)))
    tracer.wrap(datasetio, "format_table", "datasetio.format_table")

    def answered(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        status = result[0]
        t.add("tracker.not_found", status == 404)
        t.add("tracker.retries", status == 429 or status >= 500)

    tracer.wrap(tracker.IssueGateway, "fetch", "tracker.fetch")
    tracer.wrap(tracker.IssueGateway, "fetch_many", "tracker.fetch_many")
    tracer.wrap(tracker.FixtureTransport, "fetch", "tracker.transport", answered)
    tracer.wrap(tracker, "recommend", "tracker.recommend")
    tracer.wrap(report, "render_report", "report.render_report")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def layer_metrics(spans: list[Span], counters: dict[tuple[str, str], float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace_overhead_ratio excluded)."""
    child_time: dict[int, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for span in spans:
        if span.parent:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        self_time[span.name] = (
            self_time.get(span.name, 0.0) + span.seconds - child_time.get(span.ident, 0.0)
        )

    def counter(name: str) -> float:
        return sum(v for (_, n), v in counters.items() if n == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def hit_ratio(command: str) -> float:
        fetches = sum(1 for s in spans if s.name == "tracker.fetch" and s.command == command)
        transports = sum(1 for s in spans if s.name == "tracker.transport" and s.command == command)
        return ratio(fetches - transports, fetches)

    values: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        stem, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = calls.get(stem, 0)
        elif quantity == "s":
            values[name] = total.get(stem, 0.0)
        elif quantity == "self_s":
            values[name] = self_time.get(stem, 0.0)

    fetch_ms = sorted(s.seconds * 1000 for s in spans if s.name == "tracker.fetch")
    values.update({
        "javalex.mb_per_s": ratio(counter("javalex.bytes") / 1e6,
                                  total.get("javalex.extract_comments", 0.0)),
        "javalex.blocks": counter("javalex.blocks"),
        "miner.commits": counter("miner.commits"),
        "miner.changes": counter("miner.changes"),
        "miner.blob_mb": counter("miner.blob_bytes") / 1e6,
        "miner.lifecycles": counter("miner.lifecycles"),
        "miner.git_peak_rss_mb": max(
            (v for (_, n), v in counters.items() if n == "miner.git_hwm_mb"), default=0.0
        ),
        "issues.detect_hit_ratio": ratio(
            counter("issues.detect_hits"), calls.get("issues.find_issue_references", 0)
        ),
        "ngrams.vocab_terms": counter("ngrams.vocab_terms"),
        "learn.predict_proba_batch.rows": counter("learn.predict_rows"),
        "datasetio.rows": counter("datasetio.rows"),
        "tracker.fetch.p50_ms": _percentile(fetch_ms, 0.50),
        "tracker.fetch.p99_ms": _percentile(fetch_ms, 0.99),
        "tracker.cache_hit_ratio.cold": hit_ratio("check-cold"),
        "tracker.cache_hit_ratio.warm": hit_ratio("check-warm"),
        "tracker.not_found": counter("tracker.not_found"),
        "tracker.retries": counter("tracker.retries"),
    })
    return values


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """Write the recorded spans as gzipped JSON lines, one per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, spans in enumerate(passes):
            for s in spans:
                handle.write(json.dumps(
                    [index, s.ident, s.parent, s.name, s.thread, s.command, s.start, s.end]
                ) + "\n")
