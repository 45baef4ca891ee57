"""The benchmark workloads: set-up, one timed pass, and its oracle.

Every command goes through the public ``onhold.cli.cli_main(argv)``
entry point in this process.  Its stdout and stderr are captured, so
per-issue warnings cost what writing to a buffer costs, not a terminal.
``setup(ctx)`` prepares a run and makes one warm-up pass; it returns
the warm-up's result.  ``run_pass(ctx, index)`` numbers the timed
passes of a run; passes with the same index see the same inputs, and
each result names the inputs it ran on.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
from oracle import Verdict
from tracing import Tracer

JIRA = ["--tracker", "jira", "--project", "HADOOP"]


@dataclass
class Context:
    inputs: Path                   # generated inputs, read only
    out: Path                      # outputs of this process
    truth: dict
    tracer: Tracer | None = None
    exit_codes: list[int] = field(default_factory=list)

    def invoke(self, label: str, argv: list[str]) -> tuple[int, float]:
        """Run one CLI command; return its exit code and wall seconds."""
        from onhold.cli import cli_main

        sink = io.StringIO()
        tracer = self.tracer
        start = perf_counter()
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = cli_main(argv)
            else:
                tracer.command = label
                rc = tracer.call(f"cli.{argv[0]}", cli_main, argv)
        seconds = perf_counter() - start
        self.exit_codes.append(rc)
        return rc, seconds


@dataclass
class PassResult:
    seconds: float                 # wall time of the pass's commands
    items_per_s: float             # the workload's own unit of work per second
    stages: dict[str, float]       # seconds per command
    verdict: Verdict
    inputs: str                    # which inputs the pass ran on


def _clear(*paths: Path) -> None:
    for path in paths:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


class MineHistory:
    """`onhold mine` over a generated first-parent git history."""

    name = "mine-history"
    rate = ("mine_commits_per_s", "commits/s")

    def setup(self, ctx: Context) -> PassResult:
        return self.run_pass(ctx, 0)

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        out = ctx.out / "lifecycles.tsv"
        _clear(out)
        _, seconds = ctx.invoke(
            "mine", ["mine", "--repo", str(ctx.inputs / "repo"), *JIRA, "--out", str(out)]
        )
        commits = len(ctx.truth["commits"])
        return PassResult(
            seconds, commits / seconds, {"mine_s": seconds}, oracle.check_mined(out, ctx.truth),
            "repo",
        )


class TrainTriage:
    """Train a classifier, then triage a lifecycle table with the deployed one.

    A pass runs `train --algorithm auto` on one of the seed's corpora,
    then `classify`, `check` cold, `check` warm and `report` on the
    lifecycle table.  The triage commands use a NaiveBayes model that
    set-up trains once on a fixed corpus, as a deployment ships one:
    `auto` picks another algorithm on some corpora, and each would make
    `classify` cost something else.  The two jobs share one workload so
    that the benchmark's time budget allows long runs on a noisy machine.
    """

    name = "train-triage"
    rate = ("classify_comments_per_s", "comments/s")

    def __init__(self) -> None:
        self.reference: dict[str, bytes] = {}   # first trained output per corpus

    def setup(self, ctx: Context) -> PassResult:
        rc, _ = ctx.invoke("train", [
            "train", "--dataset", str(ctx.inputs / "deployed.tsv"), "--algorithm", "NaiveBayes",
            "--model", str(ctx.out / "deployed-model.json"),
            "--vocab", str(ctx.out / "deployed-vocab.tsv"),
        ])
        if rc != 0:
            raise RuntimeError(f"train-triage set-up: train exited with {rc}")
        # The warm-up corpus is the same for every seed, so set-up time
        # does not depend on which labels the seed flips.
        return self._pass(ctx, "warmup.tsv")

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        return self._pass(ctx, f"corpus-{index % ctx.truth['corpora']}.tsv")

    def _pass(self, ctx: Context, corpus: str) -> PassResult:
        stages = {}
        stages["train_s"], verdict = self._train(ctx, corpus)
        verdict += self._triage(ctx, stages)
        seconds = sum(stages.values())
        return PassResult(seconds, ctx.truth["rows"] / stages["classify_s"], stages, verdict,
                          corpus)

    def _train(self, ctx: Context, corpus: str) -> tuple[float, Verdict]:
        model, vocab = ctx.out / "model.json", ctx.out / "vocab.tsv"
        _clear(model, vocab)
        rc, seconds = ctx.invoke("train", [
            "train", "--dataset", str(ctx.inputs / corpus), "--algorithm", "auto",
            "--model", str(model), "--vocab", str(vocab),
        ])
        verdict = oracle.check_trained(rc, model, vocab, self.reference.get(corpus))
        if corpus not in self.reference and not verdict.failed:
            self.reference[corpus] = model.read_bytes() + vocab.read_bytes()
        return seconds, verdict

    def _triage(self, ctx: Context, stages: dict[str, float]) -> Verdict:
        table = ctx.inputs / "lifecycles.tsv"
        predictions = ctx.out / "predictions.tsv"
        cache = ctx.out / "cache"
        cold, warm = ctx.out / "check-cold.json", ctx.out / "check-warm.json"
        markdown = ctx.out / "report.md"
        _clear(predictions, cache, cold, warm, markdown)
        check = ["check", "--input", str(predictions), "--fixtures", str(ctx.inputs / "fixtures"),
                 "--cache-dir", str(cache), *JIRA, "--out"]
        _, stages["classify_s"] = ctx.invoke("classify", [
            "classify", "--model", str(ctx.out / "deployed-model.json"),
            "--vocab", str(ctx.out / "deployed-vocab.tsv"),
            "--input", str(table), "--out", str(predictions),
        ])
        _, stages["check_cold_s"] = ctx.invoke("check-cold", check + [str(cold)])
        _, stages["check_warm_s"] = ctx.invoke("check-warm", check + [str(warm)])
        _, stages["report_s"] = ctx.invoke("report", [
            "report", "--input", str(warm), "--format", "markdown", "--out", str(markdown),
        ])

        verdict = oracle.check_classified(table, predictions)
        expected = oracle.expected_findings(predictions, ctx.truth["readiness"])
        verdict += oracle.check_report_json(cold, expected)
        verdict += oracle.check_report_json(warm, expected)
        verdict += oracle.check_markdown(markdown, len(expected), sum(expected.values()))
        return verdict


WORKLOADS = {w.name: w for w in (MineHistory, TrainTriage)}
