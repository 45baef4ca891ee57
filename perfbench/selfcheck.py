"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks that the generators are deterministic in their seed, that a
planted defect in each kind of output raises the failure count the
oracle reports, and that BENCHMARK.json lists exactly the metrics
run.py prints.  Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

RESULTS: list[bool] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"selfcheck {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def cli(*argv: str) -> int:
    from onhold.cli import cli_main

    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return cli_main(list(argv))


def tree_files(root: Path) -> list[Path]:
    """Generated files, leaving out git's own bookkeeping (the commit
    ids in truth.json pin the history's content)."""
    return sorted(
        p.relative_to(root) for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).parts[0] not in ("repo", "home")
    )


def same_tree(a: Path, b: Path) -> bool:
    files = tree_files(a)
    if files != tree_files(b):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(f) for f in files], shallow=False)
    return not mismatch and not errors


def check_determinism(work: Path) -> None:
    for name in gen.SHAPES:
        a, b, c = work / f"{name}-a", work / f"{name}-b", work / f"{name}-c"
        gen.generate(name, 7, a)
        gen.generate(name, 7, b)
        gen.generate(name, 8, c)
        report(f"{name} same seed gives identical inputs", same_tree(a, b))
        report(f"{name} other seed gives other inputs", not same_tree(a, c))
    # The history's shape does not vary with the seed, so neither do the
    # lifecycle count and the share the seed code cannot mine.
    counts = []
    for inputs in (work / "mine-history-a", work / "mine-history-c"):
        lifecycles = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))["lifecycles"]
        counts.append((len(lifecycles), sum(1 for path, *_ in lifecycles if not path.isascii())))
    report("mine-history lifecycle counts do not depend on the seed", counts[0] == counts[1],
           f"({counts})")


def check_planted_mine(work: Path) -> None:
    inputs = work / "mine-history-a"
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    out = work / "mined.tsv"
    cli("mine", "--repo", str(inputs / "repo"), "--tracker", "jira", "--project", "HADOOP",
        "--out", str(out))
    base = oracle.check_mined(out, truth)
    non_ascii = sum(1 for path, *_ in truth["lifecycles"] if not path.isascii())
    report("mine failures equal the non-ASCII lifecycles", base.failed == non_ascii and not base.wrong,
           f"({base.failed} failed, {non_ascii} non-ASCII of {len(truth['lifecycles'])})")

    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split("\t")
    removed_at = header.index("removed_commit")
    dropped = work / "dropped.tsv"
    dropped.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    verdict = oracle.check_mined(dropped, truth)
    report("a dropped lifecycle row counts as failed", verdict.failed == base.failed + 1)

    fields = lines[1].rstrip("\n").split("\t")
    fields[removed_at] = "0" * 40
    altered = work / "altered.tsv"
    altered.write_text("".join(lines[:1] + ["\t".join(fields) + "\n"] + lines[2:]), encoding="utf-8")
    verdict = oracle.check_mined(altered, truth)
    report("a wrong removal commit counts as failed and wrong",
           verdict.failed == base.failed + 1 and verdict.wrong == 1)


def check_planted_triage(work: Path) -> None:
    inputs = work / "train-triage-a"
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    model, vocab = work / "model.json", work / "vocab.tsv"
    predictions, checked = work / "predictions.tsv", work / "check.json"
    cli("train", "--dataset", str(inputs / "deployed.tsv"), "--algorithm", "NaiveBayes",
        "--model", str(model), "--vocab", str(vocab))
    cli("classify", "--model", str(model), "--vocab", str(vocab),
        "--input", str(inputs / "lifecycles.tsv"), "--out", str(predictions))
    cli("check", "--input", str(predictions), "--fixtures", str(inputs / "fixtures"),
        "--cache-dir", str(work / "cache"), "--tracker", "jira", "--project", "HADOOP",
        "--out", str(checked))
    classified = oracle.check_classified(inputs / "lifecycles.tsv", predictions)
    expected = oracle.expected_findings(predictions, truth["readiness"])
    base = oracle.check_report_json(checked, expected)
    report("triage passes its oracle", not classified.failed and not base.failed and bool(expected),
           f"({len(expected)} findings)")

    payload = json.loads(checked.read_text(encoding="utf-8"))
    payload["findings"][0]["ready"] = not payload["findings"][0]["ready"]
    flipped = work / "flipped.json"
    flipped.write_text(json.dumps(payload), encoding="utf-8")
    verdict = oracle.check_report_json(flipped, expected)
    report("a flipped ready flag counts as failed", verdict.failed == 1 and verdict.wrong == 1)

    lines = predictions.read_text(encoding="utf-8").splitlines(keepends=True)
    short = work / "short.tsv"
    short.write_text("".join(lines[:-1]), encoding="utf-8")
    verdict = oracle.check_classified(inputs / "lifecycles.tsv", short)
    report("a missing prediction counts as failed", verdict.failed == 1)


def check_planted_train(work: Path) -> None:
    inputs = work / "train-triage-a"
    model, vocab = work / "auto-model.json", work / "auto-vocab.tsv"
    rc = cli("train", "--dataset", str(inputs / "corpus-0.tsv"), "--algorithm", "auto",
             "--model", str(model), "--vocab", str(vocab))
    reference = model.read_bytes() + vocab.read_bytes()
    report("train passes its oracle", not oracle.check_trained(rc, model, vocab, reference).failed)
    vocab.write_text(vocab.read_text(encoding="utf-8").replace("\t", " ", 1), encoding="utf-8")
    report("a corrupt vocabulary counts as failed",
           oracle.check_trained(rc, model, vocab, reference).failed == 1)


def check_declared_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    report("BENCHMARK.json end_to_end matches run.py", end_to_end == list(run.END_TO_END))
    report("BENCHMARK.json per_layer matches tracing.py", per_layer == list(tracing.LAYER_METRICS))
    report("BENCHMARK.json workloads match run.py",
           sorted(w["name"] for w in declared["workloads"]) == sorted(gen.SHAPES))


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.environ.update(gen.isolated_git_env(work / "home"))
        check_determinism(work)
        check_planted_mine(work)
        check_planted_triage(work)
        check_planted_train(work)
        check_declared_metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
