"""Benchmark of the onhold pipeline: one workload, one run.

    python3 perfbench/run.py --workload mine-history --seed 1 --seconds 50 --trace 0

The run generates the workload's inputs from ``--seed`` in a child
process, imports ``onhold`` from ``src/`` of this checkout, sets up
(import, for ``train-triage`` the deployed model's training, and one
warm-up pass), and then repeats timed passes for ``--seconds``.  Every
pass's outputs are checked against the generator's ground truth.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` and ``failed`` are those of
the worst pass on each set of inputs, summed over the sets.  Everything
is written under ``.perfbench_work/`` (removed at exit) and, for traced
runs, the spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (stdlib only; never imports onhold)
import tracing  # noqa: E402
from oracle import Verdict  # noqa: E402
from workloads import WORKLOADS, Context, PassResult  # noqa: E402

MIN_PASSES = 3          # timed passes per plain run, whatever --seconds says
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_onhold() -> None:
    sys.path.insert(0, str(SRC))
    import onhold.cli  # noqa: F401

    loaded = Path(sys.modules["onhold"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise RuntimeError(f"onhold imported from {loaded}, not from {SRC}")


def _set_up(workload, ctx: Context) -> tuple[float, PassResult]:
    """Import onhold and run the workload's set-up, warm-up pass included."""
    start = perf_counter()
    _import_onhold()
    warm = workload.setup(ctx)
    return perf_counter() - start, warm


def _keep_worst(worst: dict[str, Verdict], result: PassResult) -> None:
    """Keep, per set of inputs, the verdict of the pass that failed most.

    Every pass on the same inputs should get the same verdict, so the
    run's counts depend on its seed, not on how many passes fit in its
    time; a pass that fails more than the others still shows.
    """
    kept = worst.get(result.inputs)
    new = result.verdict
    if kept is None or (new.failed, new.wrong) > (kept.failed, kept.wrong):
        worst[result.inputs] = new


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def _plain_run(workload, ctx: Context, seconds: float,
               worst: dict[str, Verdict]) -> tuple[dict, list[str]]:
    setup, warm = _set_up(workload, ctx)
    _keep_worst(worst, warm)

    passes: list[PassResult] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        result = workload.run_pass(ctx, len(passes))
        _keep_worst(worst, result)
        passes.append(result)

    times = [p.seconds for p in passes]
    values = {
        "setup_s": setup,
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"pass_s (s): {_quartiles(times)}"]
    for stage in passes[0].stages:
        lines.append(f"{stage} (s): {_quartiles([p.stages[stage] for p in passes])}")
    rate, unit = workload.rate
    lines.append(f"{rate}: {statistics.median(p.items_per_s for p in passes):.6g} {unit}")
    return values, lines


def _traced_run(workload, ctx: Context, name: str, seed: int, seconds: float,
                worst: dict[str, Verdict]) -> tuple[dict, list[str]]:
    _, warm = _set_up(workload, ctx)
    _keep_worst(worst, warm)
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    recorded: list[list[tracing.Span]] = []
    start = perf_counter()
    while len(traced) < 2 or len(plain) < 2 or perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            result = workload.run_pass(ctx, len(plain))
            plain.append(result.seconds)
        else:
            tracing.install(tracer)
            ctx.tracer = tracer
            try:
                result = workload.run_pass(ctx, len(traced))
            finally:
                ctx.tracer = None
                tracer.uninstall()
            traced.append(result.seconds)
            spans, counters = tracer.take()
            layers.append(tracing.layer_metrics(spans, counters))
            recorded.append(spans)
        _keep_worst(worst, result)

    values = {
        metric: statistics.median(layer[metric] for layer in layers)
        for metric, _ in tracing.LAYER_METRICS if metric != "trace_overhead_ratio"
    }
    # Passes alternate, so plain pass i and traced pass i run on the same
    # inputs a few seconds apart; the median of their ratios cancels most
    # of the machine's drift between passes.
    values["trace_overhead_ratio"] = statistics.median(
        t / p for p, t in zip(plain, traced)
    )
    spans_file = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl.gz"
    tracing.write_spans(spans_file, recorded)
    lines = [f"plain pass_s: {_quartiles(plain)}", f"traced pass_s: {_quartiles(traced)}",
             f"spans: {sum(map(len, recorded))} written to {spans_file.relative_to(ROOT)}"]
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "onhold" / "cli.py").is_file():
        print(f"perfbench: no onhold sources in {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        (work / "home").mkdir(parents=True)
        os.environ.update(gen.isolated_git_env(work / "home"))
        started = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), args.workload, str(args.seed),
             str(work / "inputs")],
            check=True,
        )
        gen_s = perf_counter() - started
        truth = json.loads((work / "inputs" / "truth.json").read_text(encoding="utf-8"))
        out = work / "out"
        out.mkdir()
        ctx = Context(work / "inputs", out, truth)
        workload = WORKLOADS[args.workload]()
        worst: dict[str, Verdict] = {}
        if args.trace:
            values, lines = _traced_run(workload, ctx, args.workload, args.seed,
                                        args.seconds, worst)
            units = dict(tracing.LAYER_METRICS)
        else:
            values, lines = _plain_run(workload, ctx, args.seconds, worst)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdict = Verdict()
    for kept in worst.values():
        verdict += kept
    correct = verdict.wrong == 0 and not any(ctx.exit_codes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs generated in {gen_s:.2f} s")
    for line in lines + list(dict.fromkeys(verdict.notes))[:5]:
        print(f"  {line}")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"  failed_ratio: {ratio:.6f} share ({verdict.failed}/{verdict.attempted})")
    for metric, value in values.items():
        print(f"  {metric}: {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
