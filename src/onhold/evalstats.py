"""Evaluation protocol: k-fold CV, metrics, and nonparametric statistics.

``evaluate_variants`` cross-validates the pipeline ``train`` ships:
each training fold gets its own vocabulary and dataset from
``learn.featurize``, so no test-fold comment shapes the features.

The statistics are implemented from first principles because the exact
behaviours matter for reproducibility: the Mann-Whitney p-value is
computed by exact enumeration (a dynamic program over tie blocks) for
small samples, exactly where 10-fold-per-variant comparisons live, and
AUC is the rank-based estimator tied to the same U statistic.
"""

from __future__ import annotations

import itertools
import math
import statistics
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from . import datasetio, learn, ngrams
from .datasetio import VARIANT_PLANS, VARIANTS, Label
from .learn import Dataset
from .errors import DataFormatError

T = TypeVar("T")

PERCENTILES = (0, 10, 25, 50, 75, 90, 100)

# |d| below each bound is negligible, small, medium; at or above the last, large.
DELTA_THRESHOLDS = (0.10, 0.33, 0.474)


class DegenerateMetricWarning(UserWarning):
    """A metric denominator was zero and the value was reported as 0."""


@dataclass(frozen=True)
class FoldScores:
    variant: str
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    auc: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = {len(self.precision), len(self.recall), len(self.f1), len(self.auc)}
        if len(lengths) != 1:
            raise ValueError("per-fold metric lists differ in length")
        for series in (self.precision, self.recall, self.f1, self.auc):
            if any(not 0.0 <= v <= 1.0 for v in series):
                raise ValueError("metric outside [0, 1]")

    @property
    def k(self) -> int:
        return len(self.precision)

    def series(self, metric: str) -> tuple[float, ...]:
        try:
            return getattr(self, metric)
        except AttributeError:
            raise ValueError(f"unknown metric {metric!r}") from None

    def mean(self, metric: str) -> float:
        values = self.series(metric)
        return sum(values) / len(values)


@dataclass(frozen=True)
class ComparisonResult:
    pair: str
    metric: str
    p_value: float
    adjusted_p: float
    cliffs_delta: float
    magnitude: str

    def __post_init__(self) -> None:
        if self.adjusted_p + 1e-12 < self.p_value:
            raise ValueError("adjusted p below raw p")
        if not -1.0 <= self.cliffs_delta <= 1.0:
            raise ValueError("cliffs delta outside [-1, 1]")


def kfold_split(rows: Sequence[T], k: int = 10, seed: int = 0) -> list[list[T]]:
    """Shuffle with the seed and partition into k folds differing by <= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(rows):
        raise ValueError(f"k={k} exceeds dataset size {len(rows)}")
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(len(rows))
    base, extra = divmod(len(rows), k)
    folds: list[list[T]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append([rows[j] for j in order[start:start + size]])
        start += size
    return folds


def compute_metrics(
    predicted: Sequence[Label], truth: Sequence[Label]
) -> tuple[float, float, float]:
    """(precision, recall, f1) with OnHold as the positive class."""
    if len(predicted) != len(truth):
        raise DataFormatError(
            f"predicted {len(predicted)} labels for {len(truth)} rows"
        )
    tp = sum(1 for p, t in zip(predicted, truth)
             if p is Label.ON_HOLD and t is Label.ON_HOLD)
    fp = sum(1 for p, t in zip(predicted, truth)
             if p is Label.ON_HOLD and t is not Label.ON_HOLD)
    fn = sum(1 for p, t in zip(predicted, truth)
             if p is not Label.ON_HOLD and t is Label.ON_HOLD)
    if tp + fp == 0:
        warnings.warn("no positive predictions; precision reported as 0",
                      DegenerateMetricWarning, stacklevel=2)
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        warnings.warn("no positive rows; recall reported as 0",
                      DegenerateMetricWarning, stacklevel=2)
        recall = 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision * recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _tie_blocks(values: Sequence[float]) -> list[list[int]]:
    """Positions of the values, sorted by value and grouped into runs of equal values."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    return [list(block) for _, block in itertools.groupby(order, key=lambda i: values[i])]


def _doubled_midranks(values: Sequence[float]) -> list[int]:
    """Twice each value's 1-based rank; tied values share their mean rank."""
    ranks = [0] * len(values)
    below = 0
    for block in _tie_blocks(values):
        # Twice the mean of ranks below+1 .. below+len(block).
        for i in block:
            ranks[i] = 2 * below + len(block) + 1
        below += len(block)
    return ranks


def compute_auc(scores: Sequence[float], truth: Sequence[Label]) -> float:
    """Rank-based AUC: P(score of a positive > score of a negative)."""
    if len(scores) != len(truth):
        raise DataFormatError("scores and labels differ in length")
    positives = [s for s, t in zip(scores, truth) if t is Label.ON_HOLD]
    negatives = [s for s, t in zip(scores, truth) if t is not Label.ON_HOLD]
    if not positives or not negatives:
        raise ValueError("AUC needs both classes present")
    return _double_u(positives, negatives) / (2 * len(positives) * len(negatives))


def _double_u(xs: Sequence[float], ys: Sequence[float]) -> int:
    """2U of xs over ys, exact in integers (ties contribute 1 per pair).

    2U = 2 * (rank sum of xs among the pooled values) - n(n + 1).
    """
    n = len(xs)
    return sum(_doubled_midranks(list(xs) + list(ys))[:n]) - n * (n + 1)


def _exact_two_sided_p(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exact two-sided p for Mann-Whitney under the permutation null.

    Dynamic program over the tie structure: pooled values are grouped
    into blocks of equal magnitude, and each way of assigning x slots
    within a block contributes a known increment to 2U.
    """
    n, m = len(xs), len(ys)
    blocks = [len(block) for block in _tie_blocks(list(xs) + list(ys))]

    # state: (x slots used so far, accumulated 2U) -> assignment count.
    # Elements processed so far total a known amount, so the number of
    # earlier y elements is (processed - used) and 2U updates exactly.
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    processed = 0
    for count in blocks:
        nxt: dict[tuple[int, int], int] = {}
        for (used, du), ways in table.items():
            earlier_y = processed - used
            for take in range(0, min(count, n - used) + 1):
                y_here = count - take
                step = take * (2 * earlier_y + y_here)
                key = (used + take, du + step)
                nxt[key] = nxt.get(key, 0) + ways * math.comb(count, take)
        table = nxt
        processed += count

    observed = _double_u(xs, ys)
    center = n * m  # mean of 2U
    threshold = abs(observed - center)
    favourable = sum(
        ways for (used, du), ways in table.items()
        if used == n and abs(du - center) >= threshold
    )
    return favourable / math.comb(n + m, n)


def mann_whitney(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """U statistic of xs and the two-sided p-value.

    Exact enumeration (tie-aware) when n + m <= 20, else the normal
    approximation with tie correction and continuity correction.
    """
    if not xs or not ys:
        raise ValueError("mann_whitney needs two non-empty samples")
    n, m = len(xs), len(ys)
    u = _double_u(xs, ys) / 2.0
    if n + m <= 20:
        return u, _exact_two_sided_p(xs, ys)

    big_n = n + m
    tie_term = sum(len(b) ** 3 - len(b) for b in _tie_blocks(list(xs) + list(ys)))
    variance = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if variance <= 0.0:
        return u, 1.0
    mean = n * m / 2.0
    diff = u - mean
    # continuity correction shrinks the difference toward zero
    adjusted = max(abs(diff) - 0.5, 0.0)
    z = adjusted / math.sqrt(variance)
    p = math.erfc(z / math.sqrt(2.0))
    return u, min(p, 1.0)


def holm_correct(pvalues: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, returned in the original order."""
    if any(not 0.0 <= p <= 1.0 for p in pvalues):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        value = min(1.0, pvalues[idx] * (m - rank))
        running = max(running, value)
        adjusted[idx] = running
    return adjusted


def cliffs_delta(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, str]:
    """Cliff's d over all pairs and its conventional magnitude bucket."""
    if not xs or not ys:
        raise ValueError("cliffs_delta needs two non-empty samples")
    # greater - lesser pairs = 2U - nm, since ties count once in 2U.
    pairs = len(xs) * len(ys)
    d = (_double_u(xs, ys) - pairs) / pairs
    small, medium, large = DELTA_THRESHOLDS
    size = abs(d)
    if size < small:
        magnitude = "negligible"
    elif size < medium:
        magnitude = "small"
    elif size < large:
        magnitude = "medium"
    else:
        magnitude = "large"
    return d, magnitude


def cohens_kappa(labels_a: Sequence[Any], labels_b: Sequence[Any]) -> float:
    """Agreement beyond chance between two labelings of the same items."""
    if len(labels_a) != len(labels_b):
        raise DataFormatError("labelings differ in length")
    if not labels_a:
        raise ValueError("empty labelings")
    n = len(labels_a)
    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    categories = sorted(set(labels_a) | set(labels_b), key=repr)
    expected = 0.0
    for category in categories:
        pa = sum(1 for a in labels_a if a == category) / n
        pb = sum(1 for b in labels_b if b == category) / n
        expected += pa * pb
    if math.isclose(expected, 1.0):
        if observed == 1.0:
            return 1.0
        raise ValueError("kappa undefined: expected agreement is 1 with disagreements")
    return (observed - expected) / (1.0 - expected)


# --------------------------------------------------------------------------
# lifecycle analytics

def _utc_date(moment: datetime):
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc).date()


def lifespan_days(introduced: datetime, removed: datetime) -> int:
    """Whole days between the UTC calendar dates of the two moments."""
    return (_utc_date(removed) - _utc_date(introduced)).days


@dataclass(frozen=True)
class LifespanSummary:
    count: int
    median: float
    mean: float
    percentiles: tuple[tuple[int, float], ...]


def _summarize(spans: Sequence[float]) -> LifespanSummary:
    qs = tuple(
        (p, float(np.percentile(spans, p, method="linear"))) for p in PERCENTILES
    )
    return LifespanSummary(
        count=len(spans),
        median=float(statistics.median(spans)),
        mean=float(statistics.fmean(spans)),
        percentiles=qs,
    )


def lifespan_stats(
    records: Iterable[tuple[Label, datetime, datetime]]
) -> dict[Label, LifespanSummary]:
    """Per-class life spans of removed comments (removal - introduction).

    Each record is (label, introduced timestamp, removed timestamp).
    """
    spans: dict[Label, list[int]] = {}
    for label, introduced, removed in records:
        spans.setdefault(label, []).append(lifespan_days(introduced, removed))
    return {label: _summarize(values) for label, values in spans.items()}


@dataclass(frozen=True)
class ResolutionDelaySummary:
    removed_after: int
    removed_before: int
    open_or_wontfix: int
    delays_days: tuple[int, ...]
    same_day_fraction: float
    over_one_year_fraction: float
    median_delay: float | None

    @property
    def total(self) -> int:
        return self.removed_after + self.removed_before + self.open_or_wontfix


def resolution_delay_stats(
    removals: Iterable[tuple[datetime, datetime | None]]
) -> ResolutionDelaySummary:
    """How removal of an on-hold comment relates to its issue's resolution.

    Each item is (comment removal timestamp, issue resolution timestamp
    or None when the issue never reached a fixed resolution).  A removal
    on the resolution's calendar day counts as removed-after, same-day.
    """
    after_delays: list[int] = []
    removed_before = 0
    open_or_wontfix = 0
    for removed_at, resolved_at in removals:
        if resolved_at is None:
            open_or_wontfix += 1
            continue
        delay = (_utc_date(removed_at) - _utc_date(resolved_at)).days
        if delay >= 0:
            after_delays.append(delay)
        else:
            removed_before += 1
    count_after = len(after_delays)
    same_day = sum(1 for d in after_delays if d == 0)
    over_year = sum(1 for d in after_delays if d > 365)
    return ResolutionDelaySummary(
        removed_after=count_after,
        removed_before=removed_before,
        open_or_wontfix=open_or_wontfix,
        delays_days=tuple(sorted(after_delays)),
        same_day_fraction=same_day / count_after if count_after else 0.0,
        over_one_year_fraction=over_year / count_after if count_after else 0.0,
        median_delay=float(statistics.median(after_delays)) if after_delays else None,
    )


# --------------------------------------------------------------------------
# variant evaluation

_METRICS = ("precision", "recall", "f1", "auc")


def score_model(
    model: learn.TrainedModel, held_out: Dataset
) -> tuple[float, float, float, float]:
    """Precision, recall, F1 and AUC on held-out rows.

    A test fold with one class gets the neutral AUC 0.5.
    """
    scores = learn.predict_proba_batch(model, held_out.x)
    truth = [Label.ON_HOLD if on_hold else Label.CROSS_REFERENCE for on_hold in held_out.y]
    precision, recall, f1 = compute_metrics([model.label(s) for s in scores], truth)
    auc = compute_auc(list(scores), truth) if len(set(truth)) == 2 else 0.5
    return precision, recall, f1, auc


def evaluate_variants(
    comments: Sequence[Sequence[str]],
    labels: Sequence[Label],
    variants: Sequence[str] = ("ngram-auto",),
    k: int = 10,
    seed: int = 0,
) -> dict[str, FoldScores]:
    """k-fold evaluation of classification variants on tokenized comments.

    Each training fold is featurized by ``learn.featurize``, as ``train``
    featurizes the whole dataset, and its test fold is featurized in
    that fold's vocabulary.  A test fold with one class contributes a
    neutral AUC of 0.5.
    """
    if len(comments) != len(labels):
        raise DataFormatError("comments and labels differ in length")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    # One fold would leave no row to train on.
    if k < 2:
        raise ValueError(f"evaluation needs k >= 2 folds, got k={k}")

    indices = list(range(len(comments)))
    folds = kfold_split(indices, k=k, seed=seed)
    collected: dict[str, dict[str, list[float]]] = {
        v: {metric: [] for metric in _METRICS} for v in variants
    }
    for fold in folds:
        held = set(fold)
        train_idx = [i for i in indices if i not in held]
        # Each feature space is built once per fold and shared by every
        # variant that trains on it.
        prepared: dict[bool, tuple[Dataset, Dataset]] = {}
        for variant in variants:
            bow, smote, algorithm = VARIANT_PLANS[variant]
            if bow not in prepared:
                vocab, train_ds = learn.featurize(
                    [comments[i] for i in train_idx], [labels[i] for i in train_idx], bow=bow
                )
                test_ds = learn.make_dataset(
                    ngrams.term_matrix([comments[i] for i in fold], vocab),
                    [labels[i] for i in fold], len(vocab),
                )
                prepared[bow] = train_ds, test_ds
            train_ds, test_ds = prepared[bow]
            model = learn.fit(train_ds, algorithm, smote=smote, seed=seed)
            scores = score_model(model, test_ds)
            for metric, value in zip(_METRICS, scores):
                collected[variant][metric].append(value)

    return {
        variant: FoldScores(variant, *(tuple(values[metric]) for metric in _METRICS))
        for variant, values in collected.items()
    }


def compare_folds(a: FoldScores, b: FoldScores) -> list[ComparisonResult]:
    """Unpaired Mann-Whitney per metric with Holm correction across them."""
    raw = []
    deltas = []
    for metric in _METRICS:
        xs, ys = a.series(metric), b.series(metric)
        _, p = mann_whitney(xs, ys)
        d, magnitude = cliffs_delta(xs, ys)
        raw.append(p)
        deltas.append((d, magnitude))
    adjusted = holm_correct(raw)
    pair = f"{a.variant} vs {b.variant}"
    return [
        ComparisonResult(pair, metric, raw[i], adjusted[i], deltas[i][0], deltas[i][1])
        for i, metric in enumerate(_METRICS)
    ]


def results_tsv(results: Mapping[str, FoldScores]) -> str:
    return datasetio.format_table(
        ("variant", "fold", *_METRICS),
        (
            [variant, str(fold), *(repr(scores.series(metric)[fold]) for metric in _METRICS)]
            for variant, scores in results.items()
            for fold in range(scores.k)
        ),
    )


def comparisons_tsv(comparisons: Sequence[ComparisonResult]) -> str:
    return datasetio.format_table(
        ("pair", "metric", "p", "adjusted_p", "cliffs_delta", "magnitude"),
        (
            [c.pair, c.metric, repr(c.p_value), repr(c.adjusted_p), repr(c.cliffs_delta),
             c.magnitude]
            for c in comparisons
        ),
    )
