"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` replaces functions under the names their
callers look them up by.  A refactor that renames or drops one of them
would otherwise only surface when a traced benchmark run fails.
"""

from __future__ import annotations

from pathlib import Path

from onhold import learn
from onhold.ngrams import FeatureVector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        installed = list(tracer._installed)
        for owner, attr, original in installed:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current.__wrapped__ is original, attr
        dataset = learn.make_dataset(
            [FeatureVector((0,)), FeatureVector((1,))],
            [learn.Label.ON_HOLD, learn.Label.CROSS_REFERENCE],
            2,
        )
        model = learn.select_model(dataset, candidate_grid=[("NaiveBayes", {})], inner_k=2)
        learn.predict_proba_batch(model, learn.feature_matrix([FeatureVector((0,))], 2))
    finally:
        tracer.uninstall()

    assert installed
    for owner, attr, original in installed:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, attr
    names = {span.name for span in tracer.spans}
    assert {
        "learn.make_dataset",
        "learn.select_model",
        "learn.train.NaiveBayes",
        "learn.predict_proba_batch",
    } <= names
