"""The benchmark tracer (secbench/tracing.py) replaces module-level names in
secloc at run time; these tests keep secloc patchable the way it expects."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from secloc import ExperimentConfig, run_monte_carlo

SECBENCH = Path(__file__).resolve().parent.parent / "secbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(SECBENCH))
    return importlib.import_module("tracing")


def test_every_target_exists(tracing):
    for module, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(f"secloc.{module}"), attr), (module, attr)


def test_one_span_per_trial_and_estimator(tracing):
    names = tuple(tracing.ESTIMATOR_SPANS)
    cfg = ExperimentConfig(estimators=names, trials=2, n_anchors=12, master_seed=5)
    tracer = tracing.Tracer()
    with tracer.installed():
        run_monte_carlo(cfg)
    by_span = {span: name for name, span in tracing.ESTIMATOR_SPANS.items()}
    seen = Counter(
        (s.trial, by_span[s.name]) for s in tracer.spans if s.name in by_span
    )
    assert seen == Counter({(trial, name): 1 for trial in (0, 1) for name in names})
