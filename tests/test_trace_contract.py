"""The benchmark tracer (secbench/tracing.py) replaces module-level names in
secloc at run time; these tests keep secloc patchable the way it expects."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from secloc import ESTIMATORS, AdmmParams, ExperimentConfig, run_monte_carlo

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


def test_l1_estimates_read_their_fits_inside_their_spans(tracing):
    # run_monte_carlo fits a chunk's planes before its trials run; LN-1 and
    # LN-1E must still call admm_l1_plane inside their own spans, because the
    # benchmark checks that an LN-1/LN-1E non-convergence is exactly a capped
    # ADMM fit among the estimator span's children
    cfg = ExperimentConfig(
        attack_kind="coordinated",
        t_att=(75.0, 75.0),
        malicious_fraction=0.28,
        estimators=("ln1", "ln1e"),
        admm=AdmmParams(max_iters=800),
        trials=6,
        master_seed=5,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        run_monte_carlo(cfg)
    fits = {}
    for span in tracer.spans:
        if span.name == "planefit.admm":
            fits.setdefault(span.parent, []).append(span)
    l1_spans = {tracing.ESTIMATOR_SPANS[name] for name in cfg.estimators}
    estimates = [(i, s) for i, s in enumerate(tracer.spans) if s.name in l1_spans]
    assert len(estimates) == len(cfg.estimators) * cfg.trials
    capped = 0
    for i, span in estimates:
        assert span.failure is None
        children = fits.get(i, [])
        assert any(fit.converged == span.converged for fit in children)
        assert (not span.converged) == any(not fit.converged for fit in children)
        capped += not span.converged
    assert 0 < capped < len(estimates)


@pytest.mark.parametrize(
    "attack",
    [
        dict(attack_kind="uncoordinated", sigma_att=8.0),
        # a cap low enough that some LN-1/LN-1E fits stop at it
        dict(
            attack_kind="coordinated", t_att=(75.0, 75.0), admm=AdmmParams(max_iters=800)
        ),
    ],
    ids=["uncoordinated", "coordinated"],
)
def test_spans_read_iterations_and_converged(tracing, attack):
    # the tracer reads a result's iterations and converged with getattr and a
    # None default, so a result type without them would trace as None spans
    # instead of failing; every estimator applicable under the attack runs
    kind = attack["attack_kind"]
    estimators = tuple(name for name, spec in ESTIMATORS.items() if kind in spec.attacks)
    cfg = ExperimentConfig(
        **attack, malicious_fraction=0.28, estimators=estimators, trials=4, master_seed=5
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        run_monte_carlo(cfg)
    checked = {tracing.ESTIMATOR_SPANS[name] for name in estimators} | {"planefit.admm"}
    seen = Counter()
    for span in tracer.spans:
        if span.name in checked and span.failure is None:
            assert type(span.iterations) is int, (span.name, span.iterations)
            assert type(span.converged) is bool, (span.name, span.converged)
            seen[span.name] += 1
    assert set(seen) == checked
