"""The benchmark tracer (secbench/tracing.py) replaces module-level names in
secloc at run time; these tests keep secloc patchable the way it expects."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from secloc import ESTIMATORS, AttackSpec, ExperimentConfig, run_monte_carlo
from secloc import estimators, planefit

COORDINATED = AttackSpec("coordinated", t_att=(75.0, 75.0))

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


def test_l1_estimates_read_their_fits_inside_their_spans(tracing, monkeypatch):
    # run_monte_carlo fits a chunk's planes before its trials run; LN-1 and
    # LN-1E must still call admm_l1_plane inside their own spans, because the
    # benchmark checks that an LN-1/LN-1E non-convergence is exactly a capped
    # ADMM fit among the estimator span's children (a cap of 800 sweeps
    # stops some of them)
    monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 800)
    cfg = ExperimentConfig(
        attack=COORDINATED,
        malicious_fraction=0.28,
        estimators=("ln1", "ln1e"),
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


def test_grad_desc_reads_its_fit_inside_its_span(tracing):
    # run_monte_carlo runs a chunk's Grad-Desc steps in one lock-step batch
    # before its trials; each trial must still call grad_desc_estimate inside
    # its own span, with the config's max_iters=, because the benchmark's
    # grad_desc_iters_p50 and grad_desc_cap_share read that call's span
    cfg = ExperimentConfig(
        attack=COORDINATED,
        malicious_fraction=0.28,
        estimators=("wls", "grad_desc"),
        trials=6,
        master_seed=5,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        run_monte_carlo(cfg)
    spans = tracer.spans
    fits = [span for span in spans if span.name == "estimators.grad_desc"]
    assert sorted(span.trial for span in fits) == list(range(cfg.trials))
    for span in fits:
        trial = spans[span.parent]
        assert trial.name == "harness.trial" and trial.trial == span.trial
        assert trial.start <= span.start <= span.end <= trial.end
        assert type(span.iterations) is int and type(span.converged) is bool
        assert span.max_iters == estimators.GRAD_DESC_MAX_ITERS


@pytest.mark.parametrize(
    "attack, admm_cap",
    [
        (AttackSpec("uncoordinated", sigma_att=8.0), planefit.ADMM_MAX_ITERS),
        # a cap low enough that some LN-1/LN-1E fits stop at it
        (COORDINATED, 800),
    ],
    ids=["uncoordinated", "coordinated"],
)
def test_spans_read_iterations_and_converged(tracing, monkeypatch, attack, admm_cap):
    # the tracer reads a result's iterations and converged with getattr and a
    # None default, so a result type without them would trace as None spans
    # instead of failing; every estimator applicable under the attack runs
    monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", admm_cap)
    names = tuple(name for name, spec in ESTIMATORS.items() if attack.kind in spec.attacks)
    cfg = ExperimentConfig(
        attack=attack, malicious_fraction=0.28, estimators=names, trials=4, master_seed=5
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        run_monte_carlo(cfg)
    checked = {tracing.ESTIMATOR_SPANS[name] for name in names} | {"planefit.admm"}
    seen = Counter()
    for span in tracer.spans:
        if span.name in checked and span.failure is None:
            assert type(span.iterations) is int, (span.name, span.iterations)
            assert type(span.converged) is bool, (span.name, span.converged)
            seen[span.name] += 1
    assert set(seen) == checked
