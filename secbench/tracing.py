"""Per-layer trace of the secloc CLI, recorded from outside the package.

``Tracer.installed()`` replaces the functions that ``secloc.cli``,
``secloc.harness``, ``secloc.crlb`` and ``secloc.planefit`` look up at call
time with timing wrappers, and restores them on exit.  Each call becomes a
``Span`` kept in memory: name, start, end, parent span, trial index, and what
the call returned (iterations, converged) or the ``SecLocError`` it raised.
The wrappers pass arguments and results through untouched, so a traced run
draws the same random numbers and writes the same CSV as an untraced one.

``layer_metrics`` turns the spans into the per-layer figures.  A span's self
time is its duration minus the durations of its child spans; calls nest
strictly because the harness runs single-threaded (SECLOC_THREADS=1).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

import numpy as np

from secloc.exceptions import SecLocError

# (module under secloc, attribute, span name).  The attribute is the binding
# the caller resolves at call time: harness imported the layer functions by
# name, so they are patched in secloc.harness, not where they are defined.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "config.load"),
    ("cli", "summary_rows", "harness.csv"),
    ("cli", "emit_csv", "harness.csv"),
    ("harness", "run_trial", "harness.trial"),
    ("harness", "summarize", "harness.summarize"),
    ("harness", "random_topology", "attacks.topology"),
    ("harness", "load_topology", "attacks.topology"),
    ("harness", "select_malicious", "attacks.malicious"),
    ("harness", "simulate_measurements", "attacks.simulate"),
    ("harness", "distance_from_rssi", "channel.invert"),
    ("harness", "build_linear_system", "estimators.system"),
    ("harness", "ls_estimate", "estimators.ls"),
    ("harness", "wls_estimate", "estimators.wls"),
    ("harness", "swls_estimate", "estimators.swls"),
    ("harness", "ml_estimate", "estimators.ml"),
    ("harness", "lmds_estimate", "estimators.lmds"),
    ("harness", "grad_desc_estimate", "estimators.grad_desc"),
    ("harness", "ln1_estimate", "planefit.ln1"),
    ("harness", "ln1e_estimate", "planefit.ln1e"),
    ("planefit", "admm_l1_plane", "planefit.admm"),
    ("planefit", "kmeans_1d", "planefit.kmeans"),
    ("crlb", "fim_uncoordinated", "crlb.fim"),
    ("crlb", "fim_coordinated", "crlb.fim"),
    ("crlb", "crlb_bound", "crlb.bound"),
)

# Estimator name (as in the CSV) -> span of the call that produces its outcome.
ESTIMATOR_SPANS = {
    "ls": "estimators.ls",
    "wls": "estimators.wls",
    "swls": "estimators.swls",
    "ml": "estimators.ml",
    "lmds": "estimators.lmds",
    "grad_desc": "estimators.grad_desc",
    "ln1": "planefit.ln1",
    "ln1e": "planefit.ln1e",
}

# Outcome failure types reported one metric each; anything else is "other".
FAILURE_TYPES = (
    "non-convergence",
    "InsufficientSurvivorsError",
    "InsufficientAnchorsError",
    "DegenerateGeometryError",
    "DomainError",
    "ConfigError",
)

# Self time per trial, in ms, for every span except these two.
_SELF_MS_NAMES = {"harness.trial": "harness.trial_self_ms", "cli.main": "cli.self_ms"}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    trial: int | None
    end: float = float("nan")
    iterations: int | None = None
    converged: bool | None = None
    max_iters: int | None = None  # the call's max_iters keyword, if given
    failure: str | None = None  # SecLocError subclass the call raised
    rssi_bytes: int | None = None  # size of a returned measurement matrix

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "harness.trial":
                trial = args[1] if len(args) > 1 else kwargs["trial_index"]
            else:
                trial = spans[parent].trial if stack else None
            span = Span(name, 0.0, parent, trial, max_iters=kwargs.get("max_iters"))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SecLocError as exc:
                span.failure = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.iterations = getattr(result, "iterations", None)
            span.converged = getattr(result, "converged", None)
            rssi = getattr(result, "rssi", None)
            span.rssi_bytes = None if rssi is None else rssi.nbytes
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(f"secloc.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def outcome_failure(span: Span) -> str | None:
    """The harness's failure label for an estimator call, None when ok."""
    if span.failure is not None:
        return span.failure
    return None if span.converged else "non-convergence"


def failure_breakdown(spans: list[Span]) -> dict:
    """{estimator: {failure type: count}} over the estimator calls traced."""
    by_span = {span_name: est for est, span_name in ESTIMATOR_SPANS.items()}
    out: dict = {}
    for span in spans:
        est = by_span.get(span.name)
        failure = outcome_failure(span) if est else None
        if failure is not None:
            counts = out.setdefault(est, {})
            counts[failure] = counts.get(failure, 0) + 1
    return out


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures as {name: (value, unit)}.

    ``_ms`` figures are self time per traced trial, except ``config.load_ms``,
    which is per config load.  Counts ending in ``/trial`` are per trial too.
    """
    trials = sum(1 for s in spans if s.name == "harness.trial")
    if trials == 0:
        raise ValueError("no trial was traced")
    own = self_times(spans)
    totals: dict = {}
    for span, t in zip(spans, own):
        totals[span.name] = totals.get(span.name, 0.0) + t
    loads = sum(1 for s in spans if s.name == "config.load")
    metrics = {"config.load_ms": (1e3 * totals.pop("config.load", 0.0) / max(loads, 1), "ms")}
    span_names = {name for _, _, name in TARGETS} - {"config.load"}
    for name in sorted(span_names):
        metric = _SELF_MS_NAMES.get(name, f"{name}_ms")
        metrics[metric] = (1e3 * totals.get(name, 0.0) / trials, "ms")

    def of(name):
        return [s for s in spans if s.name == name and s.failure is None]

    admm = of("planefit.admm")
    admm_iters = [s.iterations for s in admm]
    ml_iters = [s.iterations for s in of("estimators.ml")]
    gd = of("estimators.grad_desc")
    gd_iters = [s.iterations for s in gd]
    metrics.update(
        {
            "attacks.rssi_bytes": (
                sum(s.rssi_bytes for s in of("attacks.simulate")) / trials, "bytes/trial"
            ),
            "planefit.admm_calls": (len(admm) / trials, "calls/trial"),
            "planefit.admm_iters_total": (sum(admm_iters) / trials, "iters/trial"),
            "planefit.admm_iters_p50": (_percentile(admm_iters, 50), "iters"),
            "planefit.admm_iters_p99": (_percentile(admm_iters, 99), "iters"),
            "planefit.admm_cap_share": (
                sum(not s.converged for s in admm) / len(admm) if admm else 0.0,
                "ratio",
            ),
            "estimators.ml_iters_p50": (_percentile(ml_iters, 50), "iters"),
            "estimators.ml_iters_p99": (_percentile(ml_iters, 99), "iters"),
            "estimators.grad_desc_iters_p50": (_percentile(gd_iters, 50), "iters"),
            "estimators.grad_desc_cap_share": (
                sum(s.iterations >= s.max_iters for s in gd) / len(gd) if gd else 0.0,
                "ratio",
            ),
            "crlb.singular_count": (
                sum(1 for s in spans if s.name.startswith("crlb.") and s.failure), "count"
            ),
        }
    )
    breakdown = failure_breakdown(spans)
    outcomes = sum(1 for s in spans if s.name in ESTIMATOR_SPANS.values())
    failed = sum(sum(counts.values()) for counts in breakdown.values())
    metrics["harness.estimator_fail_rate"] = (failed / outcomes if outcomes else 0.0, "ratio")
    by_type = {kind: 0 for kind in (*FAILURE_TYPES, "other")}
    for counts in breakdown.values():
        for kind, n in counts.items():
            by_type[kind if kind in by_type else "other"] += n
    for kind, n in by_type.items():
        metrics[f"harness.fail.{kind}"] = (n, "count")
    for est in ESTIMATOR_SPANS:
        metrics[f"harness.fail_by.{est}"] = (sum(breakdown.get(est, {}).values()), "count")
    return metrics
