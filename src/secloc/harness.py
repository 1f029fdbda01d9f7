"""Monte-Carlo engine: trials, aggregation, sweeps, and CSV output.

Every trial derives its own random streams from (master_seed, trial index),
so results are bit-identical regardless of execution order.  Within a trial
all enabled estimators see the same measurement matrix, making the comparison
paired.  Estimator failures (eliminations leaving too few anchors,
non-convergence) are counted per estimator and never abort a trial.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import crlb as crlb_mod
from .attacks import (
    ATTACK_KINDS,
    MeasurementMatrix,
    Topology,
    load_topology,
    random_topology,
    select_malicious,
    simulate_measurements,
)
from .channel import PathLossParams, distance_from_rssi
from .config import ExperimentConfig, apply_axis
from .estimators import (
    Estimate,
    LinearSystem,
    build_linear_system,
    grad_desc_estimate,
    lmds_estimate,
    ls_estimate,
    ml_estimate,
    swls_estimate,
    wls_estimate,
)
from .exceptions import SecLocError
from .planefit import ln1_estimate, ln1e_estimate

CSV_HEADER = (
    "axis_value",
    "estimator",
    "rmse_m",
    "crlb_m",
    "trials_ok",
    "trials_failed",
    "mean_tp",
    "mean_fp",
)

# spawn_key namespaces: (0, trial, k) for per-trial streams, (1,) for the
# fixed topology shared by all trials.
_STREAM_TOPOLOGY = 0
_STREAM_MALICIOUS = 1
_STREAM_NOISE = 2
_STREAM_LMDS = 3


@dataclass(frozen=True)
class EstimatorOutcome:
    """One estimator's result on one trial."""

    error: float | None
    converged: bool
    n_eliminated: int
    tp: int
    fp: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.converged


@dataclass(frozen=True)
class TrialResult:
    index: int
    n_malicious: int
    n_anchors: int
    crlb: float | None
    outcomes: dict


@dataclass(frozen=True)
class EstimatorSummary:
    rmse: float | None
    trials_ok: int
    trials_failed: int
    mean_tp: float
    mean_fp: float
    recall: float | None
    false_rate: float | None


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    crlb: float | None
    per_estimator: dict


def _trial_rng(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(0, trial_index, stream))
    )


def base_topology(config: ExperimentConfig) -> Topology:
    """The topology shared by all trials (ignoring per-trial regeneration)."""
    if config.topology_file is not None:
        return load_topology(config.topology_file)
    seed = np.random.SeedSequence(config.master_seed, spawn_key=(1,))
    return random_topology(config.n_anchors, config.area, target=config.target, seed=seed)


def trial_topology(config: ExperimentConfig, trial_index: int, base: Topology) -> Topology:
    """The labelled topology of one trial: ``base`` (or a fresh layout when
    topologies are drawn per trial) with this trial's malicious anchors."""
    topology = base
    if config.topology_per_trial:
        topology = random_topology(
            config.n_anchors,
            config.area,
            target=config.target,
            seed=_trial_rng(config.master_seed, trial_index, _STREAM_TOPOLOGY),
        )
    if config.topology_file is not None and config.malicious_fraction == 0.0:
        return topology  # labels fixed by the file
    eligible = config.placement.eligible(topology.anchors, topology.target)
    return topology.with_malicious(
        select_malicious(
            topology.n_anchors,
            config.malicious_fraction,
            seed=_trial_rng(config.master_seed, trial_index, _STREAM_MALICIOUS),
            eligible=eligible,
        )
    )


def trial_crlb(config: ExperimentConfig, topology: Topology) -> float | None:
    """The error bound for one labelled topology; None when the information
    matrix is singular or undefined."""
    try:
        if config.attack_kind == "coordinated":
            fim = crlb_mod.fim_coordinated(
                topology,
                config.params(),
                config.resolve_t_att(topology.target),
                config.packets,
            )
        else:
            sigma_att = config.sigma_att if config.attack_kind == "uncoordinated" else 0.0
            fim = crlb_mod.fim_uncoordinated(
                topology, config.params(), sigma_att, config.packets
            )
        return crlb_mod.crlb_bound(fim)
    except SecLocError:
        return None


@dataclass(frozen=True)
class Trial:
    """Everything the estimators of one trial share."""

    config: ExperimentConfig
    topology: Topology  # labelled
    measurements: MeasurementMatrix
    system: LinearSystem
    lmds_rng: np.random.Generator
    params: PathLossParams


@dataclass(frozen=True)
class EstimatorSpec:
    """Where an estimator applies and how it runs on a trial.

    ``run`` must look its estimator function up in this module's globals when
    it is called, as a lambda body does, so that replacing the module-level
    name (as secbench/tracing.py does) reaches the call.
    """

    attacks: frozenset
    run: Callable[[Trial], Estimate]
    detector: bool = False  # eliminates anchors; reported by `detect`


_ALL_ATTACKS = frozenset(ATTACK_KINDS)
_NOT_COORDINATED = frozenset(("none", "uncoordinated"))
_NOT_UNCOORDINATED = frozenset(("none", "coordinated"))

# Estimators in report order, each offered only under the attack kinds where
# the paper compares it.
ESTIMATORS = {
    # Plain LS is only compared under the uncoordinated attack.
    "ls": EstimatorSpec(_NOT_COORDINATED, lambda t: ls_estimate(t.system)),
    "wls": EstimatorSpec(
        _ALL_ATTACKS, lambda t: wls_estimate(t.measurements, t.topology.anchors, t.params)
    ),
    # SWLS keys on per-packet power variance, absent in a coordinated attack.
    "swls": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: swls_estimate(t.measurements, t.topology.anchors, t.params, zeta=t.config.zeta),
        detector=True,
    ),
    # ML is initialized at the truth; only compared under the uncoordinated attack.
    "ml": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: ml_estimate(
            t.measurements, t.topology.anchors, t.params, init=t.topology.target
        ),
    ),
    "lmds": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: lmds_estimate(
            t.measurements,
            t.topology.anchors,
            t.params,
            n_subsets=t.config.lmds.n_subsets,
            subset_size=t.config.lmds.subset_size,
            seed=t.lmds_rng,
        ),
    ),
    "grad_desc": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: grad_desc_estimate(
            t.measurements,
            t.topology.anchors,
            t.params,
            step=t.config.grad_desc.step,
            max_iters=t.config.grad_desc.max_iters,  # keyword: secbench/tracing.py reads it
            keep_fraction=t.config.grad_desc.keep_fraction,
        ),
    ),
    "ln1": EstimatorSpec(_ALL_ATTACKS, lambda t: ln1_estimate(t.system, t.config.admm)),
    # LN-1E's elimination assumes the attacked rows sit on a second plane,
    # which an uncoordinated attack does not produce.
    "ln1e": EstimatorSpec(
        _NOT_UNCOORDINATED, lambda t: ln1e_estimate(t.system, t.config.admm), detector=True
    ),
}


def _outcome(spec: EstimatorSpec, trial: Trial) -> EstimatorOutcome:
    try:
        est = spec.run(trial)
    except SecLocError as exc:
        return EstimatorOutcome(
            error=None,
            converged=False,
            n_eliminated=0,
            tp=0,
            fp=0,
            failure=type(exc).__name__,
        )
    malicious = trial.topology.malicious
    eliminated = est.eliminated
    return EstimatorOutcome(
        error=float(np.linalg.norm(est.position - trial.topology.target)),
        converged=est.converged,
        n_eliminated=len(eliminated),
        tp=len(eliminated & malicious),
        fp=len(eliminated - malicious),
        failure=None if est.converged else "non-convergence",
    )


def run_trial(
    config: ExperimentConfig, trial_index: int, topology: Topology | None = None
) -> TrialResult:
    """Simulate one measurement matrix and run every enabled estimator on it.

    ``topology`` may carry the precomputed shared topology; when omitted it is
    regenerated from the config, so the call is self-contained and
    deterministic in (config, trial_index).
    """
    base = topology if topology is not None else base_topology(config)
    topo = trial_topology(config, trial_index, base)
    params = config.params()
    measurements = simulate_measurements(
        topo,
        params,
        config.attack_spec(topo.target),
        config.packets,
        seed=_trial_rng(config.master_seed, trial_index, _STREAM_NOISE),
    )
    mean_d = distance_from_rssi(params, measurements.rssi.mean(axis=1))
    trial = Trial(
        config=config,
        topology=topo,
        measurements=measurements,
        system=build_linear_system(topo.anchors, mean_d),
        lmds_rng=_trial_rng(config.master_seed, trial_index, _STREAM_LMDS),
        params=params,
    )
    outcomes = {name: _outcome(ESTIMATORS[name], trial) for name in config.estimators}
    return TrialResult(
        index=trial_index,
        n_malicious=len(topo.malicious),
        n_anchors=topo.n_anchors,
        crlb=trial_crlb(config, topo),
        outcomes=outcomes,
    )


def run_monte_carlo(config: ExperimentConfig) -> MonteCarloSummary:
    """Run config.trials independent trials and aggregate by trial index."""
    topology = base_topology(config)
    return summarize(config, [run_trial(config, i, topology) for i in range(config.trials)])


def summarize(config: ExperimentConfig, results: list) -> MonteCarloSummary:
    """Aggregate trial results in stable (index) order."""
    results = sorted(results, key=lambda r: r.index)
    per_estimator = {}
    for name in config.estimators:
        sq_sum = 0.0
        ok = failed = 0
        tp_sum = fp_sum = 0
        mal_sum = honest_sum = 0
        for res in results:
            outcome = res.outcomes[name]
            if outcome.ok:
                ok += 1
                sq_sum += outcome.error**2
                tp_sum += outcome.tp
                fp_sum += outcome.fp
                mal_sum += res.n_malicious
                honest_sum += res.n_anchors - res.n_malicious
            else:
                failed += 1
        per_estimator[name] = EstimatorSummary(
            rmse=math.sqrt(sq_sum / ok) if ok else None,
            trials_ok=ok,
            trials_failed=failed,
            mean_tp=tp_sum / ok if ok else 0.0,
            mean_fp=fp_sum / ok if ok else 0.0,
            recall=tp_sum / mal_sum if mal_sum else None,
            false_rate=fp_sum / honest_sum if honest_sum else None,
        )
    bounds = [res.crlb for res in results if res.crlb is not None]
    return MonteCarloSummary(
        trials=len(results),
        crlb=sum(bounds) / len(bounds) if bounds else None,
        per_estimator=per_estimator,
    )


def sweep(config: ExperimentConfig, axis: str, values) -> list:
    """Run one Monte-Carlo summary per axis value.

    Returns [(value, MonteCarloSummary), ...] in the given order.
    """
    return [(value, run_monte_carlo(apply_axis(config, axis, value))) for value in values]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_rows(axis_value, config: ExperimentConfig, summary: MonteCarloSummary) -> list:
    """CSV rows for one summary: one row per estimator plus a crlb row."""
    rows = []
    for name in config.estimators:
        est = summary.per_estimator[name]
        rows.append(
            [
                _fmt(axis_value),
                name,
                _fmt(est.rmse),
                "",
                _fmt(est.trials_ok),
                _fmt(est.trials_failed),
                _fmt(est.mean_tp),
                _fmt(est.mean_fp),
            ]
        )
    rows.append([_fmt(axis_value), "crlb", "", _fmt(summary.crlb), "", "", "", ""])
    return rows


def emit_csv(rows: list, path) -> None:
    """Write rows under the fixed header; floats use repr so parsing the file
    back reproduces the summary exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
