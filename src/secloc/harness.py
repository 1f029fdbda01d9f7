"""Monte-Carlo engine: trials, aggregation, sweeps, and CSV output.

Every trial derives its own random streams from (master_seed, trial index),
so results are bit-identical regardless of execution order.  Within a trial
all enabled estimators see the same measurement matrix, making the comparison
paired.  Estimator failures (eliminations leaving too few anchors,
non-convergence) are counted per estimator and never abort a trial.

``run_monte_carlo`` runs the trials in chunks.  Per chunk it prepares every
trial (``prepare_trial``: labels, measurements, range inversion, linear
system), then calls the ``batch`` step of each enabled ``ESTIMATORS`` row
that has one, in ``config.estimators`` order, with the chunk's trials, and
only then runs each trial (``run_trial``).  A batch step may compute, for the
whole chunk at once, what its row's ``run`` needs, and leave it in a memo on
the trial's inputs (as LN-1 and LN-1E leave their lock-step ADMM fits on the
trial's ``LinearSystem``; see ``planefit``), so that ``run`` reads it inside
the trial.  What fails in a batch is left for the trial's own ``run`` to
raise, so failures stay per trial.  A batch needs every trial of a chunk in
memory at once, which is what bounds ``L1_CHUNK``: peak RSS grows with it
while the gain in trials/s levels off.  When no enabled row has a batch step
a chunk is one trial.  A batched result may round its last bits differently
from the trial's own computation; it is the same whichever other rows run.
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
from .planefit import admm_l1_planes, ln1_estimate, ln1e_estimate, prefit_planes

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

# Trials per chunk when an enabled estimator has a batch step.  With LN-1 and
# LN-1E on the benchmark's coord-fixed config (2 vCPU), chunks of 16, 32 and
# 48 trials ran 123, 145 and 152 trials/s in one round (a chunk of 1 about
# half as fast as 32) and added 0.6, 1.3 and 1.8 % to peak RSS.
L1_CHUNK = 32


@dataclass(frozen=True)
class EstimatorOutcome:
    """One estimator's result on one trial."""

    error: float | None
    n_eliminated: int
    tp: int
    fp: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


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
    attack = config.attack_spec(topology.target)
    params = config.params()
    try:
        if attack.kind == "coordinated":
            fim = crlb_mod.fim_coordinated(topology, params, attack.t_att, config.packets)
        else:  # with no attack, the uncoordinated bound at sigma_att = 0
            fim = crlb_mod.fim_uncoordinated(
                topology, params, attack.sigma_att or 0.0, config.packets
            )
        return crlb_mod.crlb_bound(fim)
    except SecLocError:
        return None


@dataclass(frozen=True)
class Trial:
    """Everything the estimators of one trial share."""

    config: ExperimentConfig
    index: int
    topology: Topology  # labelled
    measurements: MeasurementMatrix
    system: LinearSystem
    params: PathLossParams


@dataclass(frozen=True)
class EstimatorSpec:
    """Where an estimator applies and how it runs on a trial.

    ``run`` must look its estimator function up in this module's globals when
    it is called, as a lambda body does, so that replacing the module-level
    name (as secbench/tracing.py does) reaches the call.  ``batch``, when
    set, is called with each chunk's trials before any of them runs (see the
    module docstring); its return value is ignored, and it raises nothing.
    """

    attacks: frozenset
    run: Callable[[Trial], Estimate]
    detector: bool = False  # eliminates anchors; reported by `detect`
    batch: Callable[[list], None] | None = None


_ALL_ATTACKS = frozenset(ATTACK_KINDS)
_NOT_COORDINATED = frozenset(("none", "uncoordinated"))
_NOT_UNCOORDINATED = frozenset(("none", "coordinated"))

# Estimators in report order, each offered only under the attack kinds where
# the paper compares it.
ESTIMATORS = {
    # Plain LS is only compared under the uncoordinated attack.
    "ls": EstimatorSpec(_NOT_COORDINATED, lambda t: ls_estimate(t.system)),
    "wls": EstimatorSpec(_ALL_ATTACKS, lambda t: wls_estimate(t.system, t.params)),
    # SWLS keys on per-packet power variance, absent in a coordinated attack.
    "swls": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: swls_estimate(t.system, t.measurements, t.params, zeta=t.config.zeta),
        detector=True,
    ),
    # ML is initialized at the truth; only compared under the uncoordinated attack.
    "ml": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: ml_estimate(
            t.measurements, t.topology.anchors, t.params, init=t.topology.target
        ),
    ),
    # The settings' fields are passed as the estimators' keywords, so
    # secbench/tracing.py reads max_iters= off the Grad-Desc call.  LMdS
    # draws its subsets from a stream of its own, made only when it runs.
    "lmds": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: lmds_estimate(
            t.system,
            t.topology.anchors,
            seed=_trial_rng(t.config.master_seed, t.index, _STREAM_LMDS),
            **vars(t.config.lmds),
        ),
    ),
    "grad_desc": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: grad_desc_estimate(
            t.measurements, t.topology.anchors, t.params, **vars(t.config.grad_desc)
        ),
    ),
    # LN-1 and LN-1E read the plane fits their batch steps memoized on the
    # trials' systems (see planefit).
    "ln1": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: ln1_estimate(t.system, t.config.admm),
        batch=lambda ts: admm_l1_planes([t.system for t in ts], ts[0].config.admm),
    ),
    # LN-1E's elimination assumes the attacked rows sit on a second plane,
    # which an uncoordinated attack does not produce.
    "ln1e": EstimatorSpec(
        _NOT_UNCOORDINATED,
        lambda t: ln1e_estimate(t.system, t.config.admm),
        detector=True,
        batch=lambda ts: prefit_planes([t.system for t in ts], ts[0].config.admm),
    ),
}


def _outcome(spec: EstimatorSpec, trial: Trial) -> EstimatorOutcome:
    try:
        est = spec.run(trial)
    except SecLocError as exc:
        return EstimatorOutcome(
            error=None,
            n_eliminated=0,
            tp=0,
            fp=0,
            failure=type(exc).__name__,
        )
    malicious = trial.topology.malicious
    eliminated = est.eliminated
    return EstimatorOutcome(
        error=float(np.linalg.norm(est.position - trial.topology.target)),
        n_eliminated=len(eliminated),
        tp=len(eliminated & malicious),
        fp=len(eliminated - malicious),
        failure=None if est.converged else "non-convergence",
    )


def prepare_trial(config: ExperimentConfig, trial_index: int, base: Topology) -> Trial:
    """Draw one trial's labels and measurements and build its linear system
    (the trial's one mean-RSSI inversion: the estimators that need ranges
    read them off the system).  ``base`` is the shared topology."""
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
    return Trial(
        config=config,
        index=trial_index,
        topology=topo,
        measurements=measurements,
        system=build_linear_system(topo.anchors, mean_d),
        params=params,
    )


def run_trial(
    config: ExperimentConfig, trial_index: int, trial: Trial | None = None
) -> TrialResult:
    """Run every enabled estimator on one trial's measurement matrix.

    ``trial`` may carry the trial as ``prepare_trial`` made it; when omitted
    it is prepared here from the config, so the call is self-contained and
    deterministic in (config, trial_index).
    """
    if trial is None:
        trial = prepare_trial(config, trial_index, base_topology(config))
    outcomes = {name: _outcome(ESTIMATORS[name], trial) for name in config.estimators}
    topo = trial.topology
    return TrialResult(
        index=trial_index,
        n_malicious=len(topo.malicious),
        n_anchors=topo.n_anchors,
        crlb=trial_crlb(config, topo),
        outcomes=outcomes,
    )


def run_monte_carlo(config: ExperimentConfig) -> MonteCarloSummary:
    """Run config.trials independent trials, a chunk at a time (see the
    module docstring), and aggregate by trial index."""
    base = base_topology(config)
    batches = [ESTIMATORS[n].batch for n in config.estimators if ESTIMATORS[n].batch]
    chunk = L1_CHUNK if batches else 1
    results = []
    for start in range(0, config.trials, chunk):
        indices = range(start, min(start + chunk, config.trials))
        trials = [prepare_trial(config, i, base) for i in indices]
        for batch in batches:
            batch(trials)
        results += [run_trial(config, i, t) for i, t in zip(indices, trials)]
    return summarize(config, results)


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
