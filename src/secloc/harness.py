"""Monte-Carlo engine: trials, aggregation, sweeps, and CSV output.

Every trial derives its own random streams from (master_seed, trial index),
so results are bit-identical regardless of execution order.  Within a trial
all enabled estimators read the same ``LinearSystem``, which carries the
trial's anchors, ranges and RSSI array, making the comparison paired; none
of them reads the malicious labels, which only score the outcomes.
Estimator failures (eliminations leaving too few anchors, non-convergence)
are counted per estimator and never abort a trial.

``run_monte_carlo`` runs the trials in chunks.  Per chunk it prepares every
trial (``prepare_trial``: labels, measurements, range inversion, linear
system), then calls the ``batch`` step of each enabled ``ESTIMATORS`` row
that has one, in ``config.estimators`` order, with the chunk's trials, and
only then runs each trial (``run_trial``).  A batch step may compute, for the
whole chunk at once, what its row's ``run`` needs, and leave it in the memo
of the trial's ``LinearSystem`` (as LN-1 and LN-1E leave their fits, see
``planefit``, and LS, WLS, SWLS, ML and Grad-Desc theirs, see
``estimators``), so that ``run`` reads it inside the trial.  What fails in a
batch is left for the trial's own ``run`` to raise, so failures stay per
trial.  A batch needs every trial of a chunk in memory at once, which is
what bounds a chunk: peak RSS grows with it while the gain in trials/s
levels off.  A chunk is ``CHUNK`` trials, or fewer when their RSSI arrays
would hold more than ``CHUNK_RSSI_BYTES``, and one trial when no enabled
row has a batch step.  The LS, WLS, SWLS, ML and Grad-Desc batches do not
round differently from the trial's own computation; the LN-1/LN-1E plane
fits may round their last bits differently.  Every batched result is the
same whichever other rows run.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import crlb as crlb_mod
from .attacks import (
    ATTACK_KINDS,
    Topology,
    load_topology,
    random_topology,
    select_malicious,
    simulate_measurements,
)
from .channel import distance_from_rssi
from .config import ExperimentConfig, apply_axis
from .estimators import (
    Estimate,
    LinearSystem,
    build_linear_system,
    grad_desc_estimate,
    grad_desc_fits,
    lmds_estimate,
    ls_estimate,
    ls_fits,
    ml_estimate,
    ml_fits,
    swls_estimate,
    swls_fits,
    wls_estimate,
    wls_fits,
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

# Trials per chunk when an enabled estimator has a batch step (every row but
# LMdS).  With LN-1 and LN-1E on the benchmark's coord-fixed config (2 vCPU),
# chunks of 16, 32 and 48 trials ran 123, 145 and 152 trials/s in one round
# (a chunk of 1 about half as fast as 32) and added 0.6, 1.3 and 1.8 % to
# peak RSS.  With Grad-Desc batched too, on uncoord-fixed (the desk profile),
# chunks of 16, 32, 48 and 64 ran 120-124, 147-159, 156-171 and 161-171
# trials/s in two rounds, at 41.7, 42.0, 42.4 and 42.8 MB peak RSS.
CHUNK = 32
# The RSSI bytes a chunk may hold: a chunk is at most this over 8 N P bytes
# per trial.  29 anchors and 10 packets (2320 bytes a trial, as on desk,
# paper and coord-fixed) keep chunks of 32; 100 packets run 4.  The LS, WLS
# and SWLS batches stack a chunk's (T, N, P) RSSI arrays, and SWLS's variance
# test holds about three more arrays of that size.  On the benchmark's
# sweep-closed-form workload (packets 2, 10, 100; block 0 at seed 20260810,
# 2 vCPU), uncapped chunks of 32 peaked at 42.6-42.7 MB against 39.5-39.6 MB
# one trial at a time (+8 %); capped, they peak at 40.1 MB (+1.5 %).
CHUNK_RSSI_BYTES = 96 * 1024


@dataclass(frozen=True)
class EstimatorOutcome:
    """One estimator's result on one trial."""

    error: float | None
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
    # the failed trials by failure type, as sorted (type, count) pairs
    failures: tuple = ()


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
    """The topology shared by all trials (ignoring per-trial regeneration).
    Every subcommand starts here, so here its channel is checked
    (``PathLossParams.check_resolution``): a channel under which ranges
    invert to 0 m fails the bound as it fails the simulation."""
    config.channel.check_resolution()
    if config.topology_file is not None:
        return load_topology(config.topology_file)
    seed = np.random.SeedSequence(config.master_seed, spawn_key=(1,))
    return random_topology(config.n_anchors, config.area, target=config.target, seed=seed)


def trial_topology(config: ExperimentConfig, trial_index: int, base: Topology) -> Topology:
    """The labelled topology of one trial: ``base`` (or a fresh layout when
    topologies are drawn per trial) with this trial's malicious anchors.
    Every subcommand labels its trials here, so here a coordinated attack's
    decoy is checked against them (``AttackSpec.decoy_ranges``): a decoy
    the simulation rejects fails the bound alike."""
    topology = base
    if config.topology_per_trial:
        topology = random_topology(
            config.n_anchors,
            config.area,
            target=config.target,
            seed=_trial_rng(config.master_seed, trial_index, _STREAM_TOPOLOGY),
        )
    if config.topology_file is None or config.malicious_fraction != 0.0:  # else the file's labels
        eligible = config.placement.eligible(topology.anchors, topology.target)
        topology = topology.with_malicious(
            select_malicious(
                topology.n_anchors,
                config.malicious_fraction,
                seed=_trial_rng(config.master_seed, trial_index, _STREAM_MALICIOUS),
                eligible=eligible,
            )
        )
    if config.attack.kind == "coordinated" and topology.malicious:
        config.attack.decoy_ranges(topology)
    return topology


def trial_crlb(config: ExperimentConfig, topology: Topology) -> float | None:
    """The error bound for one labelled topology; None when the information
    matrix is singular, overflows or is undefined."""
    attack, params = config.attack, config.channel
    try:
        if attack.kind == "coordinated":
            decoy = attack.decoy(topology.target)
            fim = crlb_mod.fim_coordinated(topology, params, decoy, config.packets)
        else:  # with no attack, the uncoordinated bound at sigma_att = 0
            fim = crlb_mod.fim_uncoordinated(
                topology, params, attack.sigma_att or 0.0, config.packets
            )
        return crlb_mod.crlb_bound(fim)
    except SecLocError:
        return None


@dataclass(frozen=True, eq=False)
class Trial:
    """One trial as ``prepare_trial`` made it.  The estimators read only
    ``system`` (anchors, ranges and the RSSI array) and the config's channel
    and settings; the labelled ``topology`` is for scoring, and its target
    for ML's start.  Trials compare by identity."""

    config: ExperimentConfig
    index: int
    topology: Topology  # labelled
    system: LinearSystem  # with the trial's RSSI array


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
# the paper compares it.  Every row but LMdS reads the fits its batch step
# memoized on the trials' systems (see estimators and planefit); they round
# as the one-trial calls do, but for the plane fits of LN-1 and LN-1E, which
# may round their last bits differently.
ESTIMATORS = {
    # Plain LS is only compared under the uncoordinated attack.
    "ls": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: ls_estimate(t.system),
        batch=lambda ts: ls_fits([t.system for t in ts]),
    ),
    "wls": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: wls_estimate(t.system, t.config.channel),
        batch=lambda ts: wls_fits([t.system for t in ts], ts[0].config.channel),
    ),
    # SWLS keys on per-packet power variance, absent in a coordinated attack.
    "swls": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: swls_estimate(t.system, t.config.channel, zeta=t.config.zeta),
        detector=True,
        batch=lambda ts: swls_fits(
            [t.system for t in ts], ts[0].config.channel, ts[0].config.zeta
        ),
    ),
    # ML is initialized at the truth; only compared under the uncoordinated
    # attack.
    "ml": EstimatorSpec(
        _NOT_COORDINATED,
        lambda t: ml_estimate(t.system, t.config.channel, init=t.topology.target),
        batch=lambda ts: ml_fits(
            [t.system for t in ts], ts[0].config.channel, [t.topology.target for t in ts]
        ),
    ),
    # The settings' fields are passed as the estimators' keywords, so
    # secbench/tracing.py reads max_iters= off the Grad-Desc call.  LMdS
    # draws its subsets from a stream of its own, made only when it runs.
    "lmds": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: lmds_estimate(
            t.system,
            seed=_trial_rng(t.config.master_seed, t.index, _STREAM_LMDS),
            **vars(t.config.lmds),
        ),
    ),
    "grad_desc": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: grad_desc_estimate(t.system, t.config.channel, **vars(t.config.grad_desc)),
        batch=lambda ts: grad_desc_fits(
            [t.system for t in ts], ts[0].config.channel, **vars(ts[0].config.grad_desc)
        ),
    ),
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
        return EstimatorOutcome(error=None, tp=0, fp=0, failure=type(exc).__name__)
    malicious = trial.topology.malicious
    eliminated = est.eliminated
    return EstimatorOutcome(
        error=float(np.linalg.norm(est.position - trial.topology.target)),
        tp=len(eliminated & malicious),
        fp=len(eliminated - malicious),
        failure=None if est.converged else "non-convergence",
    )


def prepare_trial(config: ExperimentConfig, trial_index: int, base: Topology) -> Trial:
    """Draw one trial's labels and measurements and build its linear system
    (the trial's one mean-RSSI inversion: the estimators that need ranges,
    or the matrix, read them off the system).  ``base`` is the shared
    topology."""
    topo = trial_topology(config, trial_index, base)
    measurements = simulate_measurements(
        topo,
        config.channel,
        config.attack,
        config.packets,
        seed=_trial_rng(config.master_seed, trial_index, _STREAM_NOISE),
    )
    mean_d = distance_from_rssi(config.channel, measurements.rssi.mean(axis=1))
    return Trial(
        config=config,
        index=trial_index,
        topology=topo,
        system=build_linear_system(topo.anchors, mean_d, measurements.rssi),
    )


def run_trial(
    config: ExperimentConfig, trial_index: int, trial: Trial | None = None
) -> TrialResult:
    """Run every enabled estimator on one trial's linear system.

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
    chunk = 1
    if batches:  # each trial's RSSI array holds 8 N P bytes
        chunk = min(CHUNK, max(1, CHUNK_RSSI_BYTES // (8 * base.n_anchors * config.packets)))
    results = []
    for start in range(0, config.trials, chunk):
        indices = range(start, min(start + chunk, config.trials))
        results += _run_chunk(config, indices, base, batches)
    return summarize(config, results)


def _run_chunk(config: ExperimentConfig, indices: range, base: Topology, batches: list) -> list:
    """Prepare, batch and run one chunk of trials.  Its trials, and the fits
    memoized on them, are freed on return, before the next chunk is
    prepared."""
    trials = [prepare_trial(config, i, base) for i in indices]
    for batch in batches:
        batch(trials)
    return [run_trial(config, i, t) for i, t in zip(indices, trials)]


def summarize(config: ExperimentConfig, results: list) -> MonteCarloSummary:
    """Aggregate trial results in stable (index) order."""
    results = sorted(results, key=lambda r: r.index)
    per_estimator = {}
    for name in config.estimators:
        sq_sum = 0.0
        ok = 0
        failures = Counter()
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
                failures[outcome.failure] += 1
        per_estimator[name] = EstimatorSummary(
            rmse=math.sqrt(sq_sum / ok) if ok else None,
            trials_ok=ok,
            trials_failed=failures.total(),
            mean_tp=tp_sum / ok if ok else 0.0,
            mean_fp=fp_sum / ok if ok else 0.0,
            recall=tp_sum / mal_sum if mal_sum else None,
            false_rate=fp_sum / honest_sum if honest_sum else None,
            failures=tuple(sorted(failures.items())),
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
