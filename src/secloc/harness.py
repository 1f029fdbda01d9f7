"""Monte-Carlo engine: trials, aggregation, sweeps, and CSV output.

Every trial derives its own random streams from (master_seed, trial index),
so results are bit-identical regardless of execution order.  Within a trial
all enabled estimators read the same ``LinearSystem``, which carries the
trial's anchors, ranges and RSSI array, making the comparison paired; none
of them reads the malicious labels, which only score the outcomes.
Estimator failures (eliminations leaving too few anchors, non-convergence)
are counted per estimator and never abort a trial.

``run_monte_carlo`` runs the trials in chunks.  Per chunk it prepares every
trial at once (``prepare_trials``: labels, measurements, range inversion,
linear systems).  The draws stay per trial: each trial draws its layout (when
topologies are drawn per trial), its malicious anchors and its packet noise
from its own streams, in the order it draws them alone.  The checks and the
arithmetic run per chunk, on the trials' stacked arrays: the layouts'
geometry checks, the path-loss and decoy means, the finite-RSSI check, one
mean-RSSI inversion and the (A, b) build, each element for element as for a
trial alone, so a chunk's trials are bit-identical to trials prepared one at
a time.  When a check or a stage raises for the chunk, its trials are
prepared again one at a time, so the first failing trial in index order
raises its own error.  Then it calls the ``batch`` step of each enabled
``ESTIMATORS`` row that has one, in ``config.estimators`` order, with the
chunk's trials, and only then runs each trial (``run_trial``).  A batch step
may compute, for the whole chunk at once, what its row's ``run`` needs, and
leave it in the memo of the trial's ``LinearSystem`` (as LN-1 and LN-1E leave
their fits, see ``planefit``, and LS, WLS, SWLS, ML and Grad-Desc theirs, see
``estimators``), so that ``run`` reads it inside the trial.  What fails in a
batch is left for the trial's own ``run`` to raise, so failures stay per
trial.  A batch needs every trial of a chunk in memory at once, which is
what bounds a chunk: peak RSS grows with it.  The iterative batches (ML,
Grad-Desc, the ADMM of LN-1 and LN-1E) run in lock step until their
slowest row stops, and each step costs numpy call overhead more than
arithmetic, so the number of chunks sets their cost.  A run therefore
takes as few chunks as ``CHUNK_RSSI_BYTES`` allows: a chunk holds at most
that budget over the 8 N P bytes of a trial's RSSI array, with P counted
as at least ``CHUNK_MIN_PACKETS`` (and at least one trial), and the run's
trials are cut into the fewest chunks under that cap, whose sizes differ by
at most one, so no short tail pays a full solver tail.  The rule is the
same whichever rows run (LMdS, the one row without a batch step, draws
from a stream of its own per trial, so its results do not depend on the
chunk).  The LS, WLS, SWLS, ML and Grad-Desc batches do not round
differently from the trial's own computation, so only the LN-1/LN-1E plane
fits depend on the chunk layout, and only in their last bits; no count
(trials ok or failed, eliminations) ever depends on it.  Every batched
result is the same whichever other rows run.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import crlb as crlb_mod
# simulate_measurements, build_linear_system: unused, kept for secbench/tracing.py (ROADMAP item 3)
from .attacks import (
    ATTACK_KINDS,
    Topology,
    load_topology,
    random_topologies,
    random_topology,
    select_malicious,
    simulate_measurements,
    simulate_rssi_stack,
)
from .channel import distance_from_rssi
from .config import ExperimentConfig, apply_axis
from .estimators import (
    GRAD_DESC_MAX_ITERS,
    LMDS_SUBSET_SIZE,
    Estimate,
    LinearSystem,
    build_linear_system,
    build_linear_systems,
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
from .exceptions import ConfigError, SecLocError
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

# The RSSI bytes a chunk may hold: a chunk is at most this over the
# 8 N max(P, CHUNK_MIN_PACKETS) bytes of a trial, and a run is cut into the
# fewest chunks under that cap, of sizes that differ by at most one.  The LS,
# WLS and SWLS batches stack a chunk's (T, N, P) RSSI arrays, and SWLS's
# variance test holds about three more arrays of that size.  A prepared
# trial and its fits also hold a few KB whatever P is, so a trial counts as
# at least CHUNK_MIN_PACKETS packets: at 29 anchors the cap is 112 trials up
# to 5 packets (564 at 1 packet without the floor), 56 at 10 and 5 at 100.
# 1128 trials of 1 packet with a new layout per trial and the desk profile's
# estimators peaked at 50.2 MB without the floor and 42.7 MB with it
# (in-process ru_maxrss, two runs each); a floor of 10 packets peaked at
# 41.8 MB but would split the 100 trials of a 2-packet point in two.
CHUNK_MIN_PACKETS = 5
CHUNK_RSSI_BYTES = 128 * 1024


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
    invert to 0 m fails the bound as it fails the simulation.  Here too,
    with the anchor count of a drawn or a file layout known, ``lmds`` on
    fewer anchors than it samples is a ``ConfigError``, not a failure on
    every trial."""
    config.channel.check_resolution()
    if config.topology_file is not None:
        topology = load_topology(config.topology_file)
    else:
        seed = np.random.SeedSequence(config.master_seed, spawn_key=(1,))
        topology = random_topology(config.n_anchors, config.area, target=config.target, seed=seed)
    if "lmds" in config.estimators and topology.n_anchors < LMDS_SUBSET_SIZE:
        need = f"estimators.LMDS_SUBSET_SIZE = {LMDS_SUBSET_SIZE}"
        raise ConfigError(f"lmds needs at least {need} anchors, got {topology.n_anchors}")
    return topology


def trial_topologies(config: ExperimentConfig, indices, base: Topology) -> list:
    """The labelled topologies of trials ``indices``: ``base`` (or a fresh
    layout per trial when topologies are drawn per trial, checked on the
    stack, see ``random_topologies``) with each trial's malicious anchors.
    Every subcommand labels its trials here, so here a coordinated attack's
    decoy is checked against them, on the stack of attacked layouts
    (``AttackSpec.decoy_ranges``): a decoy the simulation rejects fails the
    bound alike."""
    if config.topology_per_trial:
        seeds = [_trial_rng(config.master_seed, i, _STREAM_TOPOLOGY) for i in indices]
        topologies = random_topologies(config.n_anchors, config.area, seeds, target=config.target)
    else:
        topologies = [base] * len(indices)
    if config.topology_file is None or config.malicious_fraction != 0.0:  # else the file's labels
        topologies = [
            topology.with_malicious(
                select_malicious(
                    topology.n_anchors,
                    config.malicious_fraction,
                    seed=_trial_rng(config.master_seed, i, _STREAM_MALICIOUS),
                    eligible=config.placement.eligible(topology),
                )
            )
            for i, topology in zip(indices, topologies)
        ]
    attacked = [topology for topology in topologies if topology.malicious]
    if config.attack.kind == "coordinated" and attacked:
        config.attack.decoy_ranges(
            np.array([t.anchors for t in attacked]), np.array([t.target for t in attacked])
        )
    return topologies


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
    """One trial as ``prepare_trials`` made it.  The estimators read only
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
    # LMdS and Grad-Desc run at the estimators module's LMDS_* and GRAD_DESC_*
    # constants.  LMdS draws its subsets from a stream of its own, made only
    # when it runs.
    "lmds": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: lmds_estimate(
            t.system, seed=_trial_rng(t.config.master_seed, t.index, _STREAM_LMDS)
        ),
    ),
    # Grad-Desc's budget is passed by keyword only because secbench/tracing.py
    # reads max_iters= off the call (ROADMAP item 3).
    "grad_desc": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: grad_desc_estimate(t.system, t.config.channel, max_iters=GRAD_DESC_MAX_ITERS),
        batch=lambda ts: grad_desc_fits(
            [t.system for t in ts], ts[0].config.channel, max_iters=GRAD_DESC_MAX_ITERS
        ),
    ),
    "ln1": EstimatorSpec(
        _ALL_ATTACKS,
        lambda t: ln1_estimate(t.system),
        batch=lambda ts: admm_l1_planes([t.system for t in ts]),
    ),
    # LN-1E's elimination assumes the attacked rows sit on a second plane,
    # which an uncoordinated attack does not produce.
    "ln1e": EstimatorSpec(
        _NOT_UNCOORDINATED,
        lambda t: ln1e_estimate(t.system),
        detector=True,
        batch=lambda ts: prefit_planes([t.system for t in ts]),
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


def prepare_trials(config: ExperimentConfig, indices, base: Topology) -> list:
    """Draw the labels and measurements of trials ``indices`` and build
    their linear systems; ``base`` is the shared topology.  Each trial draws
    from its own streams what it would draw alone (its layout, its malicious
    anchors, its packet noise); the checks, the path-loss means, the
    mean-RSSI inversion (one call for the chunk: the estimators that need
    ranges, or the matrix, read them off the systems) and the (A, b) build
    run once on the chunk's stacked arrays, so each trial's arrays are
    bit-identical to its own.  Where a check or a stage raises for the
    chunk, its trials are prepared again one at a time, so the first
    failing trial raises its own error."""
    try:
        topologies = trial_topologies(config, indices, base)
        seeds = [_trial_rng(config.master_seed, i, _STREAM_NOISE) for i in indices]
        rssi = simulate_rssi_stack(topologies, config.channel, config.attack, config.packets, seeds)
        mean_d = distance_from_rssi(config.channel, rssi.mean(axis=-1))
        anchors = np.array([topology.anchors for topology in topologies])
        systems = build_linear_systems(anchors, mean_d, rssi)
    except SecLocError:
        if len(indices) == 1:
            raise
        return [prepare_trials(config, [i], base)[0] for i in indices]
    return [
        Trial(config=config, index=i, topology=topology, system=system)
        for i, topology, system in zip(indices, topologies, systems)
    ]


def run_trial(
    config: ExperimentConfig, trial_index: int, trial: Trial | None = None
) -> TrialResult:
    """Run every enabled estimator on one trial's linear system.

    ``trial`` may carry the trial as ``prepare_trials`` made it; when
    omitted it is prepared here from the config, as a chunk of one, so the
    call is self-contained and deterministic in (config, trial_index).
    """
    if trial is None:
        trial = prepare_trials(config, [trial_index], base_topology(config))[0]
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
    # the fewest chunks under the cap, with sizes that differ by at most one
    cap = max(1, CHUNK_RSSI_BYTES // (8 * base.n_anchors * max(config.packets, CHUNK_MIN_PACKETS)))
    count = -(-config.trials // cap)
    results = []
    for k in range(count):
        indices = range(k * config.trials // count, (k + 1) * config.trials // count)
        results += _run_chunk(config, indices, base, batches)
    return summarize(config, results)


def _run_chunk(config: ExperimentConfig, indices: range, base: Topology, batches: list) -> list:
    """Prepare, batch and run one chunk of trials.  Its trials, and the fits
    memoized on them, are freed on return, before the next chunk is
    prepared."""
    trials = prepare_trials(config, indices, base)
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
