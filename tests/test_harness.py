import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from secloc import (
    AttackSpec,
    ConfigError,
    ExperimentConfig,
    LinearSystem,
    PathLossParams,
    SecLocError,
    emit_csv,
    load_config,
    run_monte_carlo,
    run_trial,
    summarize,
    summary_rows,
    sweep,
)
from secloc import cli, harness, planefit
from secloc.attacks import ATTACK_KINDS, Placement
from secloc.harness import CSV_HEADER

from helpers import prepare_reference


COORDINATED = AttackSpec("coordinated", t_att=(75.0, 75.0))


def quiet_config(**kw):
    base = dict(
        channel=PathLossParams(p0=-10.0, n=4.0, sigma=0.0),
        malicious_fraction=0.0,
        estimators=("ls", "wls", "swls", "ml", "lmds", "ln1", "ln1e"),
        trials=1,
        n_anchors=12,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def chunk_budget(cfg, cap):
    """A ``CHUNK_RSSI_BYTES`` under which a chunk of cfg holds at most
    ``cap`` trials (each trial counts 8 N P bytes of RSSI, P at least
    ``CHUNK_MIN_PACKETS``)."""
    return cap * 8 * cfg.n_anchors * max(cfg.packets, harness.CHUNK_MIN_PACKETS)


def record_chunks(monkeypatch):
    """The sizes of the chunks run_monte_carlo prepares from now on: a chunk
    is the trials one prepare_trials call prepares together."""
    original = harness.prepare_trials
    sizes = []

    def recording(config, indices, base):
        sizes.append(len(indices))
        return original(config, indices, base)

    monkeypatch.setattr(harness, "prepare_trials", recording)
    return sizes


def attack_config(sigma_att=8.0, **kw):
    base = dict(
        attack=AttackSpec("uncoordinated", sigma_att=sigma_att),
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls"),
        trials=60,
        master_seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunTrial:
    def test_noiseless_trial_is_exact(self):
        # σ = 0, no attack: every exactly-consistent estimator lands on the
        # target.  Grad-Desc contracts only linearly at its fixed step, so its
        # documented desk-scale accuracy is coarser; checked separately.
        res = run_trial(quiet_config(), 0)
        for name, outcome in res.outcomes.items():
            assert outcome.ok, name
            assert outcome.error < 1e-6, name
        gd = run_trial(quiet_config(estimators=("grad_desc",)), 0).outcomes["grad_desc"]
        assert gd.ok and gd.error < 2.0

    def test_bit_identical_reruns(self):
        cfg = attack_config(trials=1)
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_trials_differ(self):
        cfg = attack_config(trials=2)
        a, b = run_trial(cfg, 0), run_trial(cfg, 1)
        assert a.outcomes["ls"].error != b.outcomes["ls"].error

    def test_detection_counts(self):
        cfg = attack_config(trials=1, packets=1000)
        trial = harness.prepare_trials(cfg, [0], harness.base_topology(cfg))[0]
        eliminated = harness.ESTIMATORS["swls"].run(trial).eliminated
        res = run_trial(cfg, 0, trial)
        swls = res.outcomes["swls"]
        assert res.n_malicious == 8
        assert swls.tp == len(eliminated & trial.topology.malicious) > 0
        assert swls.fp == len(eliminated - trial.topology.malicious)
        assert swls.tp <= res.n_malicious

    def test_estimator_failure_recorded_not_raised(self):
        # eliminating 93% of anchors leaves too few survivors every time
        cfg = attack_config(
            estimators=("ls", "swls"), malicious_fraction=0.93, sigma_att=40.0, trials=1
        )
        res = run_trial(cfg, 0)
        assert res.outcomes["swls"].failure == "InsufficientSurvivorsError"
        assert res.outcomes["ls"].ok


    def test_ranges_inverted_once_per_trial(self, monkeypatch):
        # the harness inverts the mean RSSI once and the estimators read the
        # ranges off the trial's system; only SWLS inverts again, for its
        # per-packet ranges (as a stack of one trial's)
        import secloc.estimators

        calls = []
        original = secloc.estimators.distance_from_rssi

        def counting(params, rssi):
            calls.append(np.shape(rssi))
            return original(params, rssi)

        monkeypatch.setattr(secloc.estimators, "distance_from_rssi", counting)
        cfg = load_config("desk")
        assert len(cfg.estimators) == 7
        res = run_trial(cfg, 0)
        assert all(outcome.ok for outcome in res.outcomes.values())
        assert calls == [(1, cfg.n_anchors, cfg.packets)]


    @pytest.mark.parametrize(
        "attack",
        [AttackSpec("uncoordinated", sigma_att=8.0), AttackSpec("coordinated", distance=12.0)],
        ids=["uncoordinated", "coordinated-distance"],
    )
    def test_trials_read_the_config_channel_and_attack(self, attack, monkeypatch):
        # The channel and the attack are built and checked once, with the
        # config; the trials read them as they are, and each trial places a
        # distance-given decoy from its own target.
        built = []
        for cls in (PathLossParams, AttackSpec):
            original = cls.__post_init__

            def counting(self, original=original):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        names = tuple(n for n, spec in harness.ESTIMATORS.items() if attack.kind in spec.attacks)
        cfg = ExperimentConfig(
            attack=attack, malicious_fraction=0.28, estimators=names, trials=3, n_anchors=12
        )
        built.clear()
        summary = run_monte_carlo(cfg)
        assert built == []
        assert all(est.trials_ok for est in summary.per_estimator.values())

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_estimators_are_blind_to_the_labels(self, kind):
        # The estimators see measurements, never which anchors lie: the same
        # trial with other malicious labels and a fresh system built from the
        # same A, b, ranges and RSSI (so no memo is shared) gives every
        # estimator the same result; only the scoring (tp, fp) may change.
        names = tuple(n for n, spec in harness.ESTIMATORS.items() if kind in spec.attacks)
        attack = {
            "none": AttackSpec(),
            "uncoordinated": AttackSpec("uncoordinated", sigma_att=8.0),
            "coordinated": COORDINATED,
        }[kind]
        fraction = 0.0 if kind == "none" else 0.28
        cfg = ExperimentConfig(
            attack=attack, malicious_fraction=fraction, estimators=names, trials=1
        )
        trial = harness.prepare_trials(cfg, [0], harness.base_topology(cfg))[0]
        topo, system = trial.topology, trial.system
        labels = frozenset(range(topo.n_anchors)) - topo.malicious
        fresh = LinearSystem(system.A, system.b, system.ranges, system.measurements)
        relabelled = replace(trial, topology=topo.with_malicious(labels), system=fresh)
        assert relabelled.topology.malicious != topo.malicious

        def run(spec, t):
            if spec.batch:
                spec.batch([t])
            try:
                est = spec.run(t)
            except SecLocError as exc:
                return type(exc)
            return est.position.tolist(), est.eliminated, est.iterations, est.converged

        for name in names:
            spec = harness.ESTIMATORS[name]
            assert run(spec, trial) == run(spec, relabelled), name
            a, b = harness._outcome(spec, trial), harness._outcome(spec, relabelled)
            assert (a.error, a.failure) == (b.error, b.failure), name


class TestMonteCarlo:
    def test_single_trial_rmse_is_that_error(self):
        cfg = attack_config(trials=1)
        summary = run_monte_carlo(cfg)
        trial = run_trial(cfg, 0)
        for name in cfg.estimators:
            assert summary.per_estimator[name].rmse == pytest.approx(
                trial.outcomes[name].error
            )

    def test_trial_order_does_not_change_results(self):
        # each trial draws only from its own streams, and summarize orders
        # by trial index, so running the trials backwards changes nothing
        cfg = attack_config(trials=24)
        backwards = [run_trial(cfg, i) for i in reversed(range(cfg.trials))]
        assert summarize(cfg, backwards) == run_monte_carlo(cfg)

    COORDINATED_RUN = ExperimentConfig(
        attack=COORDINATED,
        malicious_fraction=0.28,
        estimators=("wls", "grad_desc", "ln1", "ln1e"),
        trials=33,
        master_seed=3,
    )
    UNCOORDINATED_RUN = attack_config(estimators=("ls", "ml", "grad_desc", "ln1"), trials=33)

    @pytest.mark.parametrize(
        "cfg, cap, sizes",
        [
            # a cap of 8 trials cuts 33 into 5 chunks of 6 or 7
            (COORDINATED_RUN, 8, [6, 7, 6, 7, 7]),
            (UNCOORDINATED_RUN, 8, [6, 7, 6, 7, 7]),
            (
                attack_config(estimators=("ml", "grad_desc"), topology_per_trial=True, trials=33),
                8,
                [6, 7, 6, 7, 7],
            ),
            # at the shipped budget, 100 packets of 29 anchors cap the chunk
            # at 5 trials: 13 trials run as chunks of 4, 4 and 5
            (
                attack_config(topology_per_trial=True, packets=100, n_anchors=29, trials=13),
                None,
                [4, 4, 5],
            ),
            # LMdS has no batch step, and its trials are chunked all the same
            (attack_config(estimators=("lmds",), trials=33), 8, [6, 7, 6, 7, 7]),
            (
                attack_config(estimators=("lmds",), topology_per_trial=True, trials=33),
                8,
                [6, 7, 6, 7, 7],
            ),
            # the same runs as one chunk
            (COORDINATED_RUN, 33, [33]),
            (UNCOORDINATED_RUN, 33, [33]),
        ],
        ids=[
            "coordinated", "uncoordinated", "per-trial-topology", "closed-form",
            "lmds", "lmds-per-trial-topology", "coordinated-one-chunk",
            "uncoordinated-one-chunk",
        ],
    )
    def test_chunked_fits_match_trial_by_trial(self, cfg, cap, sizes, monkeypatch):
        # run_monte_carlo runs a chunk's LS, WLS and SWLS solves, its ML and
        # Grad-Desc iterations and its LN-1/LN-1E plane fits in batches;
        # uneven chunks, one chunk and chunks of one trial (each trial run
        # alone) give the same counts and bound, and two runs the same
        # summary.  Only the plane fits depend on the layout: they may round
        # the last bits differently from a trial's own one-trial calls.  The
        # other batches round as their one-trial calls do, and LMdS draws
        # from its own stream per trial, so each of their fits, trial by
        # trial, their RMSEs and the bound are exact.  At a cap of 1500 sweeps
        # some coordinated plane fits stop at the cap.
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 1500)
        if cap is not None:
            monkeypatch.setattr(harness, "CHUNK_RSSI_BYTES", chunk_budget(cfg, cap))
        fits = {name: [] for name in ("ls", "wls", "swls", "grad_desc", "ml", "lmds")}
        for name, into in fits.items():
            original = getattr(harness, f"{name}_estimate")

            def recording(*args, original=original, into=into, **kwargs):
                into.append(original(*args, **kwargs))
                return into[-1]

            monkeypatch.setattr(harness, f"{name}_estimate", recording)
        chunks = record_chunks(monkeypatch)
        chunked = run_monte_carlo(cfg)
        assert chunks == sizes
        batched = {name: list(into) for name, into in fits.items()}
        assert run_monte_carlo(cfg) == chunked
        for into in fits.values():
            into.clear()
        alone = summarize(cfg, [run_trial(cfg, i) for i in range(cfg.trials)])
        assert chunked.crlb == alone.crlb
        for name in cfg.estimators:
            got, want = chunked.per_estimator[name], alone.per_estimator[name]
            counts = ("trials_ok", "trials_failed", "mean_tp", "mean_fp", "failures")
            assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
            if name in fits:
                assert got.rmse == want.rmse
            else:
                assert got.rmse == pytest.approx(want.rmse, rel=1e-12, abs=0)
        for name in fits:
            expected = cfg.trials if name in cfg.estimators else 0
            assert len(batched[name]) == len(fits[name]) == expected
            for got, want in zip(batched[name], fits[name]):
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
                assert got.eliminated == want.eliminated
                assert np.array_equal(got.position, want.position)

    @pytest.mark.parametrize(
        "cfg, budget, sizes",
        [
            # the desk profile's 500 trials of 2320 RSSI bytes each, at most
            # 56 a chunk: 9 chunks of 55 or 56
            (
                replace(load_config("desk"), estimators=("ls",)),
                None,
                [55, 56, 55, 56, 55, 56, 55, 56, 56],
            ),
            # RSSI arrays of 29 x 100 packets, 23200 bytes each, cap the chunk
            # at CHUNK_RSSI_BYTES // 23200 = 5 trials: 9 trials in 2 chunks
            (
                replace(
                    load_config("desk"), estimators=("ls", "wls", "swls"), packets=100, trials=9
                ),
                None,
                [4, 5],
            ),
            # LMdS, with no batch step, is chunked and capped as the rest
            (
                replace(load_config("desk"), estimators=("lmds",), packets=100, trials=9),
                None,
                [4, 5],
            ),
            # 100 trials, the cap exactly divided (coord-fixed's chunks)
            (replace(load_config("desk"), estimators=("ls",), trials=100), None, [50, 50]),
            # up to the cap one chunk, one more trial two
            (replace(load_config("desk"), estimators=("ls",), trials=56), None, [56]),
            (replace(load_config("desk"), estimators=("ls",), trials=57), None, [28, 29]),
            # 113 trials not divisible by their 3 chunks
            (replace(load_config("desk"), estimators=("ls",), trials=113), None, [37, 38, 38]),
            # a budget below one trial's 2320 bytes still runs a trial a chunk
            (replace(load_config("desk"), estimators=("ls",), trials=3), 2000, [1, 1, 1]),
            # a trial of 1 packet counts as 5, so the cap is 112 trials, not 564
            (
                replace(load_config("desk"), estimators=("ls",), packets=1, trials=113),
                None,
                [56, 57],
            ),
        ],
        ids=[
            "desk", "100-packets", "lmds", "divisible", "at-cap", "cap-plus-one",
            "not-divisible", "budget-below-one-trial", "one-packet",
        ],
    )
    def test_chunk_sizes(self, cfg, budget, sizes, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(harness, "CHUNK_RSSI_BYTES", budget)
        chunks = record_chunks(monkeypatch)
        run_monte_carlo(cfg)
        assert chunks == sizes

    def test_ln1e_too_few_near_rows_fails_only_that_trial(self, monkeypatch):
        # LN-1E refits on the near cluster only when it keeps at least 3
        # rows.  No simulated trial leaves fewer, so kmeans_1d is patched to
        # keep 2 rows for one chosen system of a run in uneven chunks (6 or
        # 7 trials): the batch step skips that system's refit and its trial
        # alone fails
        cfg = ExperimentConfig(
            attack=COORDINATED,
            malicious_fraction=0.28,
            estimators=("wls", "ln1", "ln1e"),
            trials=33,
            master_seed=20260810,
        )
        monkeypatch.setattr(harness, "CHUNK_RSSI_BYTES", chunk_budget(cfg, 8))
        trials, results = [], []

        def recording(fn, into):
            def call(*args):
                into.append(fn(*args))
                return into[-1]

            return call

        prepare = harness.prepare_trials

        def preparing(*args):
            trials.extend(prepare(*args))
            return trials[-len(args[1]) :]

        monkeypatch.setattr(harness, "prepare_trials", preparing)
        monkeypatch.setattr(harness, "run_trial", recording(harness.run_trial, results))
        run_monte_carlo(cfg)
        plain = [res.outcomes for res in results]
        # the first trial whose LN-1E refit eliminated rows
        chosen = next(
            i for i, t in enumerate(trials) if plain[i]["ln1e"].ok and plain[i]["ln1e"].tp
        )
        system = trials[chosen].system
        residuals = planefit.point_plane_residual(system, system.memo[("fit",)])
        kmeans = planefit.kmeans_1d

        def two_near_rows(values):
            labels = kmeans(values)
            if np.array_equal(values, residuals):
                labels = np.ones_like(labels)
                labels[np.argsort(values)[:2]] = 0
            return labels

        monkeypatch.setattr(planefit, "kmeans_1d", two_near_rows)
        trials.clear()
        results.clear()
        run_monte_carlo(cfg)
        assert len(results) == cfg.trials
        for i, res in enumerate(results):
            expected = dict(plain[i])
            if i == chosen:
                expected["ln1e"] = replace(
                    expected["ln1e"], error=None, tp=0, fp=0,
                    failure="InsufficientSurvivorsError",
                )
            assert res.outcomes == expected, i

    def test_all_failures_reported_absent(self):
        cfg = attack_config(
            estimators=("swls",), malicious_fraction=0.93, sigma_att=40.0, trials=5
        )
        summary = run_monte_carlo(cfg)
        est = summary.per_estimator["swls"]
        assert est.rmse is None
        assert est.trials_failed == 5 and est.trials_ok == 0

    def test_desk_scale_attack_ordering(self):
        # paired comparison on the shared measurement matrices: elimination
        # beats down-weighting beats uniform weighting under this attack
        for seed in (1, 2, 3):
            summary = run_monte_carlo(attack_config(trials=150, master_seed=seed))
            ls = summary.per_estimator["ls"].rmse
            wls = summary.per_estimator["wls"].rmse
            swls = summary.per_estimator["swls"].rmse
            assert swls < wls < ls
            assert summary.crlb is not None and summary.crlb < swls


class TestSweepAndCsv:
    def test_rows_per_value(self):
        cfg = attack_config(trials=4)
        results = sweep(cfg, "sigma_att", [2.0, 6.0])
        rows = []
        for value, summary in results:
            rows.extend(summary_rows(value, cfg, summary))
        assert len(rows) == 2 * (len(cfg.estimators) + 1)
        crlb_rows = [r for r in rows if r[1] == "crlb"]
        assert len(crlb_rows) == 2
        assert all(r[3] != "" for r in crlb_rows)
        assert all(r[6] == "" and r[7] == "" for r in crlb_rows)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_csv_round_trip(self, tmp_path):
        cfg = attack_config(trials=6)
        path = tmp_path / "sweep.csv"
        results = sweep(cfg, "sigma_att", [4.0, 8.0])
        emit_csv([row for v, s in results for row in summary_rows(v, cfg, s)], path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == list(CSV_HEADER)
        by_key = {(r["axis_value"], r["estimator"]): r for r in rows}
        for value, summary in results:
            for name, est in summary.per_estimator.items():
                row = by_key[(repr(float(value)), name)]
                assert float(row["rmse_m"]) == est.rmse
                assert int(row["trials_ok"]) == est.trials_ok
                assert int(row["trials_failed"]) == est.trials_failed
                assert float(row["mean_tp"]) == est.mean_tp
                assert float(row["mean_fp"]) == est.mean_fp
            crlb_row = by_key[(repr(float(value)), "crlb")]
            assert float(crlb_row["crlb_m"]) == summary.crlb

    def test_ln1e_row_independent_of_ln1(self):
        # LN-1E reuses the all-anchor fit LN-1 memoized on the trial's system;
        # run alone it fits that plane itself, to the same result
        def ln1e_row(estimators):
            cfg = ExperimentConfig(
                attack=COORDINATED,
                malicious_fraction=0.28,
                estimators=estimators,
                trials=4,
                master_seed=20260810,
            )
            rows = summary_rows("", cfg, run_monte_carlo(cfg))
            return [row for row in rows if row[1] == "ln1e"]

        alone = ln1e_row(("ln1e",))
        assert len(alone) == 1
        assert alone == ln1e_row(("ln1", "ln1e"))

    @pytest.mark.parametrize(
        "cfg",
        [
            attack_config(
                estimators=("ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"),
                n_anchors=12,
                trials=33,
            ),
            ExperimentConfig(
                attack=COORDINATED,
                malicious_fraction=0.28,
                estimators=("wls", "lmds", "grad_desc", "ln1", "ln1e"),
                n_anchors=12,
                trials=33,
                master_seed=3,
            ),
        ],
        ids=["uncoordinated", "coordinated"],
    )
    def test_every_row_independent_of_the_others(self, cfg, monkeypatch):
        # batch steps, chunking and per-estimator streams leave each
        # estimator's row as it is when that estimator runs alone, here in
        # uneven chunks of 6 or 7 trials, with some plane fits at the cap
        monkeypatch.setattr(harness, "CHUNK_RSSI_BYTES", chunk_budget(cfg, 8))
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 1500)
        rows = summary_rows("", cfg, run_monte_carlo(cfg))
        for name, row in zip(cfg.estimators, rows):
            alone = replace(cfg, estimators=(name,))
            assert summary_rows("", alone, run_monte_carlo(alone))[0] == row, name

    def test_lmds_stream_drawn_only_when_lmds_runs(self, monkeypatch):
        requested = []
        original = harness._trial_rng

        def recording(master_seed, trial_index, stream):
            requested.append((trial_index, stream))
            return original(master_seed, trial_index, stream)

        monkeypatch.setattr(harness, "_trial_rng", recording)
        run_monte_carlo(attack_config(trials=5))
        assert requested and all(s != harness._STREAM_LMDS for _, s in requested)
        requested.clear()
        run_monte_carlo(attack_config(estimators=("ls", "lmds"), trials=5))
        lmds = [i for i, s in requested if s == harness._STREAM_LMDS]
        assert lmds == list(range(5))

    def test_axis_gating(self):
        cfg = attack_config()
        with pytest.raises(ConfigError):
            sweep(cfg, "attack_distance", [5.0])


def _topology_file(tmp_path):
    lines = ["%f %f" % (x, y) for x, y in np.random.default_rng(3).uniform(0, 100, (8, 2))]
    lines[2] += " m"
    lines.append("target 50 50")
    path = tmp_path / "topo.txt"
    path.write_text("\n".join(lines))
    return str(path)


UNCOORDINATED = AttackSpec("uncoordinated", sigma_att=8.0)
DISTANCE = AttackSpec("coordinated", distance=12.0)


class TestPrepareTrials:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(attack=UNCOORDINATED, topology_per_trial=True),
            dict(attack=COORDINATED, topology_per_trial=True),
            dict(attack=DISTANCE, placement=Placement("within_radius", radius=60.0)),
            dict(
                attack=DISTANCE,
                topology_per_trial=True,
                placement=Placement("beyond_radius", radius=20.0),
            ),
            dict(attack=UNCOORDINATED, topology_file="file", malicious_fraction=0.0),
            dict(attack=COORDINATED, topology_file="file"),
        ],
        ids=[
            "fixed-none",
            "per-trial-uncoordinated",
            "per-trial-t_att",
            "fixed-distance-within",
            "per-trial-distance-beyond",
            "file-labels",
            "file-relabelled",
        ],
    )
    def test_chunk_is_each_trial_alone(self, kw, tmp_path):
        # a chunk's trials hold, bit for bit, the arrays and labels each
        # trial gets prepared alone, and those of the one-trial recipe
        kw = dict(kw)
        if kw.get("topology_file"):
            kw["topology_file"] = _topology_file(tmp_path)
        fraction = kw.pop("malicious_fraction", 0.0 if kw.get("attack") is None else 0.28)
        cfg = ExperimentConfig(
            malicious_fraction=fraction, estimators=("wls",), trials=9, master_seed=11, **kw
        )
        base = harness.base_topology(cfg)
        chunk = harness.prepare_trials(cfg, range(9), base)
        middle = dict(zip(range(3, 7), harness.prepare_trials(cfg, range(3, 7), base)))
        for i, trial in enumerate(chunk):
            want = prepare_reference(cfg, i, base)
            alone = harness.prepare_trials(cfg, [i], base)[0]
            for got in (trial, alone, middle.get(i, trial)):
                topo, system = got.topology, got.system
                assert got.index == i and topo.malicious == want[2], i
                arrays = (topo.anchors, topo.target, system.A, system.b, system.ranges)
                for array, expected in zip(arrays + (system.measurements,), want[:2] + want[3:]):
                    assert array.tobytes() == np.asarray(expected, dtype=float).tobytes(), i
        if fraction:
            assert any(trial.topology.malicious for trial in chunk)
        if kw.get("topology_per_trial"):
            assert len({trial.topology.anchors.tobytes() for trial in chunk}) == 9

    # trial 10 is the first whose placement leaves too few eligible anchors
    # (6 of 8); trial 13 leaves 3
    PLACEMENT_SHORT = dict(
        attack=UNCOORDINATED,
        malicious_fraction=0.28,
        placement=Placement("within_radius", radius=35.0),
        topology_per_trial=True,
        estimators=("ls", "wls"),
        trials=40,
        master_seed=7,
    )

    def test_first_failing_trial_raises_its_error(self):
        cfg = ExperimentConfig(**self.PLACEMENT_SHORT)
        base = harness.base_topology(cfg)
        message = "placement constraint leaves 6 eligible anchors, need 8"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            harness.prepare_trials(cfg, range(cfg.trials), base)
        harness.prepare_trials(cfg, range(10), base)
        with pytest.raises(ConfigError, match="leaves 3 eligible"):
            harness.prepare_trials(cfg, range(11, 20), base)

    def test_cli_exits_with_the_first_failing_trials_message(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(
            "\n".join(
                [
                    "topology.per_trial = true",
                    "attack.kind = uncoordinated",
                    "attack.sigma_att = 8",
                    "malicious.fraction = 0.28",
                    "malicious.placement = within_radius",
                    "malicious.radius = 35",
                    "estimators = ls, wls",
                    "trials = 40",
                    "master_seed = 7",
                ]
            )
        )
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: placement constraint leaves 6 eligible anchors, need 8\n"
        )


class TestTopologyModes:
    def test_per_trial_topologies_differ(self):
        cfg = attack_config(trials=2, topology_per_trial=True)
        a, b = run_trial(cfg, 0), run_trial(cfg, 1)
        assert a.crlb != b.crlb  # different geometry, different bound

    def test_fixed_topology_file(self, tmp_path):
        lines = ["%f %f" % (x, y) for x, y in np.random.default_rng(3).uniform(0, 100, (8, 2))]
        lines[2] += " m"
        lines.append("target 50 50")
        path = tmp_path / "topo.txt"
        path.write_text("\n".join(lines))
        cfg = attack_config(trials=2, topology_file=str(path), malicious_fraction=0.0)
        res = run_trial(cfg, 0)
        assert res.n_malicious == 1  # the file's "m" mark is used as-is


def test_readme_estimator_table_is_the_estimators_table():
    # README.md says its estimator table is harness.ESTIMATORS: the same
    # rows in the same order, the same attack kinds, the same detectors.
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    ).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| estimator |"))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    assert header == ["estimator", "none", "uncoordinated", "coordinated", "detector"]
    table = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, *kinds, detector = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.split("`")[1]] = (
            frozenset(kind for kind, cell in zip(header[1:4], kinds) if cell == "yes"),
            detector == "yes",
        )
    assert list(table) == list(harness.ESTIMATORS)
    assert table == {
        name: (spec.attacks, spec.detector) for name, spec in harness.ESTIMATORS.items()
    }
