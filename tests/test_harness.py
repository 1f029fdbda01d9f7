import csv
from dataclasses import replace

import numpy as np
import pytest

from secloc import (
    AdmmParams,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    load_config,
    run_monte_carlo,
    run_trial,
    summarize,
    summary_rows,
    sweep,
)
from secloc import harness
from secloc.harness import CSV_HEADER, L1_CHUNK


def quiet_config(**kw):
    base = dict(
        attack_kind="none",
        sigma=0.0,
        malicious_fraction=0.0,
        estimators=("ls", "wls", "swls", "ml", "lmds", "ln1", "ln1e"),
        trials=1,
        n_anchors=12,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def attack_config(**kw):
    base = dict(
        attack_kind="uncoordinated",
        sigma_att=8.0,
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
        res = run_trial(cfg, 0)
        swls = res.outcomes["swls"]
        assert res.n_malicious == 8
        assert swls.tp + swls.fp == swls.n_eliminated
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
        # per-packet ranges
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
        assert calls == [(cfg.n_anchors, cfg.packets)]


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

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                attack_kind="coordinated",
                t_att=(75.0, 75.0),
                malicious_fraction=0.28,
                estimators=("wls", "ln1", "ln1e"),
                admm=AdmmParams(max_iters=1500),  # some fits stop at the cap
                trials=L1_CHUNK + 1,
                master_seed=3,
            ),
            attack_config(estimators=("ls", "ln1"), trials=L1_CHUNK + 1),
        ],
        ids=["coordinated", "uncoordinated"],
    )
    def test_chunked_fits_match_trial_by_trial(self, cfg):
        # run_monte_carlo fits a chunk's LN-1/LN-1E planes in lock-step
        # batches, which may round the last bits differently from a trial's
        # own one-system fits; a full chunk and a one-trial tail give the
        # same outcomes, and two runs the same summary
        chunked = run_monte_carlo(cfg)
        assert run_monte_carlo(cfg) == chunked
        alone = summarize(cfg, [run_trial(cfg, i) for i in range(cfg.trials)])
        assert chunked.crlb == alone.crlb
        for name in cfg.estimators:
            got, want = chunked.per_estimator[name], alone.per_estimator[name]
            counts = ("trials_ok", "trials_failed", "mean_tp", "mean_fp")
            assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
            assert got.rmse == pytest.approx(want.rmse, rel=0, abs=1e-9)

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
                attack_kind="coordinated",
                t_att=(75.0, 75.0),
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
                trials=L1_CHUNK + 1,
            ),
            ExperimentConfig(
                attack_kind="coordinated",
                t_att=(75.0, 75.0),
                malicious_fraction=0.28,
                estimators=("wls", "lmds", "grad_desc", "ln1", "ln1e"),
                admm=AdmmParams(max_iters=1500),
                n_anchors=12,
                trials=L1_CHUNK + 1,
                master_seed=3,
            ),
        ],
        ids=["uncoordinated", "coordinated"],
    )
    def test_every_row_independent_of_the_others(self, cfg):
        # batch steps, chunking and per-estimator streams leave each
        # estimator's row as it is when that estimator runs alone
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
