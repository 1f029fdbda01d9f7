import csv
import os
import subprocess
import sys
import types
import warnings
import xml.etree.ElementTree as ET
from importlib.resources import files

import pytest

import secloc
from secloc import config, harness, load_config
from secloc.cli import main

DESK_SMALL = """
attack.kind = uncoordinated
attack.sigma_att = 8
malicious.fraction = 0.28
estimators = ls, wls, swls
trials = 40
master_seed = 11
"""

COORD_SMALL = """
attack.kind = coordinated
attack.distance = 16.97
malicious.fraction = 0.28
estimators = wls, ln1e
trials = 15
master_seed = 11
"""


def desk_file(tmp_path, overrides):
    """The shipped desk profile with the given keys replaced."""
    desk = files("secloc").joinpath("profiles/desk.cfg").read_text(encoding="utf-8")
    lines = [ln for ln in desk.splitlines() if ln.split("=")[0].strip() not in overrides]
    path = tmp_path / "desk.cfg"
    path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n")
    return str(path)


def csv_rows(path):
    with open(path, newline="") as fh:
        return {row["estimator"]: row for row in csv.DictReader(fh)}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(DESK_SMALL)
    return str(path)


class TestSimulate:
    def test_writes_csv_and_prints_table(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", cfg_file, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "estimator" in printed and "swls" in printed
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["estimator"] for r in rows} == {"ls", "wls", "swls", "crlb"}
        assert all(r["axis_value"] == "" for r in rows)

    def test_seed_override_changes_output(self, cfg_file, capsys):
        assert main(["simulate", "--config", cfg_file]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", cfg_file, "--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_builtin_profile_loads(self, capsys, monkeypatch, tmp_path):
        # the desk profile runs 500 trials; just verify it resolves and parses
        from secloc import load_config

        cfg = load_config("desk")
        assert cfg.trials == 500

    @pytest.mark.parametrize("fraction, trials", [("0.28", "100"), ("0.95", "5")])
    def test_failures_printed_by_type(self, tmp_path, capsys, fraction, trials):
        # The desk profile at its seed: ML fails by non-convergence, and at
        # 95 % malicious anchors SWLS by too few survivors and LN-1 by
        # non-convergence on one trial of five.  Each estimator with failed
        # trials gets one line of failure types, whose counts sum to its
        # table's failed column; detect prints the same line for its
        # detector.
        path = desk_file(tmp_path, {"malicious.fraction": fraction, "trials": trials})
        assert main(["simulate", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        failed = {fields[0]: int(fields[3]) for fields in map(str.split, lines[2:9])}
        assert list(failed) == list(load_config(path).estimators)
        printed = dict(line.split(" failed: ") for line in lines[9:])
        assert list(printed) == [name for name, n in failed.items() if n]
        for name, kinds in printed.items():
            counts = [kind.rsplit(" ", 1) for kind in kinds.split(", ")]
            assert counts == sorted(counts) and sum(int(n) for _, n in counts) == failed[name]
        assert main(["detect", "--config", path]) == 0
        detected = [line for line in capsys.readouterr().out.splitlines() if " failed: " in line]
        assert detected == ([f"swls failed: {printed['swls']}"] if "swls" in printed else [])


class TestSweep:
    def test_csv_and_svg(self, cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = main(
            [
                "sweep", "--config", cfg_file, "--axis", "sigma_att",
                "--values", "4,8", "--out", str(out), "--svg", str(svg),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4  # (3 estimators + crlb) per axis value
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 4  # one per estimator plus the bound

    def test_axis_mismatch_is_config_error(self, cfg_file, tmp_path):
        code = main(
            [
                "sweep", "--config", cfg_file, "--axis", "attack_distance",
                "--values", "5", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_bad_values_rejected(self, cfg_file, tmp_path):
        code = main(
            [
                "sweep", "--config", cfg_file, "--axis", "sigma_att",
                "--values", "abc", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("values", ["", ",", " , "])
    def test_empty_values_rejected(self, cfg_file, tmp_path, capsys, values):
        code = main(
            [
                "sweep", "--config", cfg_file, "--axis", "sigma_att",
                "--values", values, "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "configuration error: no sweep values given\n"

    def test_identical_bytes_across_runs(self, cfg_file, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in paths:
            assert main(
                [
                    "sweep", "--config", cfg_file, "--axis", "sigma_att",
                    "--values", "6,12", "--out", str(out),
                ]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCrlbAndDetect:
    def test_crlb_prints_bound(self, cfg_file, capsys):
        assert main(["crlb", "--config", cfg_file]) == 0
        printed = capsys.readouterr().out
        assert "crlb_mean_m:" in printed
        value = float(printed.split("crlb_mean_m:")[1].splitlines()[0])
        assert 0.0 < value < 10.0

    def test_crlb_prints_bounds_of_trial_by_trial_labels(self, tmp_path, capsys):
        # per-trial layouts under a coordinated attack: crlb labels all
        # trials in one call, and prints the mean, min and max of trial_crlb
        # over the labels drawn one trial at a time
        path = tmp_path / "coord.cfg"
        path.write_text(COORD_SMALL + "topology.per_trial = true\n")
        cfg = load_config(path)
        base = harness.base_topology(cfg)
        bounds = [
            harness.trial_crlb(cfg, harness.trial_topologies(cfg, [i], base)[0])
            for i in range(cfg.trials)
        ]
        assert None not in bounds and len(set(bounds)) == cfg.trials
        assert main(["crlb", "--config", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"crlb_mean_m: {sum(bounds) / len(bounds):.6f}\n"
            f"crlb_min_m: {min(bounds):.6f}\n"
            f"crlb_max_m: {max(bounds):.6f}\n"
        )

    def test_crlb_labels_one_chunk_at_a_time(self, tmp_path, capsys, monkeypatch):
        # 100 packets of 29 anchors cap a chunk at 5 trials: crlb labels its
        # 15 per-trial layouts in three calls and prints the bounds of the
        # labels one call for all 15 trials draws
        path = tmp_path / "coord.cfg"
        path.write_text(COORD_SMALL + "topology.per_trial = true\npackets = 100\n")
        cfg = load_config(path)
        base = harness.base_topology(cfg)
        topologies = harness.trial_topologies(cfg, range(cfg.trials), base)
        bounds = [harness.trial_crlb(cfg, t) for t in topologies]
        assert None not in bounds
        labelled = harness.trial_topologies
        sizes = []

        def recording(config, indices, base):
            sizes.append(len(indices))
            return labelled(config, indices, base)

        monkeypatch.setattr(secloc.cli, "trial_topologies", recording)
        assert main(["crlb", "--config", str(path)]) == 0
        assert sizes == [5, 5, 5]
        assert capsys.readouterr().out == (
            f"crlb_mean_m: {sum(bounds) / len(bounds):.6f}\n"
            f"crlb_min_m: {min(bounds):.6f}\n"
            f"crlb_max_m: {max(bounds):.6f}\n"
        )

    def test_detect_reports_rates(self, cfg_file, capsys):
        assert main(["detect", "--config", cfg_file]) == 0
        printed = capsys.readouterr().out
        assert "swls" in printed and "recall" in printed

    def test_detect_coordinated_ln1e(self, tmp_path, capsys):
        path = tmp_path / "coord.cfg"
        path.write_text(COORD_SMALL)
        assert main(["detect", "--config", str(path)]) == 0
        assert "ln1e" in capsys.readouterr().out

    def test_detect_without_detector_is_config_error(self, tmp_path):
        path = tmp_path / "plain.cfg"
        path.write_text(DESK_SMALL.replace("ls, wls, swls", "ls, wls"))
        assert main(["detect", "--config", str(path)]) == 2


class TestErrorPaths:
    @pytest.mark.parametrize(
        "line",
        [
            "target = nan 50",
            "area = nan",
            "area = inf",
            "zeta = nan",
            "p0 = nan",
            "sigma = -inf",
            "packets = nan",
            "admm.rho = inf",
        ],
    )
    def test_non_finite_config_number(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(DESK_SMALL + line + "\n")
        assert main(["simulate", "--config", str(path)]) == 2
        key = line.split("=")[0].strip()
        assert f"configuration error: {key}: expected a finite number" in capsys.readouterr().err

    def test_failed_allocation_is_runtime_error(self, cfg_file, capsys, monkeypatch):
        # packets = 1e15 asks numpy for a 206 PiB RSSI array, which it
        # refuses with a MemoryError; the refusal is raised here instead, as
        # a machine that overcommits memory might grant a smaller request
        def refused(config):
            raise MemoryError("Unable to allocate 206. PiB for an array")

        monkeypatch.setattr(secloc.cli, "run_monte_carlo", refused)
        assert main(["simulate", "--config", cfg_file]) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 206. PiB for an array\n"

    def test_placement_center_is_an_unknown_key(self, tmp_path, capsys):
        # placement radii are measured from each trial's target, the node
        # the malicious anchors attack; no other center can be set
        path = tmp_path / "center.cfg"
        path.write_text(DESK_SMALL + "malicious.center = 1 1\n")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: unknown config keys: malicious.center\n"

    def test_radius_needs_a_radius_placement(self, tmp_path, capsys):
        # the default placement, anywhere, admits every anchor; a radius
        # beside it used to load and change nothing
        path = tmp_path / "radius.cfg"
        path.write_text(DESK_SMALL + "malicious.radius = 5\n")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: placement anywhere takes no radius, got 5.0\n"
        path.write_text(DESK_SMALL + "malicious.radius = 5\nmalicious.placement = beyond_radius\n")
        assert main(["simulate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("layout", ["drawn", "file"])
    @pytest.mark.parametrize("command", ["simulate", "crlb"])
    def test_lmds_needs_its_subset_of_anchors(self, tmp_path, capsys, command, layout):
        # LMdS solves subsets of LMDS_SUBSET_SIZE (4) anchors, so 3 anchors
        # fail it on every trial: a configuration error, not a failure count
        path = tmp_path / "lmds.cfg"
        text = "trials = 5\nestimators = ls, lmds\n"
        if layout == "drawn":
            path.write_text(text + "n_anchors = 3\n")
        else:
            (tmp_path / "three.txt").write_text("5 5\n95 5\n5 95\ntarget 40 60\n")
            path.write_text(text + f"topology.file = {tmp_path / 'three.txt'}\n")
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: lmds needs at least "
            "estimators.LMDS_SUBSET_SIZE = 4 anchors, got 3\n"
        )
        path.write_text(path.read_text().replace("ls, lmds", "ls"))
        assert main([command, "--config", str(path)]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "1,-inf", "2,nan"])
    def test_non_finite_sweep_value(self, cfg_file, tmp_path, capsys, value):
        code = main(
            [
                "sweep", "--config", cfg_file, "--axis", "packets",
                "--values", value, "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            # the solvers' settings are constants of planefit and estimators;
            # any other value is out of range, and the error names the constant
            "admm.rho = -1",
            "admm.conv_tol = 0",
            "admm.max_iters = 0",
            "admm.max_iters = 6000",
            "n = 0",
            "sigma = -1",
            "lmds.subset_size = 2",
            "lmds.n_subsets = 0",
            "grad_desc.step = 0",
            "grad_desc.max_iters = 0",
            "grad_desc.keep_fraction = 1.5",
            "zeta = 0",
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(DESK_SMALL + line + "\n")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err
        key = line.split("=")[0].strip()
        module, constant = config._KEYS[key][:2]
        if isinstance(module, types.ModuleType):
            where = module.__name__.rpartition(".")[2]
            assert f"{key}: fixed at {where}.{constant} = " in err

    @pytest.mark.parametrize(
        "attack, detector",
        [
            ("uncoordinated\nattack.sigma_att = 8\nattack.t_att = 60 60", "swls"),
            ("uncoordinated\nattack.sigma_att = 8\nattack.distance = 10", "swls"),
            ("coordinated\nattack.distance = 10\nattack.sigma_att = 8", "ln1e"),
            ("none\nattack.sigma_att = 8", "swls"),
            ("uncoordinated\nattack.sigma_att = -1", "swls"),
        ],
        ids=["uncoord+t_att", "uncoord+distance", "coord+sigma_att", "none+sigma_att",
             "negative_sigma_att"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["crlb"],
            ["detect"],
            ["sweep", "--axis", "malicious_fraction", "--values", "0.1", "--out", "x.csv"],
        ],
        ids=["simulate", "crlb", "detect", "sweep"],
    )
    def test_mixed_attack_is_config_error(
        self, tmp_path, capsys, monkeypatch, attack, detector, command
    ):
        monkeypatch.chdir(tmp_path)  # a sweep that ran would write x.csv here
        path = tmp_path / "mixed.cfg"
        path.write_text(
            f"attack.kind = {attack}\nmalicious.fraction = 0.28\n"
            f"estimators = wls, {detector}\ntrials = 3\n"
        )
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_overflowing_range_exits_3(self, tmp_path, capsys):
        # The desk profile with n = 0.001: a mean RSSI a few dB below p0
        # inverts to a range that overflows.
        path = desk_file(tmp_path, {"n": "0.001", "trials": "3"})
        assert main(["simulate", "--config", path]) == 3
        assert "error: rssi" in capsys.readouterr().err

    def test_overflowing_squared_range_exits_3(self, tmp_path, capsys):
        # The desk profile with n = 0.003: the ranges invert, but a square
        # overflows.  A typed error, not an OverflowError or a numpy warning.
        path = desk_file(tmp_path, {"n": "0.003", "trials": "3"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", path]) == 3
        assert "error: range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, code, message",
        [
            (
                "attack.kind = coordinated\nattack.t_att = 1e300 1e300\n"
                "malicious.fraction = 0.28\nestimators = wls\n",
                2,
                "configuration error: the decoy lies so far from the anchors",
            ),
            (
                "area = 1e300\ntarget = 5e299 5e299\nestimators = ls\n",
                2,
                "configuration error: the anchors lie so far from the target",
            ),
            (
                "p0 = 1e300\nestimators = ls\n",
                3,
                "error: p0 = 1e+300 dBm is out of range: one float step of RSSI there "
                "(1.48702e+284 dB) moves an inverted range by 0.1 % or more\n",
            ),
            (
                "p0 = 1e18\nestimators = ls, wls, swls, ml\n",
                3,
                "error: p0 = 1e+18 dBm is out of range: one float step of RSSI there "
                "(128 dB) moves an inverted range by 0.1 % or more\n",
            ),
        ],
        ids=["t_att-1e300", "area-1e300", "p0-1e300", "p0-1e18"],
    )
    def test_extreme_scale_is_typed_error(self, tmp_path, capsys, text, code, message):
        # Distances of 1e154 m or more square to inf in the norm, and one
        # float step of RSSI is 1.5e284 dB at p0 = 1e300 and 128 dB at
        # p0 = 1e18, more than the 80 dB path loss across the desk area.
        # Before, the first two ended in a numpy RuntimeWarning and exit 3,
        # the third reported LS ok with a 6 m error, and the fourth exited 0
        # with an LS RMSE of 1e10 m and ML at exactly 0 m.  Numpy warnings
        # are errors here, so a warning fails the run instead of printing.
        path = tmp_path / "extreme.cfg"
        path.write_text(text + "trials = 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(path)]) == code
        out, err = capsys.readouterr()
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "text, code",
        [
            (
                "attack.kind = coordinated\nattack.t_att = 1e300 1e300\n"
                "malicious.fraction = 0.28\nestimators = wls, ln1e\n",
                2,
            ),
            ("p0 = 1e300\nestimators = ls, swls\n", 3),
            ("p0 = 1e18\nestimators = ls, swls\n", 3),
            ("p0 = 1e17\nestimators = ls, swls\n", 3),
        ],
        ids=["t_att-1e300", "p0-1e300", "p0-1e18", "p0-1e17"],
    )
    def test_every_subcommand_rejects_alike(self, tmp_path, capsys, text, code):
        # A far decoy and a channel whose RSSI is too coarse to carry a range
        # (one float step is 16 dB at p0 = 1e17) are checked where every
        # subcommand passes, so crlb, which draws no measurements, exits as
        # simulate, sweep and detect do.
        path = tmp_path / "extreme.cfg"
        path.write_text(text + "trials = 3\n")
        commands = (
            ["simulate"],
            ["sweep", "--axis", "packets", "--values", "10", "--out", str(tmp_path / "s.csv")],
            ["detect"],
            ["crlb"],
        )
        messages = set()
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command[0], "--config", str(path), *command[1:]]) == code
            messages.add(capsys.readouterr().err)
        assert len(messages) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "n = 1e200\nestimators = ls, wls\n",
            "n = 1e100\nestimators = ls, wls\n",
            "sigma = 1e-155\nestimators = ls, wls\n",
            "sigma = 1e-155\nattack.kind = uncoordinated\nattack.sigma_att = 8\n"
            "malicious.fraction = 0.28\nestimators = ls, wls, swls\n",
            "sigma = 1e-155\nattack.kind = coordinated\nattack.t_att = 75 75\n"
            "malicious.fraction = 0.28\nestimators = wls\n",
        ],
        ids=["n-1e200", "n-1e100", "sigma-1e-155", "uncoord-sigma-1e-155", "coord-sigma-1e-155"],
    )
    @pytest.mark.parametrize("command", ["simulate", "crlb"])
    def test_overflowing_bound_is_n_a(self, tmp_path, capsys, text, command):
        # Valid but extreme channels: the bound's information (slope^2 at
        # n = 1e200, its determinant at n = 1e100, 1/sigma^2 at sigma =
        # 1e-155) overflows, so there is no bound, and at sigma = 1e-155
        # WLS's squared-range variances underflow to 0, so it runs unweighted.
        # Before, these ended in an OverflowError, a LinAlgError or a nan.
        path = tmp_path / "extreme.cfg"
        path.write_text(text + "trials = 3\n")
        if command == "crlb":
            assert main(["crlb", "--config", str(path)]) == 3
        else:
            out_csv = tmp_path / "out.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out_csv)]) == 0
            rows = csv_rows(out_csv)
            assert rows["crlb"]["crlb_m"] == "" and rows["wls"]["trials_ok"] == "3"
        out, err = capsys.readouterr()
        assert "n/a" in out and "nan" not in out and err == ""

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_config_contents(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("attack.kind = coordinated\nestimators = swls\n")
        assert main(["simulate", "--config", str(path)]) == 2

    # A config or layout file that cannot be read as UTF-8 text, or a missing
    # layout file, is the config's fault: exit 2 from every subcommand.
    @pytest.mark.parametrize("case", ["config-not-utf8", "topology-not-utf8", "topology-missing"])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "crlb", "detect"])
    def test_unreadable_input_file(self, tmp_path, capsys, command, case):
        cfg, topo = tmp_path / "exp.cfg", tmp_path / "topo.txt"
        if case == "config-not-utf8":
            cfg.write_bytes(b"\xff\xfe" + DESK_SMALL.encode())
            expected = f"cannot read config {str(cfg)!r}: "
        else:
            if case == "topology-not-utf8":
                topo.write_bytes(b"\xff\xfe5 5\n95 5\n5 95\ntarget 40 60\n")
            cfg.write_text(DESK_SMALL + f"topology.file = {topo}\n")
            expected = f"cannot read topology file {str(topo)!r}: "
        sweep = ["--axis", "packets", "--values", "10", "--out", str(tmp_path / "s.csv")]
        extra = sweep if command == "sweep" else []
        assert main([command, "--config", str(cfg), *extra]) == 2
        assert capsys.readouterr().err.startswith("configuration error: " + expected)

    def test_unwritable_output_is_runtime_error(self, cfg_file, tmp_path):
        out = tmp_path / "no_dir" / "results.csv"
        assert main(["simulate", "--config", cfg_file, "--out", str(out)]) == 3

    def test_topology_file_flow(self, tmp_path, capsys):
        topo = tmp_path / "topo.txt"
        lines = ["%d %d" % (x, y) for x, y in [(5, 5), (95, 5), (5, 95), (95, 95), (50, 8)]]
        lines[1] += " m"
        lines.append("target 40 60")
        topo.write_text("\n".join(lines))
        cfg = tmp_path / "filecfg.cfg"
        cfg.write_text(
            """
            attack.kind = uncoordinated
            attack.sigma_att = 8
            estimators = ls, wls, swls
            trials = 10
            master_seed = 11
            topology.file = %s
            """
            % topo
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert "swls" in capsys.readouterr().out

    def test_relative_topology_file_beside_its_config(self, tmp_path, monkeypatch):
        # a relative topology.file names the file next to the config, from
        # whatever working directory the command runs
        rel, other = tmp_path / "rel", tmp_path / "other"
        rel.mkdir()
        other.mkdir()
        (rel / "anchors.txt").write_text("5 5\n95 5 m\n5 95\n95 95\n50 8\ntarget 40 60\n")
        (rel / "rel.cfg").write_text(DESK_SMALL + "topology.file = anchors.txt\n")
        runs = [(tmp_path, "rel/rel.cfg"), (rel, "rel.cfg"), (other, str(rel / "rel.cfg"))]
        for cwd, config in runs:
            monkeypatch.chdir(cwd)
            out = tmp_path / "out.csv"
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
            assert csv_rows(out)["ls"]["trials_ok"] == "40"

    def test_topology_file_excludes_layout_keys(self, tmp_path, capsys):
        # the file's 5 anchors and target would silently replace these
        topo = tmp_path / "topo.txt"
        topo.write_text("5 5\n95 5 m\n5 95\n95 95\n50 8\ntarget 40 60\n")
        cfg = tmp_path / "filecfg.cfg"
        cfg.write_text(
            DESK_SMALL + f"topology.file = {topo}\nn_anchors = 12\narea = 7\ntarget = 1 1\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: topology.file fixes the layout, "
            "so it excludes n_anchors, area, target\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "detect", "crlb"])
    def test_topology_file_excludes_per_trial(self, tmp_path, capsys, command):
        # A new random layout every trial would silently replace the file's
        # anchors and labels, so the pair is a configuration error.
        topo = tmp_path / "topo.txt"
        topo.write_text("5 5\n95 5 m\n5 95\n95 95\n50 8\n30 70\ntarget 40 60\n")
        cfg = tmp_path / "filecfg.cfg"
        cfg.write_text(
            "attack.kind = uncoordinated\nattack.sigma_att = 8\nestimators = ls, swls\n"
            f"trials = 3\ntopology.file = {topo}\ntopology.per_trial = true\n"
        )
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: topology.file and topology.per_trial" in err


    @pytest.mark.parametrize("command", ["simulate", "crlb"])
    def test_area_too_small_for_the_separation(self, tmp_path, command):
        # Every point of a 1 m square lies within MIN_SEPARATION (1 m) of its
        # centre, so no anchor draw can ever succeed.  A subprocess with a
        # timeout, so that a draw loop that never ends fails the test.
        path = tmp_path / "tiny.cfg"
        path.write_text("area = 1\ntarget = 0.5 0.5\ntrials = 2\nestimators = ls\n")
        src = os.path.dirname(os.path.dirname(secloc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "secloc.cli", command, "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "configuration error: no point of the 1 m area" in proc.stderr


class TestDeskEdgeCases:
    def test_noiseless_desk_has_no_bound(self, tmp_path):
        # sigma = 0: the bound is undefined (it needs sigma > 0), so absent,
        # while every estimator still reports every trial
        out = tmp_path / "out.csv"
        path = desk_file(tmp_path, {"sigma": "0", "trials": "20"})
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert rows.pop("crlb")["crlb_m"] == ""
        assert list(rows) == list(load_config(path).estimators)
        for name, row in rows.items():
            assert row.pop("axis_value") == row.pop("crlb_m") == "", name
            assert all(row.values()), name
            assert int(row["trials_ok"]) + int(row["trials_failed"]) == 20, name

    def test_nearly_all_malicious_desk_counts_failures(self, tmp_path):
        # 95 % malicious anchors: SWLS eliminates too many on every trial,
        # which is counted against it and aborts nothing
        out = tmp_path / "out.csv"
        path = desk_file(tmp_path, {"malicious.fraction": "0.95", "trials": "5"})
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        swls = csv_rows(out)["swls"]
        assert (swls["rmse_m"], swls["trials_ok"], swls["trials_failed"]) == ("", "0", "5")
