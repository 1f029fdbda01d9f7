import csv
import xml.etree.ElementTree as ET

import pytest

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
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_config_contents(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("attack.kind = coordinated\nestimators = swls\n")
        assert main(["simulate", "--config", str(path)]) == 2

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
