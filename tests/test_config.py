import pytest

from secloc import (
    ESTIMATORS,
    ConfigError,
    ExperimentConfig,
    apply_axis,
    load_config,
    parse_config,
)

MINIMAL = """
attack.kind = uncoordinated
attack.sigma_att = 8
malicious.fraction = 0.28
estimators = ls, wls, swls
trials = 50
"""


class TestParse:
    def test_defaults_cover_standard_scenario(self):
        cfg = parse_config(MINIMAL)
        assert cfg.area == 100.0 and cfg.n_anchors == 29
        assert cfg.p0 == -10.0 and cfg.n == 4.0 and cfg.sigma == 2.0
        assert cfg.packets == 10 and cfg.zeta == 1.5
        assert cfg.admm.rho == 0.2 and cfg.admm.conv_tol == 1e-6
        assert cfg.admm.max_iters == 5000
        assert cfg.lmds.n_subsets == 20 and cfg.lmds.subset_size == 4
        assert cfg.grad_desc.step == 0.4 and cfg.grad_desc.max_iters == 200
        assert cfg.grad_desc.keep_fraction == 0.5
        assert cfg.estimators == ("ls", "wls", "swls")

    def test_full_file_round_trip(self):
        text = MINIMAL + """
        area = 80
        target = 10, 60
        sigma = 1.5
        packets = 4
        master_seed = 77
        malicious.placement = within_radius
        malicious.radius = 32
        admm.rho = 0.3
        grad_desc.step = 0.2
        topology.per_trial = true
        """
        cfg = parse_config(text)
        assert cfg.area == 80.0
        assert cfg.target == (10.0, 60.0)
        assert cfg.master_seed == 77
        assert cfg.placement.kind == "within_radius" and cfg.placement.radius == 32.0
        assert cfg.admm.rho == 0.3
        assert cfg.grad_desc.step == 0.2
        assert cfg.topology_per_trial is True

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# c\n\n" + MINIMAL + "\nzeta = 2.0  # inline\n")
        assert cfg.zeta == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\nmystery.knob = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\ntrials = 2\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("area 100\n")
        with pytest.raises(ConfigError):
            parse_config("packets = ten\n")
        with pytest.raises(ConfigError):
            parse_config("packets = 2.5\n")
        with pytest.raises(ConfigError):
            parse_config("target = 1 2 3\n")


class TestValidation:
    def test_attack_parameter_pairing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(attack_kind="uncoordinated", estimators=("ls",))
        with pytest.raises(ConfigError):
            ExperimentConfig(attack_kind="coordinated", estimators=("wls",))
        with pytest.raises(ConfigError):
            ExperimentConfig(
                attack_kind="coordinated",
                estimators=("wls",),
                t_att=(60.0, 60.0),
                attack_distance=5.0,
            )

    def test_applicability_matrix_enforced(self):
        with pytest.raises(ConfigError):  # SWLS keys on power variance
            ExperimentConfig(
                attack_kind="coordinated", attack_distance=10.0, estimators=("swls",)
            )
        with pytest.raises(ConfigError):  # ML only compared under uncoordinated
            ExperimentConfig(
                attack_kind="coordinated", attack_distance=10.0, estimators=("ml",)
            )
        with pytest.raises(ConfigError):  # LN-1E needs the second plane
            ExperimentConfig(
                attack_kind="uncoordinated", sigma_att=4.0, estimators=("ln1e",)
            )
        with pytest.raises(ConfigError):  # LS only compared under uncoordinated
            ExperimentConfig(
                attack_kind="coordinated", attack_distance=10.0, estimators=("ls",)
            )
        # every estimator is allowed when there is no attack
        ExperimentConfig(attack_kind="none", estimators=("ls", "swls", "ml", "ln1e"))

    @pytest.mark.parametrize("attack_kind", ["none", "uncoordinated", "coordinated"])
    @pytest.mark.parametrize(
        "name", ["ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1", "ln1e"]
    )
    def test_applicability_table(self, name, attack_kind):
        accepted = {
            "none": {"ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1", "ln1e"},
            "uncoordinated": {"ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"},
            "coordinated": {"wls", "lmds", "grad_desc", "ln1", "ln1e"},
        }
        attack = {
            "none": {},
            "uncoordinated": {"sigma_att": 4.0},
            "coordinated": {"attack_distance": 10.0},
        }[attack_kind]
        if name in accepted[attack_kind]:
            ExperimentConfig(attack_kind=attack_kind, estimators=(name,), **attack)
        else:
            with pytest.raises(ConfigError, match="not applicable"):
                ExperimentConfig(attack_kind=attack_kind, estimators=(name,), **attack)
        assert ESTIMATORS[name].detector == (name in ("swls", "ln1e"))

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(estimators=("ls", "magic"))

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(malicious_fraction=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_anchors=2)


class TestProfilesAndAxis:
    def test_builtin_profiles(self):
        desk = load_config("desk")
        paper = load_config("paper")
        assert desk.trials == 500 and paper.trials == 5000
        assert desk.attack_kind == "uncoordinated"
        assert desk.admm.max_iters == 5000

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_apply_axis(self):
        cfg = parse_config(MINIMAL)
        assert apply_axis(cfg, "sigma_att", 12.0).sigma_att == 12.0
        assert apply_axis(cfg, "packets", 2).packets == 2
        assert apply_axis(cfg, "malicious_fraction", 0.5).malicious_fraction == 0.5

    def test_axis_attack_mismatch(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "attack_distance", 10.0)
        coord = ExperimentConfig(
            attack_kind="coordinated", attack_distance=10.0, estimators=("wls", "ln1e")
        )
        with pytest.raises(ConfigError):
            apply_axis(coord, "sigma_att", 4.0)
        assert apply_axis(coord, "attack_distance", 16.97).attack_distance == 16.97
        with pytest.raises(ConfigError):
            apply_axis(cfg, "packets", 2.5)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "voltage", 1.0)

    def test_resolve_t_att_diagonal(self):
        import numpy as np

        coord = ExperimentConfig(
            attack_kind="coordinated", attack_distance=16.97, estimators=("wls",)
        )
        t_att = coord.resolve_t_att(np.array([50.0, 50.0]))
        assert np.linalg.norm(t_att - [50.0, 50.0]) == pytest.approx(16.97, rel=1e-12)
        np.testing.assert_allclose(t_att, [62.0, 62.0], atol=0.01)
