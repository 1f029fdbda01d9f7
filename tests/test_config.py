import numpy as np
import pytest

from pathlib import Path

from hypothesis import given, settings, strategies as st

from secloc import (
    ESTIMATORS,
    AdmmParams,
    ConfigError,
    DomainError,
    ExperimentConfig,
    GradDescParams,
    LmdsParams,
    Placement,
    apply_axis,
    load_config,
    parse_config,
)
from secloc.attacks import ATTACK_KINDS

WORKLOADS = Path(__file__).resolve().parent.parent / "secbench" / "workloads"

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
        # every accepted key set to a non-default value; the three attack
        # variants between them cover the four attack.* keys
        for attack_lines, attack_fields in (
            (
                "attack.kind = coordinated\nattack.t_att = 70 65\n",
                dict(attack_kind="coordinated", t_att=(70.0, 65.0)),
            ),
            (
                "attack.kind = coordinated\nattack.distance = 12.5\n",
                dict(attack_kind="coordinated", attack_distance=12.5),
            ),
            (
                "attack.kind = uncoordinated\nattack.sigma_att = 6\n",
                dict(attack_kind="uncoordinated", sigma_att=6.0),
            ),
        ):
            self.check_full_file(attack_lines, attack_fields)

    @staticmethod
    def check_full_file(attack_lines, attack_fields):
        text = attack_lines + """
        area = 80
        n_anchors = 17
        target = 10, 60
        p0 = -12.5
        n = 3.5
        sigma = 1.5
        packets = 4
        trials = 33
        master_seed = 77
        malicious.fraction = 0.4
        malicious.placement = within_radius
        malicious.radius = 32
        malicious.center = 20 30
        estimators = wls, lmds, ln1
        zeta = 2.5
        admm.rho = 0.3
        admm.conv_tol = 1e-7
        admm.max_iters = 900
        lmds.n_subsets = 12
        lmds.subset_size = 5
        grad_desc.step = 0.2
        grad_desc.max_iters = 150
        grad_desc.keep_fraction = 0.75
        topology.file = anchors.txt
        topology.per_trial = true
        """
        expected = ExperimentConfig(
            area=80.0,
            n_anchors=17,
            target=(10.0, 60.0),
            p0=-12.5,
            n=3.5,
            sigma=1.5,
            packets=4,
            trials=33,
            master_seed=77,
            malicious_fraction=0.4,
            placement=Placement(kind="within_radius", radius=32.0, center=(20.0, 30.0)),
            estimators=("wls", "lmds", "ln1"),
            zeta=2.5,
            admm=AdmmParams(rho=0.3, conv_tol=1e-7, max_iters=900),
            lmds=LmdsParams(n_subsets=12, subset_size=5),
            grad_desc=GradDescParams(step=0.2, max_iters=150, keep_fraction=0.75),
            topology_file="anchors.txt",
            topology_per_trial=True,
            **attack_fields,
        )
        assert parse_config(text) == expected
        assert repr(parse_config(text)) == repr(expected)

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

    def test_unknown_keys_listed_sorted(self):
        with pytest.raises(ConfigError, match=r"^unknown config keys: a\.b, zz$"):
            parse_config(MINIMAL + "\nzz = 1\na.b = 2\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("packets = ten", "packets: expected a number, got 'ten'"),
            ("packets = 2.5", "packets: expected an integer, got '2.5'"),
            ("target = 1 2 3", "target: expected two coordinates, got '1 2 3'"),
            ("topology.per_trial = maybe", "topology.per_trial: expected a boolean, got 'maybe'"),
            ("admm.max_iters = x", "admm.max_iters: expected a number, got 'x'"),
            ("area 100", "line 1: expected 'key = value'"),
            ("area =", "line 1: empty key or value"),
        ],
    )
    def test_error_messages(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        assert str(info.value) == message


GOLDEN = {
    "desk": ExperimentConfig(
        trials=500,
        master_seed=20260810,
        attack_kind="uncoordinated",
        sigma_att=8.0,
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"),
    ),
    "paper": ExperimentConfig(
        trials=5000,
        master_seed=20260810,
        attack_kind="uncoordinated",
        sigma_att=8.0,
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"),
    ),
    "coord-fixed.cfg": ExperimentConfig(
        trials=100,
        master_seed=20260810,
        attack_kind="coordinated",
        t_att=(75.0, 75.0),
        malicious_fraction=0.28,
        estimators=("wls", "lmds", "grad_desc", "ln1", "ln1e"),
    ),
    "sweep-closed-form.cfg": ExperimentConfig(
        trials=100,
        master_seed=20260810,
        topology_per_trial=True,
        attack_kind="uncoordinated",
        sigma_att=8.0,
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls"),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_configs_parse_to_golden_values(name):
    source = WORKLOADS / name if name.endswith(".cfg") else name
    cfg = load_config(source)
    assert cfg == GOLDEN[name]
    assert repr(cfg) == repr(GOLDEN[name])


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

    # A float count passes the range checks and would crash later, in range(),
    # rng.normal or SeedSequence, with an untyped TypeError.
    @pytest.mark.parametrize("field", ["trials", "packets", "n_anchors", "master_seed"])
    def test_counts_must_be_integers(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            ExperimentConfig(**{field: 10.5})
        assert getattr(ExperimentConfig(**{field: np.int64(10)}), field) == 10

    def test_master_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(master_seed=-1)

    @pytest.mark.parametrize(
        "settings, field",
        [
            (AdmmParams, "max_iters"),
            (LmdsParams, "n_subsets"),
            (LmdsParams, "subset_size"),
            (GradDescParams, "max_iters"),
        ],
    )
    def test_solver_counts_must_be_integers(self, settings, field):
        with pytest.raises(DomainError):
            settings(**{field: 4.5})
        assert getattr(settings(**{field: np.int64(4)}), field) == 4


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
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                apply_axis(cfg, "packets", value)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "voltage", 1.0)

    def test_resolve_t_att_diagonal(self):
        import numpy as np

        coord = ExperimentConfig(
            attack_kind="coordinated", attack_distance=16.97, estimators=("wls",)
        )
        t_att = coord.attack_spec(np.array([50.0, 50.0])).t_att
        assert np.linalg.norm(t_att - [50.0, 50.0]) == pytest.approx(16.97, rel=1e-12)
        np.testing.assert_allclose(t_att, [62.0, 62.0], atol=0.01)


_OPTIONAL_NUMBER = (
    st.none() | st.floats(-1e6, 1e6) | st.sampled_from([float("nan"), float("inf")])
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    attack_kind=st.sampled_from(ATTACK_KINDS),
    sigma_att=_OPTIONAL_NUMBER,
    t_att=st.none() | st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    attack_distance=_OPTIONAL_NUMBER,
)
def test_attack_fields_rejected_or_kept(attack_kind, sigma_att, t_att, attack_distance):
    """A config either fails to load or its attack keeps every field it set."""
    try:
        cfg = ExperimentConfig(
            attack_kind=attack_kind,
            sigma_att=sigma_att,
            t_att=t_att,
            attack_distance=attack_distance,
            estimators=("wls",),
        )
    except ConfigError:
        return
    spec = cfg.attack_spec(cfg.target)
    assert spec.kind == attack_kind
    assert spec.sigma_att == cfg.sigma_att
    assert (spec.t_att is None) == (t_att is None and attack_distance is None)
