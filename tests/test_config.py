import math

import numpy as np
import pytest

from pathlib import Path

from secloc import (
    ESTIMATORS,
    AttackSpec,
    ConfigError,
    DomainError,
    ExperimentConfig,
    PathLossParams,
    Placement,
    apply_axis,
    load_config,
    parse_config,
)
from secloc import config

WORKLOADS = Path(__file__).resolve().parent.parent / "secbench" / "workloads"

# Every key that may only state a solver constant, with that constant: ADMM's,
# then the LMdS and Grad-Desc baselines'.
FIXED_KEYS = [
    ("admm.rho", "ADMM_RHO"),
    ("admm.conv_tol", "ADMM_CONV_TOL"),
    ("admm.max_iters", "ADMM_MAX_ITERS"),
    ("lmds.n_subsets", "LMDS_SUBSETS"),
    ("lmds.subset_size", "LMDS_SUBSET_SIZE"),
    ("grad_desc.step", "GRAD_DESC_STEP"),
    ("grad_desc.max_iters", "GRAD_DESC_MAX_ITERS"),
    ("grad_desc.keep_fraction", "GRAD_DESC_KEEP_FRACTION"),
]

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
        assert cfg.channel == PathLossParams(p0=-10.0, n=4.0, sigma=2.0)
        assert cfg.packets == 10 and cfg.zeta == 1.5
        assert cfg.estimators == ("ls", "wls", "swls")

    def test_full_file_round_trip(self):
        # every accepted key set, each to a non-default value but the fixed
        # keys, which may state only their constants; the three attack
        # variants between them cover the four attack.* keys, and the two
        # layouts cover a drawn layout's keys and topology.file, which fixes
        # the layout and so excludes them
        layouts = (
            (
                "area = 80\nn_anchors = 17\ntarget = 10, 60\ntopology.per_trial = true\n",
                dict(area=80.0, n_anchors=17, target=(10.0, 60.0), topology_per_trial=True),
            ),
            ("topology.file = anchors.txt\n", dict(topology_file="anchors.txt")),
        )
        for attack_lines, attack in (
            (
                "attack.kind = coordinated\nattack.t_att = 70 65\n",
                AttackSpec("coordinated", t_att=(70.0, 65.0)),
            ),
            (
                "attack.kind = coordinated\nattack.distance = 12.5\n",
                AttackSpec("coordinated", distance=12.5),
            ),
            (
                "attack.kind = uncoordinated\nattack.sigma_att = 6\n",
                AttackSpec("uncoordinated", sigma_att=6.0),
            ),
        ):
            for layout_lines, layout in layouts:
                self.check_full_file(attack_lines + layout_lines, dict(layout, attack=attack))

    @staticmethod
    def check_full_file(lines, fields):
        text = lines + """
        p0 = -12.5
        n = 3.5
        sigma = 1.5
        packets = 4
        trials = 33
        master_seed = 77
        malicious.fraction = 0.4
        malicious.placement = within_radius
        malicious.radius = 32
        estimators = wls, lmds, ln1
        zeta = 2.5
        admm.rho = 0.2
        admm.conv_tol = 1e-6
        admm.max_iters = 5000
        lmds.n_subsets = 20
        lmds.subset_size = 4
        grad_desc.step = 0.4
        grad_desc.max_iters = 200
        grad_desc.keep_fraction = 0.5
        """
        expected = ExperimentConfig(
            channel=PathLossParams(p0=-12.5, n=3.5, sigma=1.5),
            packets=4,
            trials=33,
            master_seed=77,
            malicious_fraction=0.4,
            placement=Placement(kind="within_radius", radius=32.0),
            estimators=("wls", "lmds", "ln1"),
            zeta=2.5,
            **fields,
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
            ("n = 0", "channel: path-loss exponent must be > 0, got 0.0"),
            ("attack.kind = jamming", "unknown attack kind 'jamming'"),
            ("area 100", "line 1: expected 'key = value'"),
            ("area =", "line 1: empty key or value"),
        ],
    )
    def test_error_messages(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        assert str(info.value) == message

    # The solvers' settings are constants of planefit (ADMM) and estimators
    # (LMdS, Grad-Desc): a config may state them, as the coord-fixed
    # workload does, and no other value.
    @pytest.mark.parametrize("key, constant", FIXED_KEYS[:3])
    def test_admm_keys_state_only_their_constants(self, key, constant):
        self.check_fixed_key(key, constant)

    @pytest.mark.parametrize("key, constant", FIXED_KEYS[3:])
    def test_baseline_keys_state_only_their_constants(self, key, constant):
        self.check_fixed_key(key, constant)

    @staticmethod
    def check_fixed_key(key, constant):
        module = config._KEYS[key][0]
        value = getattr(module, constant)
        assert parse_config(MINIMAL + f"{key} = {value!r}\n") == parse_config(MINIMAL)
        other = repr(value * 2)
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + f"{key} = {other}\n")
        where = module.__name__.rpartition(".")[2]
        assert str(info.value) == f"{key}: fixed at {where}.{constant} = {value!r}, got {other!r}"

    # Integers were parsed through float, so seeds past 2**53 collapsed:
    # two different master seeds ran the same trials.
    @pytest.mark.parametrize(
        "text, value",
        [
            ("9007199254740993", 2**53 + 1),
            ("18446744073709551615", 2**64 - 1),
            ("1e3", 1000),
            ("10.0", 10),
        ],
    )
    def test_integers_parse_exactly(self, text, value):
        seed = parse_config(MINIMAL + f"master_seed = {text}\n").master_seed
        assert type(seed) is int and seed == value


GOLDEN = {
    "desk": ExperimentConfig(
        trials=500,
        master_seed=20260810,
        attack=AttackSpec("uncoordinated", sigma_att=8.0),
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"),
    ),
    "paper": ExperimentConfig(
        trials=5000,
        master_seed=20260810,
        attack=AttackSpec("uncoordinated", sigma_att=8.0),
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls", "ml", "lmds", "grad_desc", "ln1"),
    ),
    "coord-fixed.cfg": ExperimentConfig(
        trials=100,
        master_seed=20260810,
        attack=AttackSpec("coordinated", t_att=(75.0, 75.0)),
        malicious_fraction=0.28,
        estimators=("wls", "lmds", "grad_desc", "ln1", "ln1e"),
    ),
    "sweep-closed-form.cfg": ExperimentConfig(
        trials=100,
        master_seed=20260810,
        topology_per_trial=True,
        attack=AttackSpec("uncoordinated", sigma_att=8.0),
        malicious_fraction=0.28,
        estimators=("ls", "wls", "swls"),
    ),
}


def test_every_workload_has_golden_values():
    assert {path.name for path in WORKLOADS.glob("*.cfg")} <= GOLDEN.keys()


def test_coord_fixed_states_only_the_fixed_keys():
    # the workload states every fixed key; dropping those lines changes nothing
    text = (WORKLOADS / "coord-fixed.cfg").read_text(encoding="utf-8")
    fixed = {key for key, _ in FIXED_KEYS}
    lines = text.splitlines()
    kept = [line for line in lines if line.split("=")[0].strip() not in fixed]
    assert len(lines) - len(kept) == len(fixed)
    assert parse_config(text) == parse_config("\n".join(kept))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_configs_parse_to_golden_values(name):
    source = WORKLOADS / name if name.endswith(".cfg") else name
    cfg = load_config(source)
    assert cfg == GOLDEN[name]
    assert repr(cfg) == repr(GOLDEN[name])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_channels_resolve_ranges(name):
    # one float step of RSSI at each shipped p0 moves a range by far less
    # than the 0.1 % that PathLossParams.check_resolution rejects
    load_config(WORKLOADS / name if name.endswith(".cfg") else name).channel.check_resolution()


class TestValidation:
    def test_attack_parameter_pairing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(attack=AttackSpec("uncoordinated"), estimators=("ls",))
        with pytest.raises(ConfigError):
            ExperimentConfig(attack=AttackSpec("coordinated"), estimators=("wls",))
        with pytest.raises(ConfigError, match="exactly one of t_att and distance"):
            ExperimentConfig(
                attack=AttackSpec("coordinated", t_att=(60.0, 60.0), distance=5.0),
                estimators=("wls",),
            )

    def test_applicability_matrix_enforced(self):
        coordinated = AttackSpec("coordinated", distance=10.0)
        with pytest.raises(ConfigError):  # SWLS keys on power variance
            ExperimentConfig(attack=coordinated, estimators=("swls",))
        with pytest.raises(ConfigError):  # ML only compared under uncoordinated
            ExperimentConfig(attack=coordinated, estimators=("ml",))
        with pytest.raises(ConfigError):  # LN-1E needs the second plane
            ExperimentConfig(
                attack=AttackSpec("uncoordinated", sigma_att=4.0), estimators=("ln1e",)
            )
        with pytest.raises(ConfigError):  # LS only compared under uncoordinated
            ExperimentConfig(attack=coordinated, estimators=("ls",))
        # every estimator is allowed when there is no attack
        ExperimentConfig(attack=AttackSpec("none"), estimators=("ls", "swls", "ml", "ln1e"))

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
            "none": AttackSpec(),
            "uncoordinated": AttackSpec("uncoordinated", sigma_att=4.0),
            "coordinated": AttackSpec("coordinated", distance=10.0),
        }[attack_kind]
        if name in accepted[attack_kind]:
            ExperimentConfig(attack=attack, estimators=(name,))
        else:
            with pytest.raises(ConfigError, match="not applicable"):
                ExperimentConfig(attack=attack, estimators=(name,))
        assert ESTIMATORS[name].detector == (name in ("swls", "ln1e"))

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(estimators=("ls", "magic"))

    def test_duplicate_estimator_rejected(self):
        with pytest.raises(ConfigError, match="'ls' is listed more than once"):
            ExperimentConfig(estimators=("ls", "ls", "wls"))

    def test_duplicate_estimator_in_file_rejected(self):
        with pytest.raises(ConfigError, match="'wls' is listed more than once"):
            parse_config(MINIMAL.replace("ls, wls, swls", "ls, wls, swls, wls"))

    # Config files reject these numbers as they are parsed; a config built in
    # Python must fail as early, and not as a failure count or a run-time error.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, build",
        [
            ("zeta", lambda v: ExperimentConfig(zeta=v)),
            ("area", lambda v: ExperimentConfig(area=v)),
            ("target", lambda v: ExperimentConfig(target=(v, 0.0))),
            ("radius", lambda v: Placement("within_radius", radius=v)),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, build, value):
        with pytest.raises(ConfigError, match=field):
            build(value)

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


class TestProfilesAndAxis:
    def test_builtin_profiles(self):
        desk = load_config("desk")
        paper = load_config("paper")
        assert desk.trials == 500 and paper.trials == 5000
        assert desk.attack.kind == "uncoordinated"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_topology_file_is_relative_to_its_config(self, tmp_path, monkeypatch):
        # load_config resolves a relative topology.file against the config
        # file's directory; an absolute one, and parse_config, keep the text
        (tmp_path / "rel").mkdir()
        path = tmp_path / "rel" / "rel.cfg"
        path.write_text(MINIMAL + "topology.file = anchors.txt\n")
        monkeypatch.chdir(tmp_path)
        assert load_config("rel/rel.cfg").topology_file == str(Path("rel") / "anchors.txt")
        assert load_config(path).topology_file == str(tmp_path / "rel" / "anchors.txt")
        assert parse_config(path.read_text()).topology_file == "anchors.txt"
        absolute = str(tmp_path / "elsewhere" / "anchors.txt")
        path.write_text(MINIMAL + f"topology.file = {absolute}\n")
        assert load_config(path).topology_file == absolute
        (tmp_path / "plain.cfg").write_text(MINIMAL + "topology.file = anchors.txt\n")
        assert load_config("plain.cfg").topology_file == "anchors.txt"

    @pytest.mark.parametrize(
        "lines, stated",
        [
            ("n_anchors = 12\n", "n_anchors"),
            ("area = 7\n", "area"),
            ("target = 1 1\n", "target"),
        ],
        ids=["n_anchors", "area", "target"],
    )
    def test_topology_file_excludes_layout_keys(self, lines, stated):
        # the file fixes the anchors and the target, so a drawn layout's keys
        # beside it would be ignored
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + "topology.file = anchors.txt\n" + lines)
        assert str(info.value) == f"topology.file fixes the layout, so it excludes {stated}"

    def test_apply_axis(self):
        cfg = parse_config(MINIMAL)
        assert apply_axis(cfg, "sigma_att", 12.0).attack.sigma_att == 12.0
        assert apply_axis(cfg, "packets", 2).packets == 2
        assert apply_axis(cfg, "malicious_fraction", 0.5).malicious_fraction == 0.5

    def test_axis_attack_mismatch(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "attack_distance", 10.0)
        coord = ExperimentConfig(
            attack=AttackSpec("coordinated", t_att=(60.0, 60.0)), estimators=("wls", "ln1e")
        )
        with pytest.raises(ConfigError):
            apply_axis(coord, "sigma_att", 4.0)
        swept = apply_axis(coord, "attack_distance", 16.97)
        assert swept.attack == AttackSpec("coordinated", distance=16.97)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "packets", 2.5)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                apply_axis(cfg, "packets", value)
        with pytest.raises(ConfigError):
            apply_axis(cfg, "voltage", 1.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"packets": 0}, "packets must be >= 1"), ({"estimators": ()}, "no estimators enabled")],
    ids=["no-packets", "no-estimators"],
)
def test_empty_run_is_config_error(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("text, value", [("false", False), ("No", False), ("0", False)])
def test_false_booleans_parse(text, value):
    cfg = parse_config(MINIMAL + f"topology.per_trial = {text}\n")
    assert cfg.topology_per_trial is value
