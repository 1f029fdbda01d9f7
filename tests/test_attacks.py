import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secloc import (
    AttackSpec,
    ConfigError,
    ExperimentConfig,
    PathLossParams,
    Placement,
    Topology,
    distance_from_rssi,
    mean_rssi,
    parse_topology,
    random_topology,
    select_malicious,
    simulate_measurements,
)
from secloc.attacks import ATTACK_KINDS, random_topologies, simulate_rssi_stack

P = PathLossParams(p0=-10.0, n=4.0, sigma=2.0)
P0 = PathLossParams(p0=-10.0, n=4.0, sigma=0.0)

SQUARE = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])


def square_topology(malicious=()):
    return Topology(anchors=SQUARE, target=np.array([40.0, 60.0]), malicious=malicious)


class TestTopology:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Topology(anchors=SQUARE[:2], target=[50, 50])
        with pytest.raises(ConfigError):
            Topology(anchors=SQUARE, target=[0.0, 0.0])  # coincides with anchor
        with pytest.raises(ConfigError):
            Topology(anchors=SQUARE, target=[50, 50], malicious={7})
        collinear = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        with pytest.raises(ConfigError):
            Topology(anchors=collinear, target=[5.0, 5.0])

    def test_overflowing_distance_rejected(self):
        # Coordinates of 1e154 or more square to inf inside the norm: a typed
        # error, with no numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="distance overflows"):
                Topology(anchors=SQUARE, target=[5e299, 5e299])
            with pytest.raises(ConfigError, match="distance overflows"):
                random_topology(5, 1e300, target=(5e299, 5e299), seed=1)

    def test_distances_and_mask(self):
        topo = square_topology(malicious={1, 3})
        assert topo.distances() == pytest.approx(
            [math.hypot(40, 60), math.hypot(60, 60), math.hypot(40, 40), math.hypot(60, 40)]
        )
        assert list(topo.malicious_mask()) == [False, True, False, True]
        assert topo.with_malicious({0}).malicious == frozenset({0})

    def test_relabel_shares_the_checked_geometry(self, monkeypatch):
        # Relabelling checks only the labels: the anchors and target were
        # checked when the topology was made, so no SVD runs again.
        topo = square_topology(malicious={1})

        def no_svd(*args, **kwargs):
            raise AssertionError("relabelling re-checked the geometry")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        relabelled = topo.with_malicious(np.array([0, 3]))
        assert relabelled.malicious == frozenset({0, 3})
        assert all(type(i) is int for i in relabelled.malicious)
        assert relabelled.anchors is topo.anchors and relabelled.target is topo.target
        assert topo.malicious == frozenset({1})
        for bad in ({4}, {-1}, {0, 7}):
            with pytest.raises(ConfigError, match="out of range"):
                topo.with_malicious(bad)


class TestAttackSpec:
    def test_kind_field_consistency(self):
        AttackSpec("none")
        AttackSpec("uncoordinated", sigma_att=6.0)
        AttackSpec("coordinated", t_att=(60.0, 60.0))
        with pytest.raises(ConfigError):
            AttackSpec("uncoordinated")
        with pytest.raises(ConfigError):
            AttackSpec("uncoordinated", sigma_att=-1.0)
        with pytest.raises(ConfigError):
            AttackSpec("coordinated")
        with pytest.raises(ConfigError):
            AttackSpec("coordinated", t_att=(60, 60), sigma_att=2.0)
        with pytest.raises(ConfigError):
            AttackSpec("none", sigma_att=1.0)
        with pytest.raises(ConfigError):
            AttackSpec("jamming")
        with pytest.raises(ConfigError, match="exactly one of t_att and distance"):
            AttackSpec("coordinated", t_att=(60.0, 60.0), distance=5.0)
        with pytest.raises(ConfigError, match="only valid for a coordinated attack"):
            AttackSpec("uncoordinated", sigma_att=6.0, distance=5.0)
        with pytest.raises(ConfigError, match="two finite coordinates"):
            AttackSpec("coordinated", t_att=(1.0, 2.0, 3.0))
        with pytest.raises(ConfigError, match="distance must be finite"):
            AttackSpec("coordinated", distance=math.inf)

    def test_compares_and_prints_by_value(self):
        spec = AttackSpec("coordinated", t_att=np.array([75, 75]))
        assert spec.t_att == (75.0, 75.0) and type(spec.t_att[0]) is float
        assert spec == AttackSpec("coordinated", t_att=(75.0, 75.0))
        assert hash(spec) == hash(AttackSpec("coordinated", t_att=(75.0, 75.0)))
        assert spec != AttackSpec("coordinated", distance=35.36)
        assert repr(spec) == (
            "AttackSpec(kind='coordinated', sigma_att=None, t_att=(75.0, 75.0), distance=None)"
        )

    def test_resolve_t_att_diagonal(self):
        t_att = AttackSpec("coordinated", distance=16.97).decoy(np.array([50.0, 50.0]))
        assert np.linalg.norm(t_att - [50.0, 50.0]) == pytest.approx(16.97, rel=1e-12)
        np.testing.assert_allclose(t_att, [62.0, 62.0], atol=0.01)
        fixed = AttackSpec("coordinated", t_att=(70.0, 20.0)).decoy([50.0, 50.0])
        assert fixed.dtype == float and fixed.tolist() == [70.0, 20.0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        target=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        distance=st.floats(-1e6, 1e6),
    )
    def test_decoy_is_the_diagonal_formula_bit_for_bit(self, target, distance):
        # The formula the config used to apply before building the spec; the
        # coordinated reference rows rest on these exact bits.
        got = AttackSpec("coordinated", distance=distance).decoy(target)
        want = np.asarray(target, dtype=float) + distance / math.sqrt(2.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSimulateMeasurements:
    def test_zero_noise_rows_are_constant(self):
        topo = square_topology()
        m = simulate_measurements(topo, P0, AttackSpec("none"), 7, seed=1)
        expected = mean_rssi(P0, topo.distances())
        assert np.allclose(m, expected[:, None], atol=0, rtol=0)
        assert m.shape == (4, 7)

    def test_decoy_at_target_matches_no_attack(self):
        topo = square_topology(malicious={0, 2})
        honest = simulate_measurements(topo, P0, AttackSpec("none"), 5, seed=3)
        decoy = simulate_measurements(
            topo, P0, AttackSpec("coordinated", t_att=topo.target), 5, seed=3
        )
        assert np.array_equal(honest, decoy)

    def test_uncoordinated_inflates_row_variance(self):
        topo = square_topology(malicious={1})
        m = simulate_measurements(
            topo, P, AttackSpec("uncoordinated", sigma_att=6.0), 100_000, seed=5
        )
        var = np.var(m, axis=1, ddof=1)
        # sample variance of P samples: 3-sigma band ~ 3*var*sqrt(2/P)
        assert abs(var[1] - 40.0) <= 3 * 40.0 * math.sqrt(2 / 100_000)
        for i in (0, 2, 3):
            assert abs(var[i] - 4.0) <= 3 * 4.0 * math.sqrt(2 / 100_000)

    def test_row_means_converge(self):
        topo = square_topology()
        packets = 100_000
        m = simulate_measurements(topo, P, AttackSpec("none"), packets, seed=6)
        expected = mean_rssi(P, topo.distances())
        band = 3 * P.sigma / math.sqrt(packets)
        assert np.all(np.abs(m.mean(axis=1) - expected) <= band)

    def test_coordinated_rows_invert_to_decoy_distance(self):
        topo = square_topology(malicious={0, 3})
        t_att = np.array([70.0, 20.0])
        m = simulate_measurements(topo, P0, AttackSpec("coordinated", t_att=t_att), 3, seed=7)
        inverted = distance_from_rssi(P0, m[:, 0])
        for i in range(4):
            want = (
                np.linalg.norm(t_att - SQUARE[i])
                if i in topo.malicious
                else topo.distances()[i]
            )
            assert inverted[i] == pytest.approx(want, rel=1e-9)

    def test_reproducible(self):
        topo = square_topology(malicious={1})
        spec = AttackSpec("uncoordinated", sigma_att=4.0)
        a = simulate_measurements(topo, P, spec, 50, seed=42)
        b = simulate_measurements(topo, P, spec, 50, seed=42)
        c = simulate_measurements(topo, P, spec, 50, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_decoy_on_anchor_rejected(self):
        topo = square_topology(malicious={1})
        with pytest.raises(ConfigError):
            simulate_measurements(
                topo, P0, AttackSpec("coordinated", t_att=SQUARE[2]), 3, seed=1
            )

    @pytest.mark.parametrize(
        "attack",
        [
            AttackSpec("coordinated", t_att=(1e300, 1e300)),
            AttackSpec("coordinated", distance=1e300),
        ],
        ids=["t_att", "distance"],
    )
    def test_overflowing_decoy_rejected(self, attack):
        topo = square_topology(malicious={1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="ranges overflow"):
                simulate_measurements(topo, P0, attack, 3, seed=1)

    @pytest.mark.parametrize(
        "attack",
        [
            AttackSpec("none"),
            AttackSpec("uncoordinated", sigma_att=6.0),
            AttackSpec("coordinated", t_att=(70.0, 20.0)),
            AttackSpec("coordinated", distance=12.0),
        ],
        ids=["none", "uncoordinated", "t_att", "distance"],
    )
    def test_stack_is_each_trial_alone(self, attack):
        # layouts with and without malicious anchors, and different targets,
        # in one stack: each trial's array is its lone simulation's
        topos = [
            square_topology(malicious={1, 3}),
            square_topology(),
            Topology(anchors=SQUARE + 3.0, target=[20.0, 30.0], malicious={0}),
        ]
        seeds = [21, 22, 23]
        stack = simulate_rssi_stack(topos, P, attack, 6, seeds)
        assert stack.shape == (3, 4, 6)
        for topo, seed, rssi in zip(topos, seeds, stack):
            alone = simulate_measurements(topo, P, attack, 6, seed=seed)
            assert rssi.tobytes() == alone.tobytes()

    def test_packet_count_validated(self):
        with pytest.raises(ConfigError):
            simulate_measurements(square_topology(), P, AttackSpec("none"), 0, seed=1)
        # noise so loud that packets overflow: the simulation's own check,
        # with no numpy warning on the way
        loud = PathLossParams(p0=-10.0, n=4.0, sigma=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite entries"):
                simulate_measurements(square_topology(), loud, AttackSpec("none"), 10, seed=1)


class TestSelectMalicious:
    def test_extremes(self):
        assert select_malicious(10, 0.0, seed=1) == frozenset()
        assert select_malicious(10, 1.0, seed=1) == frozenset(range(10))

    def test_rounded_count(self):
        assert len(select_malicious(29, 0.28, seed=1)) == 8

    def test_deterministic(self):
        assert select_malicious(29, 0.3, seed=9) == select_malicious(29, 0.3, seed=9)

    def test_eligibility_pool(self):
        chosen = select_malicious(10, 0.3, seed=2, eligible=[0, 1, 2])
        assert chosen <= {0, 1, 2} and len(chosen) == 3

    def test_infeasible_constraint(self):
        with pytest.raises(ConfigError):
            select_malicious(10, 0.5, seed=2, eligible=[0, 1])
        with pytest.raises(ConfigError):
            select_malicious(10, 1.5, seed=2)

    def test_placement_eligibility(self):
        # the radius is measured from the trial's target, the attacked node
        anchors = [[10.0, 20.0], [20.0, 10.0], [70.0, 10.0]]
        topology = Topology(anchors=anchors, target=(10.0, 10.0))
        within = Placement("within_radius", radius=20.0)
        beyond = Placement("beyond_radius", radius=20.0)
        assert list(within.eligible(topology)) == [0, 1]
        assert list(beyond.eligible(topology)) == [2]
        assert list(Placement().eligible(topology)) == [0, 1, 2]
        with pytest.raises(ConfigError):
            Placement("within_radius", radius=0.0)


class TestRandomTopology:
    def test_bounds_and_separation(self):
        topo = random_topology(50, 100.0, seed=11)
        assert topo.anchors.shape == (50, 2)
        assert np.all((topo.anchors >= 0) & (topo.anchors <= 100))
        assert np.all(topo.distances() >= 1.0)
        assert topo.target == pytest.approx([50.0, 50.0])

    def test_deterministic(self):
        a = random_topology(20, 100.0, seed=12)
        b = random_topology(20, 100.0, seed=12)
        assert np.array_equal(a.anchors, b.anchors)

    def test_stack_is_each_seed_alone(self):
        # on a 3 m area about a third of the draws fall within 1 m of the
        # target, so the layouts draw again; each stays its seed's own, its
        # first draw's kept anchors first
        seeds = [np.random.SeedSequence(5, spawn_key=(k,)) for k in range(6)]
        redrawn = 0
        for seed, topo in zip(seeds, random_topologies(12, 3.0, seeds)):
            alone = random_topology(12, 3.0, seed=seed)
            assert topo.anchors.tobytes() == alone.anchors.tobytes()
            assert np.array_equal(topo.target, alone.target) and not topo.malicious
            first = np.random.default_rng(seed).uniform(0.0, 3.0, size=(12, 2))
            kept = first[np.linalg.norm(first - 1.5, axis=1) >= 1.0]
            assert np.array_equal(topo.anchors[: len(kept)], kept)
            redrawn += len(kept) < 12
        assert redrawn == 6

    def test_stack_checks_as_one_layout(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="distance overflows"):
                random_topologies(5, 1e300, [1, 2, 3], target=(5e299, 5e299))

    # -1 reached numpy's ValueError in np.empty, 2.5 a TypeError
    @pytest.mark.parametrize("n_anchors", [-1, 2, 2.5])
    def test_anchor_count_is_config_error(self, n_anchors):
        with pytest.raises(ConfigError, match="at least 3 anchors"):
            random_topology(n_anchors, 100.0, seed=12)

    @pytest.mark.parametrize(
        "area, target",
        [
            (math.nan, None),
            (math.inf, None),
            (-1.0, None),
            (100.0, (math.nan, 50.0)),
            (100.0, (50.0, math.inf)),
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, area, target):
        # a nan target would otherwise never pass the separation test
        with pytest.raises(ConfigError):
            random_topology(5, area, target=target, seed=1)


class TestTopologyFile:
    def test_parse_with_malicious_marks(self):
        text = """
        # three anchors, middle one compromised
        0 0
        10 0 m
        0 10
        target 3 4
        """
        topo = parse_topology(text)
        np.testing.assert_allclose(topo.anchors, [[0, 0], [10, 0], [0, 10]])
        assert topo.malicious == frozenset({1})
        assert topo.target == pytest.approx([3.0, 4.0])

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            parse_topology("0 0\n1 1\n2 2\n")  # no target
        with pytest.raises(ConfigError):
            parse_topology("0 0 x\n1 0\n0 1\ntarget 5 5")
        with pytest.raises(ConfigError):
            parse_topology("0 0\n1 0\n0 1\ntarget 5\n")
        with pytest.raises(ConfigError):
            parse_topology("0 0\n1 0\n0 1\ntarget 1 1\ntarget 2 2\n")
        with pytest.raises(ConfigError):
            parse_topology("0 0\nzero one\n0 1\ntarget 5 5")


_OPTIONAL_NUMBER = (
    st.none() | st.floats(-1e6, 1e6) | st.sampled_from([float("nan"), float("inf")])
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(ATTACK_KINDS),
    sigma_att=_OPTIONAL_NUMBER,
    t_att=st.none() | st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    distance=_OPTIONAL_NUMBER,
)
def test_attack_fields_rejected_or_kept(kind, sigma_att, t_att, distance):
    """An attack either fails to build, or it obeys the kind's rule and keeps
    every field it was given, as does a config that holds it."""
    try:
        spec = AttackSpec(kind, sigma_att, t_att, distance)
    except ConfigError:
        return
    assert (spec.kind, spec.sigma_att, spec.distance) == (kind, sigma_att, distance)
    assert spec.t_att == (None if t_att is None else tuple(map(float, t_att)))
    assert (sigma_att is not None) == (kind == "uncoordinated")
    decoys = (t_att is not None) + (distance is not None)
    assert decoys == (kind == "coordinated")
    assert ExperimentConfig(attack=spec, estimators=("wls",)).attack == spec


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Topology(anchors=np.zeros((4, 3)), target=[50, 50]), r"an \(N, 2\) array"),
        (
            lambda: Topology(anchors=[[0, 0], [10, 0], [0, math.nan]], target=[5, 5]),
            "positions must be finite",
        ),
        (lambda: Topology(anchors=SQUARE, target=[math.inf, 50]), "positions must be finite"),
        (lambda: Placement(kind="nowhere"), "unknown placement kind 'nowhere'"),
        (lambda: Placement(radius=5.0), "placement anywhere takes no radius, got 5.0"),
    ],
    ids=["anchor-columns", "nan-anchor", "inf-target", "placement-kind", "anywhere-radius"],
)
def test_bad_input_is_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()
