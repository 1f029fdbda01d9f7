import math

import numpy as np
import pytest

from secloc import (
    AttackSpec,
    ConfigError,
    DomainError,
    MeasurementMatrix,
    PathLossParams,
    Placement,
    Topology,
    chi_factor,
    distance_from_rssi,
    mean_rssi,
    parse_topology,
    random_topology,
    select_malicious,
    simulate_measurements,
)

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

    def test_distances_and_mask(self):
        topo = square_topology(malicious={1, 3})
        assert topo.distances() == pytest.approx(
            [math.hypot(40, 60), math.hypot(60, 60), math.hypot(40, 40), math.hypot(60, 40)]
        )
        assert list(topo.malicious_mask()) == [False, True, False, True]
        assert topo.with_malicious({0}).malicious == frozenset({0})


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


class TestChiFactor:
    def test_attack_at_target_is_neutral(self):
        assert chi_factor((0, 0), (3, 4), (3, 4)) == 1.0

    def test_three_four_five(self):
        assert chi_factor((0, 0), (3, 4), (6, 8)) == pytest.approx(2.0, rel=1e-12)

    def test_effective_power_shift(self):
        # chi = 2 at n = 4 lowers the apparent transmit power by 40*log10(2) dB
        chi = chi_factor((0, 0), (3, 4), (6, 8))
        shift = (P.p0 - 10 * P.n * math.log10(chi)) - P.p0
        assert shift == pytest.approx(-12.041199826559248, rel=1e-12)

    def test_anchor_on_target_rejected(self):
        with pytest.raises(DomainError):
            chi_factor((3, 4), (3, 4), (6, 8))
        with pytest.raises(DomainError):
            chi_factor([(0, 0), (3, 4)], (3, 4), (6, 8))

    def test_vectorized_matches_rows(self):
        anchors = SQUARE + 0.5
        target, t_att = np.array([40.0, 60.0]), np.array([70.0, 20.0])
        chi = chi_factor(anchors, target, t_att)
        assert chi.shape == (4,)
        assert list(chi) == [chi_factor(a, target, t_att) for a in anchors]


class TestSimulateMeasurements:
    def test_zero_noise_rows_are_constant(self):
        topo = square_topology()
        m = simulate_measurements(topo, P0, AttackSpec("none"), 7, seed=1)
        expected = mean_rssi(P0, topo.distances())
        assert np.allclose(m.rssi, expected[:, None], atol=0, rtol=0)
        assert m.packets == 7 and m.n_anchors == 4

    def test_decoy_at_target_matches_no_attack(self):
        topo = square_topology(malicious={0, 2})
        honest = simulate_measurements(topo, P0, AttackSpec("none"), 5, seed=3)
        decoy = simulate_measurements(
            topo, P0, AttackSpec("coordinated", t_att=topo.target), 5, seed=3
        )
        assert np.array_equal(honest.rssi, decoy.rssi)

    def test_uncoordinated_inflates_row_variance(self):
        topo = square_topology(malicious={1})
        m = simulate_measurements(
            topo, P, AttackSpec("uncoordinated", sigma_att=6.0), 100_000, seed=5
        )
        var = np.var(m.rssi, axis=1, ddof=1)
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
        assert np.all(np.abs(m.rssi.mean(axis=1) - expected) <= band)

    def test_coordinated_rows_invert_to_decoy_distance(self):
        topo = square_topology(malicious={0, 3})
        t_att = np.array([70.0, 20.0])
        m = simulate_measurements(topo, P0, AttackSpec("coordinated", t_att=t_att), 3, seed=7)
        inverted = distance_from_rssi(P0, m.rssi[:, 0])
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
        assert np.array_equal(a.rssi, b.rssi)
        assert not np.array_equal(a.rssi, c.rssi)

    def test_decoy_on_anchor_rejected(self):
        topo = square_topology(malicious={1})
        with pytest.raises(ConfigError):
            simulate_measurements(
                topo, P0, AttackSpec("coordinated", t_att=SQUARE[2]), 3, seed=1
            )

    def test_packet_count_validated(self):
        with pytest.raises(ConfigError):
            simulate_measurements(square_topology(), P, AttackSpec("none"), 0, seed=1)
        with pytest.raises(ConfigError):
            MeasurementMatrix(rssi=np.full((3, 2), np.nan))


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
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [60.0, 0.0]])
        center = (0.0, 0.0)
        within = Placement("within_radius", radius=20.0, center=center)
        beyond = Placement("beyond_radius", radius=20.0, center=center)
        assert list(within.eligible(anchors, center)) == [0, 1]
        assert list(beyond.eligible(anchors, center)) == [2]
        assert list(Placement().eligible(anchors, center)) == [0, 1, 2]
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
