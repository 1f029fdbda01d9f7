import math

import numpy as np
import pytest

from secloc import (
    DegenerateInformationError,
    DomainError,
    ExperimentConfig,
    PathLossParams,
    Topology,
    crlb_bound,
    fim_coordinated,
    fim_uncoordinated,
    random_topology,
    run_monte_carlo,
    select_malicious,
)

from helpers import empirical_fim

P = PathLossParams(-10.0, 4.0, 2.0)

CROSS = Topology(
    anchors=np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]]),
    target=np.array([0.0, 0.0]),
)


def random_attacked(seed=42, n=29, fraction=0.28):
    topo = random_topology(n, 100.0, seed=seed)
    return topo.with_malicious(select_malicious(n, fraction, seed=seed + 1))


class TestFimClosedForm:
    def test_cross_topology_reference(self):
        # independent arithmetic: prefactor * (1/sigma^2) * sum x^2/||d||^4
        fim = fim_uncoordinated(CROSS, P, 0.0, 1)
        prefactor = 100.0 * 1 * P.n**2 / math.log(10.0) ** 2
        expected = prefactor * (1.0 / P.sigma**2) * (100.0 / 10**4 + 100.0 / 10**4)
        assert fim[0, 0] == pytest.approx(expected, rel=1e-12)
        assert fim[1, 1] == pytest.approx(expected, rel=1e-12)
        assert fim[0, 1] == 0.0
        assert fim[0, 0] == pytest.approx(1.5089, abs=1e-4)
        assert crlb_bound(fim) == pytest.approx(1.1513, abs=1e-4)

    def test_no_attack_limit(self):
        topo = random_attacked()
        a = fim_uncoordinated(topo, P, 0.0, 10)
        b = fim_uncoordinated(topo.with_malicious(()), P, 5.0, 10)
        assert a[0, 0] == pytest.approx(b[0, 0], rel=1e-12)
        assert a[0, 1] == pytest.approx(b[0, 1], rel=1e-12)
        assert a[1, 1] == pytest.approx(b[1, 1], rel=1e-12)

    def test_decoy_at_target_matches_no_attack(self):
        topo = random_attacked()
        a = fim_coordinated(topo, P, topo.target, 10)
        b = fim_uncoordinated(topo, P, 0.0, 10)
        assert a[0, 0] == pytest.approx(b[0, 0], rel=1e-12)
        assert a[0, 1] == pytest.approx(b[0, 1], rel=1e-12)
        assert a[1, 1] == pytest.approx(b[1, 1], rel=1e-12)

    def test_no_malicious_ignores_decoy(self):
        topo = random_topology(10, 100.0, seed=3)
        a = fim_coordinated(topo, P, topo.target + 5.0, 10)
        b = fim_coordinated(topo, P, topo.target + 30.0, 10)
        np.testing.assert_array_equal(a, b)

    def test_attack_never_increases_information(self):
        topo = random_attacked()
        quiet = fim_uncoordinated(topo, P, 0.0, 10)
        loud = fim_uncoordinated(topo, P, 8.0, 10)
        assert loud[0, 0] <= quiet[0, 0] and loud[1, 1] <= quiet[1, 1]

    def test_crlb_monotone_in_attack(self):
        topo = random_attacked()
        bounds = [crlb_bound(fim_uncoordinated(topo, P, s, 10)) for s in (0, 2, 4, 8, 16)]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
        more = topo.with_malicious(select_malicious(29, 0.5, seed=9))
        assert crlb_bound(fim_uncoordinated(more, P, 8.0, 10)) >= bounds[0]

    def test_coincident_evaluation_point_rejected(self):
        topo = Topology(anchors=CROSS.anchors, target=[1.0, 1.0], malicious={0})
        with pytest.raises(DomainError):
            fim_coordinated(topo, P, np.array([10.0, 0.0]), 1)
        with pytest.raises(DomainError):
            fim_uncoordinated(topo, PathLossParams(-10, 4, 0.0), 1.0, 1)


def fisher_loop(topology, params, packets, sigma_att=0.0, t_att=None):
    """The information matrix as a plain loop over anchors: each malicious
    anchor's term is taken about the decoy when ``t_att`` is given, and at
    the inflated variance sigma^2 + sigma_att^2 otherwise."""
    info = np.zeros((2, 2))
    for i, anchor in enumerate(topology.anchors):
        ref, var = topology.target, params.sigma**2
        if i in topology.malicious:
            if t_att is None:
                var += sigma_att**2
            else:
                ref = t_att
        diff = anchor - ref
        info += np.outer(diff, diff) / (var * float(diff @ diff) ** 2)
    return 100.0 * packets * params.n**2 / math.log(10.0) ** 2 * info


class TestFisherSum:
    @pytest.mark.parametrize("fraction", [0.0, 0.28, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_both_attacks_match_the_anchor_loop(self, seed, fraction):
        topo = random_attacked(seed=seed, fraction=fraction)
        rng = np.random.default_rng(seed)
        sigma_att = rng.uniform(0.5, 16.0)
        t_att = topo.target + rng.uniform(-30.0, 30.0, 2)
        for got, expected in (
            (fim_uncoordinated(topo, P, sigma_att, 7), fisher_loop(topo, P, 7, sigma_att)),
            (fim_coordinated(topo, P, t_att, 7), fisher_loop(topo, P, 7, t_att=t_att)),
        ):
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_decoy_checked_against_malicious_rows_only(self):
        # each row is tested against its own reference point: the decoy
        # may sit on an honest anchor, not on a malicious one
        topo = Topology(anchors=CROSS.anchors, target=[1.0, 1.0], malicious={0})
        fim = fim_coordinated(topo, P, topo.anchors[1], 1)
        assert crlb_bound(fim) > 0.0
        with pytest.raises(DomainError, match="coincides"):
            fim_coordinated(topo, P, topo.anchors[0], 1)


class TestCrlbBound:
    def test_identity_information(self):
        assert crlb_bound(np.eye(2)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_scaling(self):
        fim = np.array([[2.0, 0.3], [0.3, 1.5]])
        assert crlb_bound(4.0 * fim) == pytest.approx(crlb_bound(fim) / 2, rel=1e-12)

    def test_packet_scaling(self):
        topo = random_attacked()
        b1 = crlb_bound(fim_uncoordinated(topo, P, 8.0, 1))
        b16 = crlb_bound(fim_uncoordinated(topo, P, 8.0, 16))
        assert b16 == pytest.approx(b1 / 4.0, rel=1e-9)

    def test_rotation_invariance(self):
        topo = random_attacked(seed=5)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = Topology(
            anchors=(topo.anchors - topo.target) @ rot.T + topo.target,
            target=topo.target,
            malicious=topo.malicious,
        )
        a = crlb_bound(fim_uncoordinated(topo, P, 8.0, 10))
        b = crlb_bound(fim_uncoordinated(rotated, P, 8.0, 10))
        assert b == pytest.approx(a, rel=1e-9)

    def test_singular_information_rejected(self):
        with pytest.raises(DegenerateInformationError):
            crlb_bound(np.ones((2, 2)))

    @pytest.mark.parametrize(
        "fim",
        [
            [[1e200, 0.0], [0.0, 1e200]],
            [[1.0, 1e160], [1e160, 1.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
            [[math.nan, 0.0], [0.0, 1.0]],
        ],
        ids=["det-overflows", "off-diagonal", "inf", "nan"],
    )
    def test_overflowing_information_rejected(self, fim):
        # a determinant that overflows gave 0 or nan, and f_xy**2 an OverflowError
        with pytest.raises(DegenerateInformationError, match="overflows"):
            crlb_bound(fim)

    @pytest.mark.parametrize(
        "params, fim",
        [
            (PathLossParams(-10.0, 1e200, 2.0), lambda t, p: fim_uncoordinated(t, p, 0.0, 10)),
            (PathLossParams(-10.0, 4.0, 1e-155), lambda t, p: fim_uncoordinated(t, p, 8.0, 10)),
            (PathLossParams(-10.0, 4.0, 1e-155), lambda t, p: fim_coordinated(t, p, (75, 75), 10)),
        ],
        ids=["n-1e200", "uncoord-sigma-1e-155", "coord-sigma-1e-155"],
    )
    def test_overflowing_channel_has_no_bound(self, params, fim):
        # the squares overflowed in Python floats (OverflowError) or 1/sigma^2
        # in numpy (a nan bound); now the matrix is inf and the bound rejects it
        topo = random_attacked(seed=3)
        with pytest.raises(DegenerateInformationError):
            crlb_bound(fim(topo, params))

    def test_overflowing_jitter_gives_no_weight(self):
        # sigma_att = 1e200 squares to inf, so the malicious anchors carry no
        # information: the bound is the honest anchors' (an OverflowError before)
        topo = random_attacked(seed=4)
        honest = sorted(set(range(topo.n_anchors)) - topo.malicious)
        alone = Topology(topo.anchors[honest], topo.target)
        np.testing.assert_allclose(
            fim_uncoordinated(topo, P, 1e200, 10), fim_uncoordinated(alone, P, 0.0, 10), rtol=1e-12
        )


class TestScoreCovariance:
    # reduced-draw versions; the full 1e6-draw gate lives in the acceptance suite

    def check(self, topo, kind, ana, **kw):
        emp = empirical_fim(topo, P, kind, packets=10, draws=200_000, seed=11, **kw)
        scale = math.sqrt(ana[0, 0] * ana[1, 1])
        err = np.abs(emp - ana) / np.maximum(np.abs(ana), scale)
        assert err.max() <= 0.05

    def test_uncoordinated(self):
        topo = random_attacked(seed=7)
        self.check(topo, "uncoordinated", fim_uncoordinated(topo, P, 8.0, 10), sigma_att=8.0)

    def test_coordinated(self):
        topo = random_attacked(seed=8)
        t_att = topo.target + 12.0
        self.check(topo, "coordinated", fim_coordinated(topo, P, t_att, 10), t_att=t_att)


class TestBoundHoldsInSimulation:
    """With no attack, no estimator the bound covers beats it by more than
    Monte-Carlo error."""

    @pytest.mark.parametrize("packets", [2, 10, 50])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rmse_at_least_crlb(self, seed, packets):
        # The sample RMSE over n trials has a relative standard error of
        # about 1/sqrt(2 n), so 3 of them is the margin.  ML reports only
        # its converged trials, up to 33 of 200 fewer here.
        cfg = ExperimentConfig(
            trials=200, master_seed=seed, packets=packets, estimators=("ls", "wls", "ml")
        )
        summary = run_monte_carlo(cfg)
        for name, est in summary.per_estimator.items():
            floor = (1.0 - 3.0 / math.sqrt(2.0 * est.trials_ok)) * summary.crlb
            assert est.rmse >= floor, (name, est.rmse, summary.crlb)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fim_uncoordinated(CROSS, P, 0.0, 0), "packets must be >= 1"),
        (lambda: fim_coordinated(CROSS, P, (5.0, 5.0), 0), "packets must be >= 1"),
        (lambda: fim_uncoordinated(CROSS, P, -1.0, 10), "sigma_att must be >= 0 and finite"),
        (lambda: fim_uncoordinated(CROSS, P, math.nan, 10), "sigma_att must be >= 0 and finite"),
        (lambda: fim_coordinated(CROSS, P, (math.inf, 0.0), 10), "t_att must be finite"),
    ],
    ids=["no-packets", "coordinated-no-packets", "negative-jitter", "nan-jitter", "inf-decoy"],
)
def test_bad_argument_is_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()
