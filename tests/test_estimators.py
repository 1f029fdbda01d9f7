import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secloc import (
    AttackSpec,
    DegenerateGeometryError,
    DomainError,
    Estimate,
    ExperimentConfig,
    InsufficientAnchorsError,
    InsufficientSurvivorsError,
    LinearSystem,
    PathLossParams,
    SecLocError,
    Topology,
    build_linear_system,
    build_linear_systems,
    distance_from_rssi,
    distance_sq_variance,
    grad_desc_estimate,
    grad_desc_fits,
    lmds_estimate,
    ln1_estimate,
    ln1e_estimate,
    ls_estimate,
    load_config,
    ls_fits,
    mean_rssi,
    ml_estimate,
    random_topology,
    select_malicious,
    simulate_measurements,
    swls_estimate,
    swls_fits,
    wls_estimate,
    wls_fits,
)
from secloc import estimators, harness
from secloc.channel import mean_rssi_sq
from secloc.estimators import (
    ML_GTOL,
    _least_squares,
    _rssi_cost_grad,
    ml_fits,
    rank_deficient,
)
from secloc.harness import Trial

from helpers import (
    _ml_cost_grad,
    _rssi_residuals,
    grad_desc_reference,
    lmds_reference,
    ml_reference,
)

P = PathLossParams(-10.0, 4.0, 2.0)
P0 = PathLossParams(-10.0, 4.0, 0.0)


def exact_measurements(topo, params, packets=1):
    return simulate_measurements(topo, params, AttackSpec("none"), packets, seed=0)


def mean_system(anchors, meas, params):
    """The trial's system: ranges inverted once from the row-mean RSSI, and
    the matrix itself."""
    return build_linear_system(anchors, distance_from_rssi(params, meas.mean(axis=1)), meas)


def noisy_setup(seed, n_anchors=12, packets=10, sigma=2.0):
    params = PathLossParams(-10.0, 4.0, sigma)
    topo = random_topology(n_anchors, 100.0, seed=seed)
    meas = simulate_measurements(topo, params, AttackSpec("none"), packets, seed=seed + 1)
    return topo, meas, params


class TestBuildLinearSystem:
    def test_row_layout(self):
        system = build_linear_system([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [5.0, 5.0, 5.0])
        np.testing.assert_allclose(system.A[0], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(system.A[1], [-20.0, 0.0, 1.0])
        assert system.b[0] == 25.0
        assert system.b[1] == 25.0 - 100.0

    def test_exact_three_anchor_solve(self):
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        target = np.array([3.0, 4.0])
        d = np.linalg.norm(anchors - target, axis=1)
        system = build_linear_system(anchors, d)
        u = np.linalg.solve(system.A, system.b)  # independent direct solve
        np.testing.assert_allclose(u, [3.0, 4.0, 25.0], atol=1e-9)

    def test_too_few_anchors(self):
        with pytest.raises(InsufficientAnchorsError):
            build_linear_system([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])

    def test_overflowing_square_is_domain_error(self):
        anchors = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"range 1e\+200 m"):
                build_linear_system(anchors, [5.0, 1e200, 5.0])

    def test_stack_is_each_trial_alone(self):
        # T trials' systems built at once hold each lone build's arrays, and
        # a stack whose trials fail raises the first failing trial's error
        rng = np.random.default_rng(9)
        anchors, ranges = rng.uniform(0, 100, (4, 6, 2)), rng.uniform(1, 80, (4, 6))
        rssi = rng.normal(-60.0, 2.0, (4, 6, 3))
        for j, system in enumerate(build_linear_systems(anchors, ranges, rssi)):
            alone = build_linear_system(anchors[j], ranges[j], rssi[j])
            for name in ("A", "b", "ranges", "measurements"):
                assert getattr(system, name).tobytes() == getattr(alone, name).tobytes()
        ranges[1, 2], ranges[2, 0] = 0.0, 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="range 0 m .* not positive"):
                build_linear_systems(anchors, ranges, rssi)
            with pytest.raises(DomainError, match=r"range 1e\+200 m"):
                build_linear_systems(anchors[2:], ranges[2:])
        rssi[3, 1, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            build_linear_systems(anchors[3:], ranges[3:], rssi[3:])

    @pytest.mark.parametrize("low", [0.0, -1.0, 5e-324])
    def test_non_positive_range_is_domain_error(self, low):
        # A range that underflowed to 0 in the inversion (p0 = 1e300, say)
        # would pass as an anchor the target sits on; the smallest
        # subnormal is still a range.
        anchors = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
        if low > 0:
            assert build_linear_system(anchors, [5.0, low, 5.0]).ranges[1] == low
            return
        with pytest.raises(DomainError, match=f"range {low:g} m is out of range: it is not"):
            build_linear_system(anchors, [5.0, low, 5.0])

    def test_ranges_travel_with_subsets(self):
        anchors = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
        system = build_linear_system(anchors, [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(system.ranges, [5.0, 6.0, 7.0, 8.0])
        sub = system.subset([3, 0, 2])
        np.testing.assert_array_equal(sub.ranges, [5.0, 7.0, 8.0])
        np.testing.assert_array_equal(sub.b, system.b[[0, 2, 3]])

    def test_matrix_and_anchors_travel_with_subsets(self):
        topo, meas, params = noisy_setup(seed=3, n_anchors=7)
        system = mean_system(topo.anchors, meas, params)
        # A's columns are -2 a, so reading the anchors back is exact
        np.testing.assert_array_equal(system.anchors, topo.anchors)
        assert system.measurements is meas
        sub = system.subset([6, 1, 4])
        np.testing.assert_array_equal(sub.measurements, meas[[1, 4, 6]])
        np.testing.assert_array_equal(sub.anchors, topo.anchors[[1, 4, 6]])
        assert LinearSystem(A=system.A, b=system.b).subset([0, 1, 2]).measurements is None

    def test_measurements_must_match_the_rows(self):
        # a matrix with one row more than the system has anchors: before the
        # matrix travelled with the system, ML read such a pair and failed
        # with a bare numpy ValueError
        topo, meas, params = noisy_setup(seed=14, n_anchors=6)
        d = distance_from_rssi(params, meas.mean(axis=1))
        with pytest.raises(DomainError, match="row counts differ"):
            build_linear_system(topo.anchors[:-1], d[:-1], meas)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError, match="row counts differ"):
            LinearSystem(A=system.A[:-1], b=system.b[:-1], measurements=meas)

    def test_matrix_readers_need_the_matrix(self):
        # SWLS, ML and Grad-Desc read the RSSI matrix, which a system built
        # from ranges alone does not carry
        topo, meas, params = noisy_setup(seed=15)
        d = distance_from_rssi(params, meas.mean(axis=1))
        system = build_linear_system(topo.anchors, d)
        for call in (
            lambda: swls_estimate(system, params),
            lambda: ml_estimate(system, params, init=topo.target),
            lambda: grad_desc_estimate(system, params),
        ):
            with pytest.raises(DomainError, match="no measurements"):
                call()
        assert not system.memo

    @pytest.mark.parametrize(
        "rssi",
        [
            np.full((5, 3), np.nan),
            np.full((5, 3), np.inf),
            np.full(5, -40.0),
            np.empty((5, 0)),
            np.full((4, 3), -40.0),
        ],
        ids=["nan", "inf", "1-d", "no-packets", "wrong-rows"],
    )
    def test_rssi_is_checked_at_construction(self, rssi):
        anchors = random_topology(5, 100.0, seed=17).anchors
        with pytest.raises(DomainError):
            build_linear_system(anchors, np.full(5, 30.0), rssi)

    def test_compares_by_identity(self):
        # systems and estimates hold arrays, so == is identity: it never
        # compares arrays (which would raise), and a system hashes.  The memo
        # is a cache: a system with a memoized fit prints as a fresh one does
        topo, meas, params = noisy_setup(seed=16)
        system = mean_system(topo.anchors, meas, params)
        grad_desc_estimate(system, params)
        fresh = replace(system)
        assert system.memo and not fresh.memo
        assert repr(fresh) == repr(system) and "memo" not in repr(system)
        assert fresh != system and system == system
        assert hash(system) == hash(system) != hash(fresh)
        assert (Estimate([1.0, 2.0]) == Estimate([1.0, 2.0])) is False
        array_types = (Estimate, LinearSystem, Topology, Trial)
        assert all(t.__eq__ is object.__eq__ for t in array_types)


class TestLs:
    def test_exact_recovery(self):
        topo = random_topology(6, 100.0, seed=1)
        system = build_linear_system(topo.anchors, topo.distances())
        est = ls_estimate(system)
        assert np.linalg.norm(est.position - topo.target) < 1e-9
        assert est.auxiliary == pytest.approx(topo.target @ topo.target, rel=1e-9)

    def test_collinear_rejected(self):
        anchors = [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]]
        system = build_linear_system(anchors, [5.0, 5.0, 5.0, 5.0])
        with pytest.raises(DegenerateGeometryError):
            ls_estimate(system)

    def test_matches_svd_pseudoinverse(self):
        rng = np.random.default_rng(8)
        topo = random_topology(4, 100.0, seed=8)
        d = topo.distances() * np.exp(rng.normal(0, 0.05, 4))
        system = build_linear_system(topo.anchors, d)
        est = ls_estimate(system)
        oracle = np.linalg.pinv(system.A) @ system.b
        np.testing.assert_allclose(est.position, oracle[:2], atol=1e-9)


class TestWls:
    def test_exact_recovery(self):
        topo = random_topology(8, 100.0, seed=2)
        meas = exact_measurements(topo, P0, packets=4)
        est = wls_estimate(mean_system(topo.anchors, meas, P0), P0)
        assert np.linalg.norm(est.position - topo.target) < 1e-9

    def test_equal_ranges_reduce_to_ls(self):
        # identical measured ranges at every anchor make the weight matrix a
        # multiple of the identity, so WLS and LS coincide even though the
        # system is inconsistent
        anchors = random_topology(7, 100.0, seed=3).anchors
        meas = np.full((7, 4), -45.0)
        system = mean_system(anchors, meas, P)
        est_wls = wls_estimate(system, P)
        est_ls = ls_estimate(system)
        np.testing.assert_allclose(est_wls.position, est_ls.position, atol=1e-9)

    def test_closer_anchors_weigh_more(self):
        # the squared-range variance grows strictly with range
        topo, meas, params = noisy_setup(seed=4)
        mean_d = distance_from_rssi(params, meas.mean(axis=1))
        weights = 1.0 / distance_sq_variance(params, mean_d)
        order = np.argsort(mean_d)
        assert np.all(np.diff(weights[order]) < 0)

    def test_sigma_zero_fallback_equals_ls(self):
        topo = random_topology(9, 100.0, seed=5)
        meas = exact_measurements(topo, P0, packets=2)
        system = mean_system(topo.anchors, meas, P0)
        est_wls = wls_estimate(system, P0)
        est_ls = ls_estimate(system)
        np.testing.assert_allclose(est_wls.position, est_ls.position, atol=1e-12)

    def test_needs_the_ranges(self):
        topo, meas, params = noisy_setup(seed=5)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError):
            wls_estimate(LinearSystem(A=system.A, b=system.b), params)


class TestSwls:
    def test_clean_network_keeps_everything(self):
        topo = random_topology(29, 100.0, seed=6)
        meas = simulate_measurements(topo, P, AttackSpec("none"), 10_000, seed=7)
        est = swls_estimate(mean_system(topo.anchors, meas, P), P)
        assert est.eliminated == frozenset()

    def test_attacked_anchors_eliminated_exactly(self):
        topo = random_topology(29, 100.0, seed=8)
        mal = select_malicious(29, 0.28, seed=9)
        topo = topo.with_malicious(mal)
        meas = simulate_measurements(
            topo, P, AttackSpec("uncoordinated", sigma_att=8.0), 10_000, seed=10
        )
        est = swls_estimate(mean_system(topo.anchors, meas, P), P)
        assert est.eliminated == mal

    def test_no_elimination_equals_wls(self):
        topo, meas, params = noisy_setup(seed=11)
        est_swls = swls_estimate(mean_system(topo.anchors, meas, params), params)
        assert est_swls.eliminated == frozenset()
        est_wls = wls_estimate(mean_system(topo.anchors, meas, params), params)
        np.testing.assert_allclose(est_swls.position, est_wls.position, atol=1e-12)

    def test_insufficient_survivors(self):
        topo = random_topology(8, 100.0, seed=12)
        topo = topo.with_malicious(range(6))
        meas = simulate_measurements(
            topo, P, AttackSpec("uncoordinated", sigma_att=40.0), 5_000, seed=13
        )
        with pytest.raises(InsufficientSurvivorsError):
            swls_estimate(mean_system(topo.anchors, meas, P), P)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.nan, math.inf])
    def test_zeta_must_be_positive_and_finite(self, zeta):
        # A nan threshold would eliminate every anchor and report it as too
        # few survivors, not as the bad setting it is.
        topo, meas, params = noisy_setup(seed=13)
        with pytest.raises(DomainError, match="zeta"):
            swls_estimate(mean_system(topo.anchors, meas, params), params, zeta=zeta)

    def test_needs_two_packets(self):
        topo = random_topology(5, 100.0, seed=14)
        meas = exact_measurements(topo, P, packets=1)
        with pytest.raises(DomainError):
            swls_estimate(mean_system(topo.anchors, meas, P), P)

    def test_elimination_monotone_in_attack_strength(self):
        # mean count of eliminated truly-malicious anchors never drops as the
        # attack variance grows (large P, averaged over repeats)
        trials = 40
        counts = []
        for s_att in (0.0, 2.0, 4.0, 8.0):
            total = 0
            for k in range(trials):
                topo = random_topology(20, 100.0, seed=1000 + k)
                mal = select_malicious(20, 0.25, seed=2000 + k)
                topo = topo.with_malicious(mal)
                meas = simulate_measurements(
                    topo, P, AttackSpec("uncoordinated", sigma_att=s_att), 10_000, seed=3000 + k
                )
                est = swls_estimate(mean_system(topo.anchors, meas, P), P)
                total += len(est.eliminated & mal)
            counts.append(total / trials)
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def _closed_form_mix():
    """Ordinary seeded systems (one with fewer rows) mixed with systems that
    fail some closed-form estimator alone, each with the error it raises
    there, per estimator (None where it succeeds)."""
    params, trials = _attacked_trials("uncoordinated", seed=61, count=6, n_anchors=12)
    ordinary = [system for *_, system in trials]
    ordinary[5] = ordinary[5].subset(range(9))
    anchors, ranges = ordinary[0].anchors, ordinary[0].ranges
    line = build_linear_system(_collinear_anchors(12, 0, seed=62), ranges)
    # 11 packets, so SWLS stacks it apart from the others, one of them 2e4 dB
    # below p0: its own range overflows, that of the mean RSSI does not
    deep = np.repeat(ordinary[3].measurements, [2] + [1] * 9, axis=1)
    deep[0, 0] = -2e4
    # the same at 10 packets, so that it overflows the others' stacked ranges
    deep10 = ordinary[4].measurements.copy()
    deep10[1, 3] = -2e4
    # two anchors with no packet noise, the others far noisier than zeta * sigma
    quiet = np.repeat(mean_rssi(params, ranges)[:, None], 10, axis=1)
    quiet[2:] += np.random.default_rng(63).normal(0.0, 40.0, (10, 10))
    # anchors within 1e-79 m and ranges of 1e-80-3e-80 m: every squared-range
    # variance is subnormal, so its inverse weight overflows in WLS and in
    # SWLS's refit (SWLS keeps most rows: their RSSI spreads by sigma); to
    # LS, anchors that close are rank deficient beside A's column of ones
    span = (ranges - ranges.min()) / np.ptp(ranges)
    tiny = 1e-80 * (1.0 + 2.0 * span)
    tiny_rssi = mean_rssi(params, tiny)[:, None] + np.random.default_rng(64).normal(
        0.0, params.sigma, (12, 10)
    )
    failing = [
        # rank deficient, built by hand without ranges or measurements
        (LinearSystem(A=line.A, b=line.b), DegenerateGeometryError, DomainError, DomainError),
        # a range whose squared-range variance overflows (SWLS keeps its row)
        (
            build_linear_system(
                anchors, np.r_[1e78, ordinary[2].ranges[1:]], ordinary[2].measurements
            ),
            None, DomainError, DomainError,
        ),
        (mean_system(anchors, deep, params), None, None, DomainError),
        (mean_system(anchors, deep10, params), None, None, DomainError),
        (mean_system(anchors, quiet, params), None, None, InsufficientSurvivorsError),
        (build_linear_system(anchors * 1e-81, tiny, tiny_rssi), DegenerateGeometryError,
         DomainError, DomainError),
    ]
    mix = [(system, None, None, None) for system in ordinary]
    for k, case in enumerate(failing):
        mix.insert(2 * k + 1, case)
    return params, mix


class TestClosedFormFits:
    """LS, WLS and SWLS on many systems at once: each fit equals its
    system's lone call bit for bit and is memoized, and a system whose lone
    call raises gets that error in place of a fit and has nothing
    memoized."""

    @pytest.mark.parametrize("name", ["ls", "wls", "swls"])
    def test_failures_stay_with_their_system(self, name):
        params, mix = _closed_form_mix()
        fits, key, alone = {
            "ls": (ls_fits, ("ls",), ls_estimate),
            "wls": (lambda s: wls_fits(s, params), ("wls", params),
                    lambda s: wls_estimate(s, params)),
            "swls": (lambda s: swls_fits(s, params, 1.5), ("swls", params, 1.5),
                     lambda s: swls_estimate(s, params, 1.5)),
        }[name]
        column = ("ls", "wls", "swls").index(name) + 1
        systems = [case[0] for case in mix]
        results = fits(systems)
        assert len(results) == len(systems)
        for case, fit in zip(mix, results):
            system, error = case[0], case[column]
            if error is None:
                assert fit is not None and system.memo[key] is fit
                assert alone(system) is fit
                lone = alone(replace(system))
                assert np.array_equal(fit.position, lone.position)
                assert (fit.auxiliary, fit.eliminated) == (lone.auxiliary, lone.eliminated)
            else:
                assert type(fit) is error and key not in system.memo
                with pytest.raises(error, match=re.escape(str(fit))):
                    alone(system)
        # a batch returns what an earlier one memoized, and fits nothing again
        for fit, again in zip(results, fits(systems[::-1])[::-1]):
            assert again is fit if isinstance(fit, Estimate) else type(again) is type(fit)

    @pytest.mark.parametrize("zeta", [0.0, math.inf])
    def test_swls_zeta_is_checked(self, zeta):
        params, mix = _closed_form_mix()
        systems = [case[0] for case in mix]
        for call in (lambda: swls_fits(systems, params, zeta),
                     lambda: swls_estimate(systems[0], params, zeta)):
            with pytest.raises(DomainError, match="zeta"):
                call()
        assert not any(system.memo for system in systems)


class TestMl:
    def test_zero_noise_truth_is_fixed_point(self):
        topo = random_topology(10, 100.0, seed=15)
        meas = exact_measurements(topo, P0)
        est = ml_estimate(mean_system(topo.anchors, meas, P0), P0, init=topo.target)
        np.testing.assert_allclose(est.position, topo.target, atol=1e-12)
        assert est.converged and est.iterations == 0
        cost, _ = _rssi_cost_grad(est.position, topo.anchors, meas, P0)
        assert cost < 1e-20  # zero up to the log/exp round-trip rounding

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        topo, meas, params = noisy_setup(seed=16)
        h = 1e-5
        for _ in range(10):
            t = rng.uniform(10, 90, 2)
            _, g = _rssi_cost_grad(t, topo.anchors, meas, params)
            num = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fp, _ = _rssi_cost_grad(t + e, topo.anchors, meas, params)
                fm, _ = _rssi_cost_grad(t - e, topo.anchors, meas, params)
                num[k] = (fp - fm) / (2 * h)
            assert np.linalg.norm(g - num) <= 1e-5 * max(np.linalg.norm(num), 1.0)

    def test_descends_from_init(self):
        topo, meas, params = noisy_setup(seed=17)
        init = topo.target + np.array([5.0, -7.0])
        f0, _ = _rssi_cost_grad(init, topo.anchors, meas, params)
        est = ml_estimate(mean_system(topo.anchors, meas, params), params, init=init)
        f1, _ = _rssi_cost_grad(est.position, topo.anchors, meas, params)
        assert f1 <= f0
        assert est.converged


class TestLmds:
    def test_zero_noise_returns_truth(self):
        topo = random_topology(9, 100.0, seed=18)
        meas = exact_measurements(topo, P0, packets=3)
        system = mean_system(topo.anchors, meas, P0)
        est = lmds_estimate(system, seed=19)
        assert np.linalg.norm(est.position - topo.target) < 1e-9

    def test_clean_subset_wins_planted_instance(self, monkeypatch):
        # 7 anchors, 3 grossly corrupted: enumerate all 4-subsets and verify
        # the corruption-free one has the strictly smallest median residual,
        # then verify the estimator (seeing enough subsets) lands on truth.
        from itertools import combinations

        anchors = np.array(
            [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0],
             [50.0, 0.0], [20.0, 80.0], [80.0, 70.0]]
        )
        target = np.array([40.0, 55.0])
        d = np.linalg.norm(anchors - target, axis=1)
        d[[4, 5, 6]] *= [1.9, 2.4, 3.1]
        system = build_linear_system(anchors, d)
        medians = {}
        for sub in combinations(range(7), 4):
            sol = ls_estimate(system.subset(sub)).position
            residuals = (d - np.linalg.norm(sol - anchors, axis=1)) ** 2
            medians[sub] = np.median(residuals)
        clean = (0, 1, 2, 3)
        assert all(medians[clean] < v for key, v in medians.items() if key != clean)

        rssi = P0.p0 - 10 * P0.n * np.log10(d)
        meas = np.tile(rssi[:, None], (1, 2))
        system = mean_system(anchors, meas, P0)
        monkeypatch.setattr(estimators, "LMDS_SUBSETS", 60)
        est = lmds_estimate(system, seed=20)
        assert np.linalg.norm(est.position - target) < 1e-6

    def test_validation(self):
        # a 3-anchor system is valid input, but too small for 4-row subsets
        topo, meas, params = noisy_setup(seed=21, n_anchors=3)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError, match="LMDS_SUBSET_SIZE = 4 exceeds the anchor count 3"):
            lmds_estimate(system)


class TestGradDesc:
    # The start and per-step hooks live on the reference loop only;
    # TestGradDescParity ties its paths to the library's.
    def test_zero_noise_stays_at_truth(self):
        topo = random_topology(10, 100.0, seed=22)
        meas = exact_measurements(topo, P0)
        est = grad_desc_reference(
            meas, topo.anchors, P0, keep_fraction=1.0, init=topo.target
        )
        np.testing.assert_allclose(est.position, topo.target, atol=1e-12)
        assert est.converged

    def test_cost_non_increasing_at_small_step(self):
        # descent holds between iterations that keep the same anchor subset;
        # re-ranking the kept set may step the measured cost
        for seed in (23, 24, 25):
            topo, meas, params = noisy_setup(seed=seed, n_anchors=16)
            costs, kept_sets = [], []
            grad_desc_reference(
                meas,
                topo.anchors,
                params,
                step=0.05,
                callback=lambda it, pos, kept, cost: (
                    costs.append(cost),
                    kept_sets.append(tuple(kept)),
                ),
            )
            same_subset = [kept_sets[i] == kept_sets[i + 1] for i in range(len(costs) - 1)]
            diffs = np.diff(costs)
            assert np.all(diffs[same_subset] <= 1e-9 * (1.0 + np.abs(np.array(costs)[:-1][same_subset])))
            assert costs[-1] < costs[0]

    def test_converges_toward_truth_with_budget(self):
        # the constant-step iteration contracts linearly; with an extended
        # budget at zero noise it closes in on the target
        topo = random_topology(20, 100.0, seed=26)
        meas = exact_measurements(topo, P0)
        est = grad_desc_estimate(mean_system(topo.anchors, meas, P0), P0, max_iters=3000)
        assert est.converged
        assert np.linalg.norm(est.position - topo.target) < 1e-4

    def test_divergence_flagged(self, monkeypatch):
        monkeypatch.setattr(estimators, "GRAD_DESC_STEP", 1e12)
        topo = random_topology(8, 100.0, seed=27)
        meas = exact_measurements(topo, P)
        est = grad_desc_estimate(mean_system(topo.anchors, meas, P), P)
        assert not est.converged

    def test_validation(self):
        topo, meas, params = noisy_setup(seed=28, n_anchors=6)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError, match="max_iters must be an integer >= 1"):
            grad_desc_estimate(system, params, max_iters=0)

    def test_max_iters_must_be_integer(self):
        topo, meas, params = noisy_setup(seed=28, n_anchors=6)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError, match="max_iters must be an integer >= 1"):
            grad_desc_estimate(system, params, max_iters=4.5)
        assert grad_desc_estimate(system, params, max_iters=np.int64(4)).iterations <= 4

    def test_batch_needs_one_row_count(self):
        topo, meas, params = noisy_setup(seed=28, n_anchors=6)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError, match="one row count"):
            grad_desc_fits([system, system.subset(range(5))], params)
        assert not system.memo


class TestSharedProperties:
    def estimators_on(self, topo, meas, params, seed=99):
        system = mean_system(topo.anchors, meas, params)
        return {
            "ls": ls_estimate(system),
            "wls": wls_estimate(system, params),
            "swls": swls_estimate(system, params),
            "ml": ml_estimate(system, params, init=topo.target),
            "lmds": lmds_estimate(system, seed=seed),
            "grad_desc": grad_desc_estimate(system, params),
        }

    def test_translation_equivariance(self):
        shift = np.array([37.5, -12.25])
        topo, meas, params = noisy_setup(seed=29, n_anchors=14)
        moved = Topology(anchors=topo.anchors + shift, target=topo.target + shift)
        meas2 = simulate_measurements(moved, params, AttackSpec("none"), 10, seed=30)
        meas1 = simulate_measurements(topo, params, AttackSpec("none"), 10, seed=30)
        # identical noise realization: distances are translation invariant
        assert np.array_equal(meas1, meas2)
        base = self.estimators_on(topo, meas1, params)
        shifted = self.estimators_on(moved, meas2, params)
        for name in base:
            np.testing.assert_allclose(
                shifted[name].position, base[name].position + shift, atol=1e-6,
                err_msg=name,
            )

    @staticmethod
    def invariant_estimators(topo, meas, params, names):
        """The named estimators among LS, WLS, SWLS, ML, LN-1 and LN-1E on one
        trial: those whose result depends only on the ranges and RSSI rows,
        not on the anchors' order or on a random draw.  A failure is kept as
        its type."""
        system = mean_system(topo.anchors, meas, params)
        calls = {
            "ls": lambda: ls_estimate(system),
            "wls": lambda: wls_estimate(system, params),
            "swls": lambda: swls_estimate(system, params),
            "ml": lambda: ml_estimate(system, params, init=topo.target),
            "ln1": lambda: ln1_estimate(system),
            "ln1e": lambda: ln1e_estimate(system),
        }
        out = {}
        for name in names:
            try:
                out[name] = calls[name]()
            except SecLocError as exc:
                out[name] = type(exc)
        return out

    @staticmethod
    def attacked_trials(seed, n_anchors):
        """Two trials from one seed: an uncoordinated one, run by LS, WLS,
        SWLS, ML and LN-1, and a coordinated one, run by LN-1 and LN-1E."""
        rng = np.random.default_rng(seed)
        trials = []
        for attack, names in (
            ("uncoordinated", ("ls", "wls", "swls", "ml", "ln1")),
            ("coordinated", ("ln1", "ln1e")),
        ):
            topo = random_topology(n_anchors, 100.0, seed=rng)
            topo = topo.with_malicious(select_malicious(n_anchors, 0.28, seed=rng))
            spec = (
                AttackSpec("uncoordinated", sigma_att=8.0)
                if attack == "uncoordinated"
                else AttackSpec("coordinated", t_att=topo.target + 12.0)
            )
            trials.append((topo, simulate_measurements(topo, P, spec, 10, seed=rng), names))
        return trials

    @staticmethod
    def assert_same(moved, base, expected_position, eliminated_map):
        """Each estimate of ``moved`` is that of ``base`` at
        ``expected_position(position)``, with the same failure, eliminated set
        (mapped back by ``eliminated_map``) and, for the l1 fits, the same
        iteration count and convergence."""
        for name, est in base.items():
            if isinstance(est, type):
                assert moved[name] is est, name
                continue
            np.testing.assert_allclose(
                moved[name].position,
                expected_position(est.position),
                rtol=0,
                atol=1e-6,
                err_msg=name,
            )
            assert eliminated_map(moved[name].eliminated) == est.eliminated, name
            if name in ("ln1", "ln1e"):
                assert moved[name].iterations == est.iterations, name
                assert moved[name].converged == est.converged, name

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_anchors=st.integers(6, 29),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_rotation_equivariance(self, seed, n_anchors, angle):
        # the rotated layout reuses the measurement matrix: every range, and
        # so every RSSI packet, is the same
        c, s = math.cos(angle), math.sin(angle)
        center = np.array([50.0, 50.0])

        def turn(points):
            return (points - center) @ np.array([[c, s], [-s, c]]) + center

        for topo, meas, names in self.attacked_trials(seed, n_anchors):
            turned = Topology(anchors=turn(topo.anchors), target=turn(topo.target))
            self.assert_same(
                self.invariant_estimators(turned, meas, P, names),
                self.invariant_estimators(topo, meas, P, names),
                turn,
                lambda eliminated: eliminated,
            )

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_anchors=st.integers(6, 29),
        order=st.randoms(use_true_random=False),
    )
    def test_anchor_permutation_invariance(self, seed, n_anchors, order):
        # anchor j of the shuffled trial is anchor perm[j] of the original
        perm = list(range(n_anchors))
        order.shuffle(perm)
        for topo, meas, names in self.attacked_trials(seed, n_anchors):
            shuffled = Topology(anchors=topo.anchors[perm], target=topo.target)
            self.assert_same(
                self.invariant_estimators(shuffled, meas[perm], P, names),
                self.invariant_estimators(topo, meas, P, names),
                lambda position: position,
                lambda eliminated: {perm[j] for j in eliminated},
            )

    def test_deterministic_given_inputs(self):
        topo, meas, params = noisy_setup(seed=31)
        a = self.estimators_on(topo, meas, params, seed=5)
        b = self.estimators_on(topo, meas, params, seed=5)
        for name in a:
            assert np.array_equal(a[name].position, b[name].position), name


def _attacked_trials(kind, seed, count=6, n_anchors=29, packets=10):
    """Seeded desk-like trials: (measurements, anchors, system) under one
    attack kind, each with its own topology and malicious labels."""
    params = PathLossParams(-10.0, 4.0, 2.0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        topo = random_topology(n_anchors, 100.0, seed=rng)
        attack = AttackSpec("none")
        if kind != "none":
            topo = topo.with_malicious(select_malicious(n_anchors, 0.28, seed=rng))
            attack = (
                AttackSpec("uncoordinated", sigma_att=8.0)
                if kind == "uncoordinated"
                else AttackSpec("coordinated", t_att=topo.target + 12.0)
            )
        meas = simulate_measurements(topo, params, attack, packets, seed=rng)
        out.append((meas, topo.anchors, mean_system(topo.anchors, meas, params)))
    return params, out


ATTACK_KINDS = ("uncoordinated", "coordinated", "none")


class TestGradDescParity:
    """The per-anchor-mean loop takes the full-residual loop's path step for step."""

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_same_path_as_reference(self, kind):
        params, trials = _attacked_trials(kind, seed=40)
        for meas, anchors, system in trials:
            expected = grad_desc_reference(meas, anchors, params)
            est = grad_desc_estimate(system, params)
            assert est.iterations == expected.iterations
            assert est.converged == expected.converged
            assert est.eliminated == expected.eliminated
            np.testing.assert_allclose(est.position, expected.position, rtol=1e-9, atol=0)

    def test_divergence_same_as_reference(self, monkeypatch):
        monkeypatch.setattr(estimators, "GRAD_DESC_STEP", 1e12)
        params, trials = _attacked_trials("uncoordinated", seed=41, count=3)
        for meas, anchors, system in trials:
            expected = grad_desc_reference(meas, anchors, params, step=1e12)
            est = grad_desc_estimate(system, params)
            assert not expected.converged and not est.converged
            assert est.iterations == expected.iterations
            assert est.eliminated == expected.eliminated

    @pytest.mark.parametrize(
        "settings,stops",
        [
            (dict(), {"cap", "move", "box"}),
            (dict(step=1e12), {"box"}),
            (dict(max_iters=1), {"cap", "box"}),
            (dict(step=0.05, max_iters=80), {"cap", "box"}),
        ],
        ids=["default", "all-leave-box", "one-step", "small-step"],
    )
    def test_batch_same_paths_as_reference(self, settings, stops, monkeypatch):
        # one lock-step batch of trials that stop at different steps: on a
        # move below 1e-12 m ("move"), at max_iters ("cap"), or by leaving
        # the 1e6 m box ("box"; at the default step, rows 1e8 dB too loud
        # leave it at their first step): every row takes its own trial's
        # reference path, whichever rows share its batch
        trials = []
        for kind in ATTACK_KINDS:
            params, kind_trials = _attacked_trials(kind, seed=47, count=8)
            trials += kind_trials
        loud = []
        for meas, anchors, system in trials[:3]:
            meas = meas + 1e8
            loud.append((meas, anchors, replace(system, measurements=meas)))
        trials[3:3] = loud
        max_iters = settings.get("max_iters", 200)
        monkeypatch.setattr(estimators, "GRAD_DESC_STEP", settings.get("step", 0.4))
        fits = grad_desc_fits([system for *_, system in trials], params, max_iters=max_iters)
        seen = set()
        for (meas, anchors, _), est in zip(trials, fits):
            expected = grad_desc_reference(meas, anchors, params, **settings)
            assert est.iterations == expected.iterations
            assert est.converged == expected.converged
            assert est.eliminated == expected.eliminated
            np.testing.assert_allclose(est.position, expected.position, rtol=1e-9, atol=0)
            if not est.converged:
                seen.add("box")
            else:
                seen.add("cap" if est.iterations == max_iters else "move")
        assert seen == stops

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_callback_same_kept_sets_and_costs(self, kind, monkeypatch):
        # the library has no per-step hook, so its state after step k is read
        # by stopping it there (max_iters=k): the anchors it keeps at step k
        # and its cost at step k, the mean squared residual over those
        # anchors' packets at its position after k - 1 steps, match what the
        # reference loop's callback sees at step k
        params, trials = _attacked_trials(kind, seed=42, count=3, n_anchors=16)
        systems = [system for *_, system in trials]
        logs = []
        for meas, anchors, _ in trials:
            log = []
            grad_desc_reference(
                meas, anchors, params, step=0.05, max_iters=80,
                callback=lambda it, pos, kept, cost, log=log: log.append(
                    (it, tuple(kept), cost)
                ),
            )
            logs.append(log)
        monkeypatch.setattr(estimators, "GRAD_DESC_STEP", 0.05)
        stopped = [grad_desc_fits(systems, params, max_iters=k) for k in range(1, 81)]
        for row, ((meas, anchors, _), log) in enumerate(zip(trials, logs)):
            n, packets = meas.shape
            steps = []
            for it, _, _ in log:
                fit = stopped[it - 1][row]
                before = stopped[it - 2][row].position if it > 1 else anchors.mean(axis=0)
                kept = tuple(i for i in range(n) if i not in fit.eliminated)
                _, _, err = _rssi_residuals(before, anchors, meas, params)
                cost = float(np.sum(err[list(kept)] ** 2)) / (len(kept) * packets)
                steps.append((it, kept, cost))
            assert [(it, kept) for it, kept, _ in steps] == [(it, kept) for it, kept, _ in log]
            np.testing.assert_allclose(
                [c for *_, c in steps], [c for *_, c in log], rtol=1e-9, atol=0
            )


class TestGradDescMemo:
    """A fit memoized on a ``LinearSystem`` is returned only for its own
    params and settings; another layout is another system."""

    def batch(self):
        params, trials = _attacked_trials("uncoordinated", seed=48, count=3)
        fits = grad_desc_fits([system for *_, system in trials], params, max_iters=200)
        return params, trials, fits

    def test_repeat_call_returns_memoized_fit(self):
        params, trials, fits = self.batch()
        for (_, _, system), fit in zip(trials, fits):
            assert grad_desc_estimate(system, params) is fit
            (again,) = grad_desc_fits([system], params)
            assert again is fit

    @pytest.mark.parametrize("change", ["max_iters", "layout", "p0"])
    def test_other_inputs_recompute(self, change):
        params, trials, fits = self.batch()
        for (meas, anchors, system), fit in zip(trials, fits):
            args, kwargs = (meas, anchors, params), {}
            changed = system
            if change == "max_iters":
                kwargs = dict(max_iters=50)
            elif change == "layout":
                args = (meas, anchors + np.array([3.0, -2.0]), params)
                changed = mean_system(args[1], meas, params)
            else:
                args = (meas, anchors, replace(params, p0=params.p0 + 1.0))
            est = grad_desc_estimate(changed, args[2], **kwargs)
            expected = grad_desc_reference(*args, **kwargs)
            assert est is not fit
            assert est.iterations == expected.iterations
            assert est.converged == expected.converged
            assert est.eliminated == expected.eliminated
            np.testing.assert_allclose(est.position, expected.position, rtol=1e-9, atol=0)
            # the batch's own fit is still the one returned for its inputs
            assert grad_desc_estimate(system, params) is fit

    def test_system_without_measurements_fails_alone(self):
        # the bare row gets its own DomainError; the batch's other row is
        # fitted and memoized as it is alone
        params, trials = _attacked_trials("uncoordinated", seed=48, count=1)
        good = trials[0][2]
        bare = build_linear_system(good.anchors, good.ranges)
        fits = grad_desc_fits([good, bare], params)
        with pytest.raises(DomainError, match="no measurements"):
            raise fits[1]
        assert not bare.memo
        assert grad_desc_estimate(good, params) is fits[0]
        alone = grad_desc_estimate(replace(good), params)
        assert (fits[0].iterations, fits[0].converged) == (alone.iterations, alone.converged)
        assert fits[0].eliminated == alone.eliminated
        assert fits[0].position.tobytes() == alone.position.tobytes()


def _prepared_trials(config):
    """The trials of a config as the harness prepares them."""
    base = harness.base_topology(config)
    return harness.prepare_trials(config, range(config.trials), base)


def _assert_same_ml(fit, expected):
    assert (fit.iterations, fit.converged) == (expected.iterations, expected.converged)
    assert np.array_equal(fit.position, expected.position)


def _ml_stop(fit, system, params, max_iters):
    """Why an ML run stopped: the gradient test, the noise floor (a
    converged stop with the gradient above ``ML_GTOL``), the iteration cap,
    or a failed line search above the noise floor."""
    _, g = _ml_cost_grad(fit.position, system.anchors, system.measurements, params)
    if float(np.linalg.norm(g)) < ML_GTOL:
        return "gradient"
    if fit.converged:
        return "noise floor"
    return "cap" if fit.iterations == max_iters else "failed"


class TestMlParity:
    """ML's lock-step batch takes each trial's own BFGS path bit for bit:
    every position, iteration count and converged flag equals
    ``ml_reference``, the one-trial loop, whichever trials share its batch."""

    @pytest.mark.parametrize(
        "config, failed",
        [
            (replace(load_config("desk"), master_seed=20260810), 12),
            (replace(load_config("desk"), master_seed=20260811), 2),
            # the README's no-attack population: 24 of 200 stop non-converged
            (ExperimentConfig(estimators=("ml",), trials=200, master_seed=3), 24),
        ],
        ids=["desk-20260810", "desk-20260811", "no-attack"],
    )
    def test_chunks_match_reference(self, config, failed, monkeypatch):
        # the chunks a run of the config takes, recorded without running them
        layout = []
        monkeypatch.setattr(
            harness, "_run_chunk", lambda cfg, indices, *rest: layout.append(indices) or []
        )
        harness.run_monte_carlo(config)
        assert len(layout) > 1
        trials = _prepared_trials(config)
        fits = []
        for indices in layout:
            chunk = trials[indices.start : indices.stop]
            fits += ml_fits(
                [t.system for t in chunk], config.channel, [t.topology.target for t in chunk]
            )
        for trial, fit in zip(trials, fits):
            expected = ml_reference(trial.system, config.channel, trial.topology.target)
            _assert_same_ml(fit, expected)
        assert sum(not fit.converged for fit in fits) == failed

    def test_dots_run_on_the_lone_kernel(self):
        # The batch's dot products and norms are stacked (1, 2) @ (2, 1)
        # products, the BLAS dot of the one-trial loop's ``s @ y`` and
        # ``np.linalg.norm``; an einsum there moved one desk trial by an
        # iteration.  Pinned on the pairs a desk batch meets.
        rng = np.random.default_rng(50)
        a = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-12, 6, (200, 1))
        b = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-12, 6, (200, 1))
        dots = estimators._dots(a, b)
        norms = np.sqrt(estimators._dots(a, a))
        for k in range(a.shape[0]):
            assert dots[k] == float(a[k] @ b[k])
            assert norms[k] == float(np.linalg.norm(a[k]))

    def test_mixed_batch_rows_stop_on_their_own(self, monkeypatch):
        # One batch in which rows stop at the gradient test, at the noise
        # floor and at a cap lowered to 9 iterations, one row's first step
        # lands on an anchor and is damped, and two rows cannot run: a
        # non-finite init and a system without measurements.  Every row
        # takes its own trial's path, and the two that cannot run fail
        # alone, with nothing memoized.
        monkeypatch.setattr(estimators, "ML_MAX_ITERS", 9)
        config = replace(load_config("desk"), master_seed=20260810, trials=18)
        params = config.channel
        trials = _prepared_trials(config)
        systems = [t.system for t in trials[:16]]
        inits = [t.topology.target for t in trials[:16]]
        damped, start = self.colliding_system(trials[16].system, params)
        systems.append(damped)
        inits.append(start)
        nan_system = trials[17].system
        bare = build_linear_system(nan_system.anchors, nan_system.ranges)
        fits = ml_fits(systems + [nan_system, bare], params, inits + [(np.nan, 50.0)] * 2)
        stops = []
        for system, init, fit in zip(systems, inits, fits):
            _assert_same_ml(fit, ml_reference(system, params, init, max_iters=9))
            stops.append(_ml_stop(fit, system, params, max_iters=9))
        assert {"gradient", "noise floor", "cap"} <= set(stops[:16])
        assert fits[16].iterations >= 1
        with pytest.raises(DomainError, match="init must be finite"):
            raise fits[17]
        with pytest.raises(DomainError, match="no measurements"):
            raise fits[18]
        assert not nan_system.memo and not bare.memo
        # a lone call raises the same error and memoizes nothing either
        with pytest.raises(DomainError, match="init must be finite"):
            ml_estimate(nan_system, params, init=(np.nan, 50.0))
        assert not nan_system.memo

    @staticmethod
    def colliding_system(system, params):
        """``system`` with its last anchor moved to where ML's first step
        from a start near the target lands.  The moved anchor's packets all
        equal the model at the start, so its residuals there are 0 and the
        step is that of the other anchors alone, up to rounding far below
        the 1e-9 m damping."""
        anchors, rssi = system.anchors[:-1], system.measurements[:-1]
        start = anchors.mean(axis=0) + np.array([3.0, -2.0])
        _, g = _ml_cost_grad(start, anchors, rssi, params)
        spot = start - g
        d2 = np.maximum(np.einsum("j,j->", start - spot, start - spot), 1e-24)
        row = np.full((1, rssi.shape[1]), mean_rssi_sq(params, d2))
        anchors = np.vstack([anchors, spot])
        rssi = np.vstack([rssi, row])
        damped = build_linear_system(
            anchors, distance_from_rssi(params, rssi.mean(axis=1)), rssi
        )
        _, g = _ml_cost_grad(start, damped.anchors, rssi, params)
        assert np.min(np.linalg.norm(start - g - damped.anchors, axis=1)) < 1e-9
        return damped, start


class TestMlMemo:
    """An ML fit memoized on a ``LinearSystem`` is returned only for its own
    params and init."""

    def test_lone_call_returns_batch_fit(self):
        config = replace(load_config("desk"), master_seed=20260811, trials=6)
        trials = _prepared_trials(config)
        fits = ml_fits(
            [t.system for t in trials], config.channel, [t.topology.target for t in trials]
        )
        for trial, fit in zip(trials, fits):
            target = trial.topology.target
            assert ml_estimate(trial.system, config.channel, init=target) is fit
            assert ml_estimate(trial.system, config.channel, init=tuple(target)) is fit
            moved = ml_estimate(trial.system, config.channel, init=target + 1.0)
            assert moved is not fit
            _assert_same_ml(moved, ml_reference(trial.system, config.channel, target + 1.0))
            other = replace(config.channel, p0=config.channel.p0 + 1.0)
            assert ml_estimate(trial.system, other, init=target) is not fit


def _collinear_anchors(on_line, off_line, seed):
    """``on_line`` anchors on the line y = 0.3 x + 10 (rank deficient up to
    rounding) plus ``off_line`` anchors scattered over the area."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, on_line)
    line = np.column_stack([x, 0.3 * x + 10.0])
    return np.vstack([line, rng.uniform(0.0, 100.0, (off_line, 2))])


def _lmds_pair(system, anchors, seed):
    """The reference loop at the library's LMdS constants, and the library."""
    settings = dict(n_subsets=estimators.LMDS_SUBSETS, subset_size=estimators.LMDS_SUBSET_SIZE)
    expected = lmds_reference(system, anchors, seed=seed, **settings)
    return expected, lmds_estimate(system, seed=seed)


def _assert_same_lmds(expected, est):
    assert est.iterations == expected.iterations
    np.testing.assert_allclose(est.position, expected.position, rtol=1e-9, atol=0)
    np.testing.assert_allclose(est.auxiliary, expected.auxiliary, rtol=1e-9, atol=0)


class TestLmdsParity:
    """One batched solve per round of draws keeps the plain loop's candidate."""

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_same_candidate_as_reference(self, kind):
        _, trials = _attacked_trials(kind, seed=43)
        for i, (_, anchors, system) in enumerate(trials):
            for seed in (i, 100 + i):
                _assert_same_lmds(*_lmds_pair(system, anchors, seed=seed))

    def test_degenerate_subsets_retried_in_draw_order(self, monkeypatch):
        # 6 of 9 anchors collinear: about a quarter of the 3-subsets are rank
        # deficient, so the first 20 draws include some, and a further batch
        # of draws replaces them.
        anchors = _collinear_anchors(6, 3, seed=44)
        target = np.array([47.0, 52.0])
        system = build_linear_system(anchors, np.linalg.norm(anchors - target, axis=1) * 1.02)
        monkeypatch.setattr(estimators, "LMDS_SUBSET_SIZE", 3)
        retried = 0
        for seed in range(8):
            expected, est = _lmds_pair(system, anchors, seed=seed)
            _assert_same_lmds(expected, est)
            assert est.iterations == 20
            draws = np.random.default_rng(seed)
            first = [draws.choice(9, size=3, replace=False) for _ in range(20)]
            retried += sum(np.linalg.matrix_rank(system.A[idx], tol=1e-9) < 3 for idx in first)
        assert retried > 0

    def test_retries_exhausted_same_as_reference(self, monkeypatch):
        # 120 collinear anchors and one off the line: a 3-subset has full
        # rank with probability 3/121, so the 20 * n_subsets retries run out,
        # often in the middle of a batch of draws.
        anchors = _collinear_anchors(120, 1, seed=45)
        system = build_linear_system(anchors, np.linalg.norm(anchors - 50.0, axis=1))
        monkeypatch.setattr(estimators, "LMDS_SUBSET_SIZE", 3)
        short = 0
        for n_subsets in (5, 20):
            monkeypatch.setattr(estimators, "LMDS_SUBSETS", n_subsets)
            for seed in range(12):
                try:
                    expected, est = _lmds_pair(system, anchors, seed)
                except DegenerateGeometryError:  # no candidate before the retries ran out
                    with pytest.raises(DegenerateGeometryError):
                        lmds_estimate(system, seed=seed)
                    continue
                _assert_same_lmds(expected, est)
                short += est.iterations < n_subsets
        assert short > 0

    def test_all_subsets_degenerate(self, monkeypatch):
        monkeypatch.setattr(estimators, "LMDS_SUBSETS", 3)
        monkeypatch.setattr(estimators, "LMDS_SUBSET_SIZE", 3)
        anchors = _collinear_anchors(8, 0, seed=46)
        system = build_linear_system(anchors, np.linalg.norm(anchors - 50.0, axis=1))
        for call in (
            lambda: lmds_reference(system, anchors, n_subsets=3, subset_size=3, seed=0),
            lambda: lmds_estimate(system, seed=0),
        ):
            with pytest.raises(DegenerateGeometryError):
                call()


class TestCollinearAnchors:
    """ML fits the RSSI matrix, not the squared-range system, so anchors on
    (or near) one line leave it no rank test to fail; Grad-Desc, which
    starts at the anchors' centroid, tests the rank of the anchors
    themselves.  These pin what both return there.  Any numpy warning fails
    the suite."""

    TARGET = np.array([50.0, 50.0])

    @pytest.mark.parametrize("on_line,off_line", [(28, 1), (27, 2), (26, 3), (20, 9)])
    def test_nearly_collinear_ml_and_grad_desc_finite(self, on_line, off_line):
        for seed in range(5):
            anchors = _collinear_anchors(on_line, off_line, seed=seed)
            meas = simulate_measurements(
                Topology(anchors, self.TARGET), P, AttackSpec("none"), 10, seed=seed
            )
            system = mean_system(anchors, meas, P)
            ml = ml_estimate(system, P, init=self.TARGET)
            gd = grad_desc_estimate(system, P)
            for est in (ml, gd):
                assert est.converged and np.all(np.isfinite(est.position))
            assert np.linalg.norm(ml.position - self.TARGET) < 2.0

    def test_exactly_collinear(self):
        # 12 anchors on y = 20, beyond what Topology accepts, so the RSSI
        # matrix is built here: the squared-range estimators see a
        # rank-deficient A, while ML still returns an estimate.  Grad-Desc's
        # cost is symmetric about the line and its start, the anchors'
        # centroid, lies on it, so it would never leave the line: it raises
        # instead, and in a batch the other rows run as they do alone.
        anchors = np.column_stack([np.arange(12) * 8.0 + 6.0, np.full(12, 20.0)])
        d = np.linalg.norm(anchors - self.TARGET, axis=1)
        params, trials = _attacked_trials("none", seed=49, count=2, n_anchors=12)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rssi = mean_rssi(P, d)[:, None] + rng.normal(0.0, 2.0, (12, 10))
            system = mean_system(anchors, rssi, P)
            for fn in (
                lambda: ls_estimate(system),
                lambda: lmds_estimate(system, seed=seed),
                lambda: ln1_estimate(system),
                lambda: grad_desc_estimate(system, P),
            ):
                with pytest.raises(DegenerateGeometryError):
                    fn()
            ml = ml_estimate(system, P, init=self.TARGET)
            assert ml.converged and ml.iterations >= 1
            assert np.linalg.norm(ml.position - self.TARGET) < 2.0
        fits = grad_desc_fits([s for *_, s in trials] + [system], params)
        assert isinstance(fits[2], DegenerateGeometryError)
        assert not [key for key in system.memo if key[0] == "grad_desc"]
        for fit, (m, a, _) in zip(fits[:2], trials):
            expected = grad_desc_reference(m, a, params)
            assert (fit.iterations, fit.converged) == (expected.iterations, expected.converged)
            assert fit.eliminated == expected.eliminated
            np.testing.assert_allclose(fit.position, expected.position, rtol=1e-9, atol=0)


class TestLeastSquaresKernel:
    """``_least_squares`` against numpy's own least-squares solver."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.integers(1, 5),
        on_line=st.integers(0, 12),
        off_line=st.integers(0, 4),
        weighted=st.booleans(),
    )
    def test_matches_lstsq(self, seed, stack, on_line, off_line, weighted):
        # Anchors on a line make a system rank deficient up to rounding; one
        # or two off it give full rank at a large condition number.
        rng = np.random.default_rng(seed)
        off_line = max(off_line, 3 - on_line)
        rows = on_line + off_line
        systems, weights = [], []
        for _ in range(stack):
            anchors = _collinear_anchors(on_line, off_line, seed=rng)
            target = rng.uniform(0.0, 100.0, 2)
            d = np.linalg.norm(anchors - target, axis=1) * rng.uniform(0.9, 1.1, rows)
            systems.append(build_linear_system(anchors, d))
            weights.append(rng.uniform(0.1, 10.0, rows) if weighted else np.ones(rows))
        sw = np.sqrt(weights)
        A = np.array([s.A for s in systems]) * sw[:, :, None]
        b = np.array([s.b for s in systems]) * sw
        sols, flags = _least_squares(A, b)
        ops, op_flags = _least_squares(A)
        np.testing.assert_array_equal(op_flags, flags)
        for k in range(stack):
            expected, _, rank, svals = np.linalg.lstsq(A[k], b[k], rcond=None)
            assert flags[k] == (rank < 3 or rank_deficient(svals))
            # LS on the weighted rows, one system at a time
            lone = LinearSystem(A[k], b[k])
            if flags[k]:
                with pytest.raises(DegenerateGeometryError):
                    ls_estimate(lone)
                continue
            scale = np.linalg.norm(expected)
            assert np.linalg.norm(sols[k] - expected) <= 1e-9 * scale
            assert np.linalg.norm(ops[k] @ b[k] - expected) <= 1e-9 * scale
            solved = ls_estimate(lone)
            solved = np.r_[solved.position, solved.auxiliary]
            assert np.linalg.norm(solved - expected) <= 1e-9 * scale

    def test_singular_stack_is_flagged_quietly(self):
        # A zero matrix has no nonzero singular value to divide by; the
        # suite turns the warning such a division would raise into an error.
        good = build_linear_system(_collinear_anchors(3, 3, seed=47), np.full(6, 30.0))
        line = build_linear_system(_collinear_anchors(6, 0, seed=48), np.full(6, 30.0))
        A = np.array([good.A, np.zeros((6, 3)), line.A])
        b = np.array([good.b, np.ones(6), line.b])
        sols, flags = _least_squares(A, b)
        ops, _ = _least_squares(A)
        assert flags.tolist() == [False, True, True]
        np.testing.assert_allclose(
            sols[0], np.linalg.lstsq(good.A, good.b, rcond=None)[0], rtol=1e-9, atol=0
        )
        np.testing.assert_allclose(ops[0] @ good.b, sols[0], rtol=1e-9, atol=0)


SQUARE_ANCHORS = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])


def _ml_batch_of_two_packet_counts():
    # ML stacks its batch's RSSI arrays, so they must share one shape
    ranges = np.linalg.norm(SQUARE_ANCHORS - [40.0, 60.0], axis=1)
    rssi = mean_rssi(P, ranges)[:, None]
    systems = [
        build_linear_system(SQUARE_ANCHORS, ranges, np.repeat(rssi, p, axis=1))
        for p in (10, 5)
    ]
    return ml_fits(systems, P, [(40.0, 60.0)] * 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinearSystem(np.ones((4, 2)), np.zeros(4)), DomainError, r"an \(N, 3\) matrix"),
        (lambda: LinearSystem(np.ones((4, 3)), np.zeros(3)), DomainError, "A and b row counts"),
        (
            lambda: LinearSystem(np.ones((2, 3)), np.zeros(2)),
            InsufficientAnchorsError,
            "need at least 3 rows, got 2",
        ),
        (
            lambda: LinearSystem(np.ones((4, 3)), np.zeros(4), ranges=np.ones(3)),
            DomainError,
            "ranges and b row counts differ",
        ),
        (lambda: Estimate([np.nan, 1.0]), DomainError, "a converged estimate must be finite"),
        (
            lambda: build_linear_system(SQUARE_ANCHORS[:3], np.ones(4)),
            DomainError,
            "anchor and distance counts differ",
        ),
        (_ml_batch_of_two_packet_counts, DomainError, "one RSSI shape"),
    ],
    ids=[
        "A-columns", "A-b-rows", "two-rows", "ranges-rows", "nan-estimate",
        "anchor-range-counts", "ml-rssi-shapes",
    ],
)
def test_bad_input_is_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
