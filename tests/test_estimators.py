import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secloc import (
    AttackSpec,
    DegenerateGeometryError,
    DomainError,
    InsufficientAnchorsError,
    InsufficientSurvivorsError,
    LinearSystem,
    MeasurementMatrix,
    PathLossParams,
    SecLocError,
    Topology,
    build_linear_system,
    distance_from_rssi,
    distance_sq_variance,
    grad_desc_estimate,
    lmds_estimate,
    ln1_estimate,
    ln1e_estimate,
    ls_estimate,
    mean_rssi,
    ml_estimate,
    random_topology,
    select_malicious,
    simulate_measurements,
    swls_estimate,
    wls_estimate,
)
from secloc.estimators import (
    _least_squares,
    _rssi_cost_grad,
    _rssi_model,
    _solve_rows,
    rank_deficient,
)

from helpers import grad_desc_reference, lmds_reference

P = PathLossParams(-10.0, 4.0, 2.0)
P0 = PathLossParams(-10.0, 4.0, 0.0)


def exact_measurements(topo, params, packets=1):
    return simulate_measurements(topo, params, AttackSpec("none"), packets, seed=0)


def mean_system(anchors, meas, params):
    """The trial's system: ranges inverted once from the row-mean RSSI."""
    return build_linear_system(anchors, distance_from_rssi(params, meas.rssi.mean(axis=1)))


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

    def test_ranges_travel_with_subsets(self):
        anchors = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
        system = build_linear_system(anchors, [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(system.ranges, [5.0, 6.0, 7.0, 8.0])
        sub = system.subset([3, 0, 2])
        np.testing.assert_array_equal(sub.ranges, [5.0, 7.0, 8.0])
        np.testing.assert_array_equal(sub.b, system.b[[0, 2, 3]])


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
        meas = MeasurementMatrix(np.full((7, 4), -45.0))
        system = mean_system(anchors, meas, P)
        est_wls = wls_estimate(system, P)
        est_ls = ls_estimate(system)
        np.testing.assert_allclose(est_wls.position, est_ls.position, atol=1e-9)

    def test_closer_anchors_weigh_more(self):
        # the squared-range variance grows strictly with range
        topo, meas, params = noisy_setup(seed=4)
        mean_d = distance_from_rssi(params, meas.rssi.mean(axis=1))
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


def mean_rssi_of(distance):
    return P.p0 - 10 * P.n * math.log10(distance)


@pytest.mark.parametrize("n", [2.0, 3.3, 4.0])
def test_squared_range_model_matches_channel(n):
    # The estimators' model in d^2 form and the simulator's in d form.
    params = PathLossParams(-10.0, n, 2.0)
    rng = np.random.default_rng(31)
    anchors = rng.uniform(0.0, 100.0, (29, 2))
    for t in rng.uniform(-20.0, 120.0, (50, 2)):
        _, d2, model = _rssi_model(t, anchors, params)
        np.testing.assert_allclose(model, mean_rssi(params, np.sqrt(d2)), rtol=0, atol=1e-12)


class TestSwls:
    def test_clean_network_keeps_everything(self):
        topo = random_topology(29, 100.0, seed=6)
        meas = simulate_measurements(topo, P, AttackSpec("none"), 10_000, seed=7)
        est = swls_estimate(mean_system(topo.anchors, meas, P), meas, P)
        assert est.eliminated == frozenset()

    def test_attacked_anchors_eliminated_exactly(self):
        topo = random_topology(29, 100.0, seed=8)
        mal = select_malicious(29, 0.28, seed=9)
        topo = topo.with_malicious(mal)
        meas = simulate_measurements(
            topo, P, AttackSpec("uncoordinated", sigma_att=8.0), 10_000, seed=10
        )
        est = swls_estimate(mean_system(topo.anchors, meas, P), meas, P)
        assert est.eliminated == mal

    def test_no_elimination_equals_wls(self):
        topo, meas, params = noisy_setup(seed=11)
        est_swls = swls_estimate(mean_system(topo.anchors, meas, params), meas, params)
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
            swls_estimate(mean_system(topo.anchors, meas, P), meas, P)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.nan, math.inf])
    def test_zeta_must_be_positive_and_finite(self, zeta):
        # A nan threshold would eliminate every anchor and report it as too
        # few survivors, not as the bad setting it is.
        topo, meas, params = noisy_setup(seed=13)
        with pytest.raises(DomainError, match="zeta"):
            swls_estimate(mean_system(topo.anchors, meas, params), meas, params, zeta=zeta)

    def test_needs_two_packets(self):
        topo = random_topology(5, 100.0, seed=14)
        meas = exact_measurements(topo, P, packets=1)
        with pytest.raises(DomainError):
            swls_estimate(mean_system(topo.anchors, meas, P), meas, P)

    def test_measurements_must_match_the_system(self):
        topo, meas, params = noisy_setup(seed=14)
        system = mean_system(topo.anchors[:-1], MeasurementMatrix(meas.rssi[:-1]), params)
        with pytest.raises(DomainError):
            swls_estimate(system, meas, params)

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
                est = swls_estimate(mean_system(topo.anchors, meas, P), meas, P)
                total += len(est.eliminated & mal)
            counts.append(total / trials)
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestMl:
    def test_zero_noise_truth_is_fixed_point(self):
        topo = random_topology(10, 100.0, seed=15)
        meas = exact_measurements(topo, P0)
        est = ml_estimate(meas, topo.anchors, P0, init=topo.target)
        np.testing.assert_allclose(est.position, topo.target, atol=1e-12)
        assert est.converged and est.iterations == 0
        cost, _ = _rssi_cost_grad(est.position, topo.anchors, meas.rssi, P0)
        assert cost < 1e-20  # zero up to the log/exp round-trip rounding

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        topo, meas, params = noisy_setup(seed=16)
        h = 1e-5
        for _ in range(10):
            t = rng.uniform(10, 90, 2)
            _, g = _rssi_cost_grad(t, topo.anchors, meas.rssi, params)
            num = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fp, _ = _rssi_cost_grad(t + e, topo.anchors, meas.rssi, params)
                fm, _ = _rssi_cost_grad(t - e, topo.anchors, meas.rssi, params)
                num[k] = (fp - fm) / (2 * h)
            assert np.linalg.norm(g - num) <= 1e-5 * max(np.linalg.norm(num), 1.0)

    def test_descends_from_init(self):
        topo, meas, params = noisy_setup(seed=17)
        init = topo.target + np.array([5.0, -7.0])
        f0, _ = _rssi_cost_grad(init, topo.anchors, meas.rssi, params)
        est = ml_estimate(meas, topo.anchors, params, init=init)
        f1, _ = _rssi_cost_grad(est.position, topo.anchors, meas.rssi, params)
        assert f1 <= f0
        assert est.converged


class TestLmds:
    def test_zero_noise_returns_truth(self):
        topo = random_topology(9, 100.0, seed=18)
        meas = exact_measurements(topo, P0, packets=3)
        system = mean_system(topo.anchors, meas, P0)
        est = lmds_estimate(system, topo.anchors, n_subsets=20, subset_size=4, seed=19)
        assert np.linalg.norm(est.position - topo.target) < 1e-9

    def test_clean_subset_wins_planted_instance(self):
        # 7 anchors, 3 grossly corrupted: enumerate all 4-subsets and verify
        # the corruption-free one has the strictly smallest median residual,
        # then verify the estimator (seeing enough subsets) lands on truth.
        from itertools import combinations
        from secloc.estimators import _solve_rows

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
            sol = _solve_rows(system.A[list(sub)], system.b[list(sub)])
            residuals = (d - np.linalg.norm(sol[:2] - anchors, axis=1)) ** 2
            medians[sub] = np.median(residuals)
        clean = (0, 1, 2, 3)
        assert all(medians[clean] < v for key, v in medians.items() if key != clean)

        rssi = P0.p0 - 10 * P0.n * np.log10(d)
        meas = MeasurementMatrix(np.tile(rssi[:, None], (1, 2)))
        system = mean_system(anchors, meas, P0)
        est = lmds_estimate(system, anchors, n_subsets=60, subset_size=4, seed=20)
        assert np.linalg.norm(est.position - target) < 1e-6

    def test_validation(self):
        topo, meas, params = noisy_setup(seed=21, n_anchors=5)
        system = mean_system(topo.anchors, meas, params)
        with pytest.raises(DomainError):
            lmds_estimate(system, topo.anchors, subset_size=2)
        with pytest.raises(DomainError):
            lmds_estimate(system, topo.anchors, n_subsets=0)
        with pytest.raises(DomainError):
            lmds_estimate(system, topo.anchors, subset_size=9)
        with pytest.raises(DomainError):  # anchors of another system
            lmds_estimate(system, topo.anchors[:4], subset_size=3)


class TestGradDesc:
    def test_zero_noise_stays_at_truth(self):
        topo = random_topology(10, 100.0, seed=22)
        meas = exact_measurements(topo, P0)
        est = grad_desc_estimate(
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
            grad_desc_estimate(
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
        est = grad_desc_estimate(meas, topo.anchors, P0, max_iters=3000)
        assert est.converged
        assert np.linalg.norm(est.position - topo.target) < 1e-4

    def test_divergence_flagged(self):
        topo = random_topology(8, 100.0, seed=27)
        meas = exact_measurements(topo, P)
        est = grad_desc_estimate(meas, topo.anchors, P, step=1e12)
        assert not est.converged

    def test_validation(self):
        topo, meas, params = noisy_setup(seed=28, n_anchors=6)
        with pytest.raises(DomainError):
            grad_desc_estimate(meas, topo.anchors, params, step=0.0)
        with pytest.raises(DomainError):
            grad_desc_estimate(meas, topo.anchors, params, keep_fraction=0.0)
        with pytest.raises(DomainError):
            grad_desc_estimate(meas, topo.anchors, params, max_iters=0)


class TestSharedProperties:
    def estimators_on(self, topo, meas, params, seed=99):
        system = mean_system(topo.anchors, meas, params)
        return {
            "ls": ls_estimate(system),
            "wls": wls_estimate(system, params),
            "swls": swls_estimate(system, meas, params),
            "ml": ml_estimate(meas, topo.anchors, params, init=topo.target),
            "lmds": lmds_estimate(system, topo.anchors, seed=seed),
            "grad_desc": grad_desc_estimate(meas, topo.anchors, params),
        }

    def test_translation_equivariance(self):
        shift = np.array([37.5, -12.25])
        topo, meas, params = noisy_setup(seed=29, n_anchors=14)
        moved = Topology(anchors=topo.anchors + shift, target=topo.target + shift)
        meas2 = simulate_measurements(moved, params, AttackSpec("none"), 10, seed=30)
        meas1 = simulate_measurements(topo, params, AttackSpec("none"), 10, seed=30)
        # identical noise realization: distances are translation invariant
        assert np.array_equal(meas1.rssi, meas2.rssi)
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
            "swls": lambda: swls_estimate(system, meas, params),
            "ml": lambda: ml_estimate(meas, topo.anchors, params, init=topo.target),
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
                self.invariant_estimators(
                    shuffled, MeasurementMatrix(meas.rssi[perm]), P, names
                ),
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
        for meas, anchors, _ in trials:
            expected = grad_desc_reference(meas, anchors, params)
            est = grad_desc_estimate(meas, anchors, params)
            assert est.iterations == expected.iterations
            assert est.converged == expected.converged
            assert est.eliminated == expected.eliminated
            np.testing.assert_allclose(est.position, expected.position, rtol=1e-9, atol=0)

    def test_divergence_same_as_reference(self):
        params, trials = _attacked_trials("uncoordinated", seed=41, count=3)
        for meas, anchors, _ in trials:
            expected = grad_desc_reference(meas, anchors, params, step=1e12)
            est = grad_desc_estimate(meas, anchors, params, step=1e12)
            assert not expected.converged and not est.converged
            assert est.iterations == expected.iterations
            assert est.eliminated == expected.eliminated

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_callback_same_kept_sets_and_costs(self, kind):
        params, trials = _attacked_trials(kind, seed=42, count=3, n_anchors=16)
        for meas, anchors, _ in trials:
            seen = {"reference": [], "estimate": []}
            for name, fn in (("reference", grad_desc_reference), ("estimate", grad_desc_estimate)):
                fn(
                    meas, anchors, params, step=0.05, max_iters=80,
                    callback=lambda it, pos, kept, cost, log=seen[name]: log.append(
                        (it, tuple(kept), cost)
                    ),
                )
            ref, new = seen["reference"], seen["estimate"]
            assert [(it, kept) for it, kept, _ in new] == [(it, kept) for it, kept, _ in ref]
            np.testing.assert_allclose(
                [c for *_, c in new], [c for *_, c in ref], rtol=1e-9, atol=0
            )


def _collinear_anchors(on_line, off_line, seed):
    """``on_line`` anchors on the line y = 0.3 x + 10 (rank deficient up to
    rounding) plus ``off_line`` anchors scattered over the area."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, on_line)
    line = np.column_stack([x, 0.3 * x + 10.0])
    return np.vstack([line, rng.uniform(0.0, 100.0, (off_line, 2))])


def _lmds_pair(system, anchors, **kwargs):
    return lmds_reference(system, anchors, **kwargs), lmds_estimate(system, anchors, **kwargs)


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

    def test_degenerate_subsets_retried_in_draw_order(self):
        # 6 of 9 anchors collinear: about a quarter of the 3-subsets are rank
        # deficient, so the first 20 draws include some, and a further batch
        # of draws replaces them.
        anchors = _collinear_anchors(6, 3, seed=44)
        target = np.array([47.0, 52.0])
        system = build_linear_system(anchors, np.linalg.norm(anchors - target, axis=1) * 1.02)
        retried = 0
        for seed in range(8):
            expected, est = _lmds_pair(system, anchors, subset_size=3, seed=seed)
            _assert_same_lmds(expected, est)
            assert est.iterations == 20
            draws = np.random.default_rng(seed)
            first = [draws.choice(9, size=3, replace=False) for _ in range(20)]
            retried += sum(np.linalg.matrix_rank(system.A[idx], tol=1e-9) < 3 for idx in first)
        assert retried > 0

    def test_retries_exhausted_same_as_reference(self):
        # 120 collinear anchors and one off the line: a 3-subset has full
        # rank with probability 3/121, so the 20 * n_subsets retries run out,
        # often in the middle of a batch of draws.
        anchors = _collinear_anchors(120, 1, seed=45)
        system = build_linear_system(anchors, np.linalg.norm(anchors - 50.0, axis=1))
        short = 0
        for n_subsets in (5, 20):
            for seed in range(12):
                kwargs = dict(n_subsets=n_subsets, subset_size=3, seed=seed)
                try:
                    expected = lmds_reference(system, anchors, **kwargs)
                except DegenerateGeometryError:  # no candidate before the retries ran out
                    with pytest.raises(DegenerateGeometryError):
                        lmds_estimate(system, anchors, **kwargs)
                    continue
                est = lmds_estimate(system, anchors, **kwargs)
                _assert_same_lmds(expected, est)
                short += est.iterations < n_subsets
        assert short > 0

    def test_all_subsets_degenerate(self):
        anchors = _collinear_anchors(8, 0, seed=46)
        system = build_linear_system(anchors, np.linalg.norm(anchors - 50.0, axis=1))
        for fn in (lmds_reference, lmds_estimate):
            with pytest.raises(DegenerateGeometryError):
                fn(system, anchors, n_subsets=3, subset_size=3, seed=0)


class TestCollinearAnchors:
    """ML and Grad-Desc fit the RSSI matrix, not the squared-range system, so
    anchors on (or near) one line leave them no rank test to fail; these
    pin what they return there.  Any numpy warning fails the suite."""

    TARGET = np.array([50.0, 50.0])

    @pytest.mark.parametrize("on_line,off_line", [(28, 1), (27, 2), (26, 3), (20, 9)])
    def test_nearly_collinear_ml_and_grad_desc_finite(self, on_line, off_line):
        for seed in range(5):
            anchors = _collinear_anchors(on_line, off_line, seed=seed)
            meas = simulate_measurements(
                Topology(anchors, self.TARGET), P, AttackSpec("none"), 10, seed=seed
            )
            ml = ml_estimate(meas, anchors, P, init=self.TARGET)
            gd = grad_desc_estimate(meas, anchors, P)
            for est in (ml, gd):
                assert est.converged and np.all(np.isfinite(est.position))
            assert np.linalg.norm(ml.position - self.TARGET) < 2.0

    def test_exactly_collinear(self):
        # 12 anchors on y = 20, beyond what Topology accepts, so the RSSI
        # matrix is built here: the squared-range estimators see a
        # rank-deficient A, while ML and Grad-Desc still return an estimate.
        # Their cost is symmetric about the line, and Grad-Desc starts at the
        # anchors' centroid, on the line, so it never leaves it.
        anchors = np.column_stack([np.arange(12) * 8.0 + 6.0, np.full(12, 20.0)])
        d = np.linalg.norm(anchors - self.TARGET, axis=1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rssi = mean_rssi(P, d)[:, None] + rng.normal(0.0, 2.0, (12, 10))
            meas = MeasurementMatrix(rssi)
            system = mean_system(anchors, meas, P)
            for fn in (
                lambda: ls_estimate(system),
                lambda: lmds_estimate(system, anchors, seed=seed),
                lambda: ln1_estimate(system),
            ):
                with pytest.raises(DegenerateGeometryError):
                    fn()
            ml = ml_estimate(meas, anchors, P, init=self.TARGET)
            gd = grad_desc_estimate(meas, anchors, P)
            for est in (ml, gd):
                assert est.converged and np.all(np.isfinite(est.position))
                assert est.iterations >= 1
            assert np.linalg.norm(ml.position - self.TARGET) < 2.0
            assert gd.position[1] == 20.0


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
        for k, system in enumerate(systems):
            expected, _, rank, svals = np.linalg.lstsq(A[k], b[k], rcond=None)
            assert flags[k] == (rank < 3 or rank_deficient(svals))
            if flags[k]:
                with pytest.raises(DegenerateGeometryError):
                    _solve_rows(system.A, system.b, weights[k] if weighted else None)
                continue
            scale = np.linalg.norm(expected)
            assert np.linalg.norm(sols[k] - expected) <= 1e-9 * scale
            assert np.linalg.norm(ops[k] @ b[k] - expected) <= 1e-9 * scale
            solved = _solve_rows(system.A, system.b, weights[k] if weighted else None)
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
