from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secloc import (
    DegenerateGeometryError,
    DomainError,
    Estimate,
    LinearSystem,
    admm_l1_plane,
    admm_l1_planes,
    build_linear_system,
    kmeans_1d,
    ln1_estimate,
    ln1e_estimate,
    point_plane_residual,
    random_topology,
)
from secloc import planefit

from helpers import (
    admm_l1_plane_reference,
    best_split_1d,
    coordinated_system,
    gross_outlier_system,
    l1_oracle,
    two_strip_plant,
)


@pytest.fixture()
def tight(monkeypatch):
    """A stop rule tight enough to reach the l1 optimum."""
    monkeypatch.setattr(planefit, "ADMM_CONV_TOL", 1e-8)
    monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 200_000)


def plane_of(fit):
    return np.array([*fit.position, fit.auxiliary])


def assert_same_fit(fit, expected, rtol):
    """Same stopping sweep and outcome, and each plane coefficient within
    ``rtol`` of the expected plane's norm.  Both fits round on the scale of
    gamma ~ ||t||^2, not on that of alpha and beta, so a coefficient-wise
    relative check would hold only by luck of the instance."""
    assert fit.iterations == expected.iterations
    assert fit.converged == expected.converged
    plane = plane_of(expected)
    np.testing.assert_allclose(
        plane_of(fit), plane, rtol=0, atol=rtol * np.linalg.norm(plane)
    )


class TestAdmmPlane:
    def test_exact_plane_recovered(self):
        topo = random_topology(12, 100.0, seed=1)
        system = build_linear_system(topo.anchors, topo.distances())
        fit = admm_l1_plane(system)
        assert fit.converged
        target = np.append(topo.target, topo.target @ topo.target)
        np.testing.assert_allclose(plane_of(fit), target, atol=1e-6)
        assert point_plane_residual(system, fit).sum() < 1e-6

    @pytest.mark.usefixtures("tight")
    def test_planted_z_outliers(self):
        # clean majority exactly on u* = (3, 4, 25); 8 of 29 b-entries grossly
        # corrupted.  The l1 fit must return u*; the LP oracle confirms u* is
        # the l1 minimizer.
        rng = np.random.default_rng(2)
        anchors = rng.uniform(0.0, 10.0, (29, 2))
        u_star = np.array([3.0, 4.0, 25.0])
        A = np.column_stack([-2 * anchors[:, 0], -2 * anchors[:, 1], np.ones(29)])
        b = A @ u_star
        bad = rng.choice(29, size=8, replace=False)
        b[bad] += rng.uniform(200.0, 500.0, 8) * rng.choice([-1.0, 1.0], 8)
        system = LinearSystem(A=A, b=b)
        u_lp, _ = l1_oracle(A, b)
        np.testing.assert_allclose(u_lp, u_star, atol=1e-6)
        fit = admm_l1_plane(system)
        np.testing.assert_allclose(plane_of(fit), u_star, atol=1e-3)

    @pytest.mark.usefixtures("tight")
    def test_objective_matches_lp_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            system, _, _ = gross_outlier_system(rng, fraction=float(rng.uniform(0, 0.4)))
            fit = admm_l1_plane(system)
            objective = point_plane_residual(system, fit).sum()
            _, best = l1_oracle(system.A, system.b)
            assert objective <= best * (1 + 1e-4) + 1e-9

    def test_max_iters_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(planefit, "ADMM_CONV_TOL", 1e-14)
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 3)
        rng = np.random.default_rng(5)
        system, _, _ = gross_outlier_system(rng, fraction=0.3)
        fit = admm_l1_plane(system)
        assert not fit.converged and fit.iterations == 3

    def test_rank_deficient_rejected(self):
        A = np.column_stack([np.arange(5.0), np.arange(5.0), np.ones(5)])
        with pytest.raises(DegenerateGeometryError):
            admm_l1_plane(LinearSystem(A=A, b=np.ones(5)))

    def test_non_finite_plane_rejected(self, monkeypatch):
        # a nan in b makes every sweep's z nan, so the fit runs to its cap; the
        # plane is a DomainError, not memoized, and the batch's other fits stand
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 20)
        system, _, _ = gross_outlier_system(np.random.default_rng(21))
        b = system.b.copy()
        b[0] = np.nan
        broken = LinearSystem(A=system.A, b=b)
        bad, good = admm_l1_planes([broken, system])
        assert isinstance(bad, DomainError)
        assert str(bad) == "plane coefficients must be finite"
        assert ("fit",) not in broken.memo
        assert good is admm_l1_plane(system)
        with pytest.raises(DomainError, match="plane coefficients must be finite"):
            admm_l1_plane(broken)

    @pytest.mark.usefixtures("tight")
    def test_residuals_sum_to_objective(self):
        rng = np.random.default_rng(6)
        system, _, _ = gross_outlier_system(rng, fraction=0.2)
        fit = admm_l1_plane(system)
        res = point_plane_residual(system, fit)
        manual = np.abs(system.b - system.A @ plane_of(fit))
        np.testing.assert_allclose(res, manual, rtol=0, atol=0)

    def test_point_on_plane_scalar_cases(self):
        system = LinearSystem(A=np.eye(3), b=np.array([0.0, 0.0, 7.0]))
        plane = Estimate(position=(0.0, 0.0), auxiliary=0.0)
        np.testing.assert_allclose(point_plane_residual(system, plane), [0.0, 0.0, 7.0])


def _refit_subset(system):
    """The rows LN-1E refits on: the near cluster of the all-anchor fit."""
    fit = admm_l1_plane_reference(system)
    labels = kmeans_1d(point_plane_residual(system, fit))
    return system.subset(np.flatnonzero(labels == 0))


def _copy(system):
    return LinearSystem(A=system.A.copy(), b=system.b.copy())


@pytest.fixture(scope="module")
def admm_population():
    """Coordinated and gross-outlier systems plus LN-1E's refit subsets."""
    rng = np.random.default_rng(16)
    coordinated = [coordinated_system(rng, sigma=2.0)[0] for _ in range(8)]
    outliers = [gross_outlier_system(rng)[0] for _ in range(8)]
    refits = [_refit_subset(system) for system in coordinated]
    return coordinated + outliers + refits


class TestAdmmParity:
    """The factored, memoized fit takes the plain loop's path sweep for sweep."""

    # the shipped stop rule, and a cap of 50 sweeps
    @pytest.mark.parametrize("params", [{}, {"ADMM_MAX_ITERS": 50}])
    def test_same_iterations_and_plane(self, admm_population, params, monkeypatch):
        for name, value in params.items():
            monkeypatch.setattr(planefit, name, value)
        converged = []
        for system in admm_population:
            fit = admm_l1_plane(_copy(system))
            assert_same_fit(fit, admm_l1_plane_reference(system), 1e-9)
            converged.append(fit.converged)
        if params:  # the capped branch is the one compared
            assert not any(converged)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n_anchors=st.integers(3, 40),
    coordinated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.05, 2.0),
    log_tol=st.floats(-8.0, -4.0),
    max_iters=st.integers(1, 2000),
)
def test_admm_matches_reference_loop(n_anchors, coordinated, seed, rho, log_tol, max_iters):
    """Over system sizes, penalties, tolerances and caps, the scaled-form fit
    stops at the plain loop's sweep with the plain loop's plane."""
    rng = np.random.default_rng(seed)
    if coordinated:
        system = coordinated_system(rng, n_anchors=n_anchors, sigma=2.0)[0]
    else:
        system = gross_outlier_system(rng, n_anchors=n_anchors)[0]
    with mock.patch.multiple(
        planefit, ADMM_RHO=rho, ADMM_CONV_TOL=10.0**log_tol, ADMM_MAX_ITERS=max_iters
    ):
        fit = admm_l1_plane(_copy(system))
        assert_same_fit(fit, admm_l1_plane_reference(system), 1e-9)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    draws=st.lists(
        st.tuples(st.integers(3, 40), st.booleans(), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
    shared=st.booleans(),
    degenerate_at=st.integers(0, 6),
    memoized_at=st.integers(0, 7),
    max_iters=st.integers(1, 2000),
)
# gamma ~ 1e3 rounds beta (~30) off the reference loop by 1.02e-9 relative
@example(
    draws=[(14, False, 549473), (3, True, 0)],
    shared=True,
    degenerate_at=0,
    memoized_at=0,
    max_iters=97,
)
def test_batch_matches_reference_loop(draws, shared, degenerate_at, memoized_at, max_iters):
    """One lock-step call fits every system as a one-system call fits it
    (to 1e-12 of the plane's norm) and as the plain loop does: with its own
    stopping sweep and plane, whether the systems share A or are padded to
    the widest, beside a rank-deficient system (which raises only on its own
    call) and an already-memoized one (which is not refit)."""
    systems = []
    for n_anchors, coordinated, seed in draws:
        rng = np.random.default_rng(seed)
        if shared and systems:  # the first system's A, this draw's b
            n_anchors = systems[0].n_rows
        if coordinated:
            system = coordinated_system(rng, n_anchors=n_anchors, sigma=2.0)[0]
        else:
            system = gross_outlier_system(rng, n_anchors=n_anchors)[0]
        if shared and systems:
            system = LinearSystem(A=systems[0].A, b=system.b)
        systems.append(system)
    with mock.patch.object(planefit, "ADMM_MAX_ITERS", max_iters):
        memoized = gross_outlier_system(np.random.default_rng(memoized_at))[0]
        memo = admm_l1_plane(memoized)
        alone = {id(system): admm_l1_plane(_copy(system)) for system in systems}
        A = np.column_stack([np.arange(5.0), np.arange(5.0), np.ones(5)])
        degenerate = LinearSystem(A=A, b=np.ones(5))
        batch = list(systems)
        batch.insert(degenerate_at % (len(batch) + 1), degenerate)
        batch.insert(memoized_at % (len(batch) + 1), memoized)
        results = dict(zip(map(id, batch), admm_l1_planes(batch)))
        assert results[id(memoized)] is memo
        assert isinstance(results[id(degenerate)], DegenerateGeometryError)
        with pytest.raises(DegenerateGeometryError):
            admm_l1_plane(degenerate)
        for system in [*systems, memoized]:
            fit = admm_l1_plane(system)
            assert fit is results[id(system)]
            if system is not memoized:
                assert_same_fit(fit, alone[id(system)], 1e-12)
            assert_same_fit(fit, admm_l1_plane_reference(system), 1e-9)


class TestAdmmMemo:
    def test_ln1e_same_with_or_without_ln1_first(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            system, _, _ = coordinated_system(rng, sigma=2.0)
            fresh = ln1e_estimate(_copy(system))
            warmed = _copy(system)
            ln1_estimate(warmed)
            after_ln1 = ln1e_estimate(warmed)
            first = admm_l1_plane_reference(system)
            refit = admm_l1_plane_reference(_refit_subset(system))
            assert fresh.iterations == first.iterations + refit.iterations
            np.testing.assert_allclose(fresh.position, refit.position, rtol=1e-9, atol=0)
            np.testing.assert_array_equal(after_ln1.position, fresh.position)
            assert after_ln1.auxiliary == fresh.auxiliary
            assert after_ln1.eliminated == fresh.eliminated
            assert after_ln1.iterations == fresh.iterations
            assert after_ln1.converged == fresh.converged

    def test_repeat_call_returns_memoized_fit(self):
        system, _, _ = coordinated_system(np.random.default_rng(18))
        first = admm_l1_plane(system)
        assert admm_l1_plane(system) is first

    def test_fit_and_split_memoized_under_fixed_keys(self, monkeypatch):
        # the stop rule is constants, so a system holds one fit, under
        # ("fit",), and LN-1E's one split of it, under ("split",)
        system, _, _ = coordinated_system(np.random.default_rng(19), sigma=2.0)
        est = ln1e_estimate(system)
        assert set(system.memo) == {("fit",), ("split",)}
        fit, split = system.memo[("fit",)], system.memo[("split",)]
        assert fit.converged and fit.iterations > 50
        assert est.eliminated == split.far
        # a fit reads the constants when it runs: a fresh copy fits at a
        # patched cap, while the memoized system keeps its fit and split
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 50)
        capped = admm_l1_plane(_copy(system))
        assert not capped.converged and capped.iterations == 50
        assert_same_fit(capped, admm_l1_plane_reference(system), 1e-9)
        assert admm_l1_plane(system) is fit
        again = ln1e_estimate(system)
        assert (again.iterations, again.eliminated) == (est.iterations, est.eliminated)
        np.testing.assert_array_equal(again.position, est.position)


class TestKmeans1d:
    def test_separated_pairs(self):
        assert list(kmeans_1d([0.1, 0.2, 5.0, 5.1])) == [0, 0, 1, 1]

    def test_identical_values_degenerate(self):
        assert list(kmeans_1d([1.0, 1.0, 1.0, 1.0])) == [0, 0, 0, 0]

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            kmeans_1d([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_needs_finite_values(self, bad):
        with pytest.raises(DomainError, match="values must be finite"):
            kmeans_1d([0.1, bad, 5.0])

    def test_matches_optimal_split_oracle(self):
        # (min, max) seeding reaches the globally optimal split whenever the
        # two groups are well separated relative to their spread
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            lo = rng.uniform(0, 100)
            hi = lo + rng.uniform(10.0, 100.0)
            values = np.concatenate(
                [
                    rng.normal(lo, 1.0, n),
                    rng.normal(hi, 1.0, int(rng.integers(2, 20))),
                ]
            )
            if np.unique(values).size != values.size:
                continue
            assert np.array_equal(kmeans_1d(values), best_split_1d(values))

    def test_planted_inflated_residuals(self):
        rng = np.random.default_rng(8)
        values = np.abs(rng.normal(0.0, 0.2, 29))
        planted = rng.choice(29, size=8, replace=False)
        values[planted] += rng.uniform(20.0, 30.0, 8)
        labels = kmeans_1d(values)
        assert set(np.flatnonzero(labels == 1)) == set(planted)
        assert np.array_equal(labels, best_split_1d(values))


class TestLn1:
    def test_zero_noise_no_attack(self):
        topo = random_topology(10, 100.0, seed=9)
        system = build_linear_system(topo.anchors, topo.distances())
        est = ln1_estimate(system)
        assert np.linalg.norm(est.position - topo.target) < 1e-6
        assert est.converged and est.eliminated == frozenset()

    def test_planted_coordinated_attack_recovers_truth(self):
        # randomly spread malicious anchors, 28%, decoy 35.36 m away: the
        # attacked rows are the l1 outliers and the fit returns the target
        rng = np.random.default_rng(10)
        for _ in range(5):
            system, topo, _ = coordinated_system(rng, fraction=0.28, shift=25.0)
            u_lp, _ = l1_oracle(system.A, system.b)
            np.testing.assert_allclose(
                u_lp[:2], topo.target, atol=1e-6
            )  # oracle: truth is the l1 argmin
            est = ln1_estimate(system)
            assert np.linalg.norm(est.position - topo.target) < 1e-3

    @pytest.mark.usefixtures("tight")
    def test_matches_lp_argmin_on_noisy_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            system, _, _ = coordinated_system(rng, fraction=0.2, shift=18.0, sigma=2.0)
            est = ln1_estimate(system)
            u_lp, best = l1_oracle(system.A, system.b)
            objective = np.abs(system.b - system.A @ np.append(est.position, est.auxiliary)).sum()
            assert objective <= best * (1 + 1e-4)
            np.testing.assert_allclose(est.position, u_lp[:2], atol=1e-3)

    def test_error_shrinks_with_tolerance(self, monkeypatch):
        # breakdown regime check: below half the anchors malicious at zero
        # noise, tightening the stopping tolerance drives the error to zero
        rng = np.random.default_rng(12)
        system, topo, _ = coordinated_system(rng, fraction=0.28, shift=25.0)
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 200_000)
        loose = ln1_estimate(_copy(system))
        monkeypatch.setattr(planefit, "ADMM_CONV_TOL", 1e-8)
        tight = ln1_estimate(_copy(system))
        err_loose = np.linalg.norm(loose.position - topo.target)
        err_tight = np.linalg.norm(tight.position - topo.target)
        assert err_tight <= err_loose + 1e-12
        assert err_tight < 1e-6


class TestLn1e:
    def test_zero_noise_no_attack_keeps_all(self):
        topo = random_topology(10, 100.0, seed=13)
        system = build_linear_system(topo.anchors, topo.distances())
        e1 = ln1_estimate(system)
        e2 = ln1e_estimate(system)
        assert e2.eliminated == frozenset()
        np.testing.assert_allclose(e2.position, e1.position, atol=1e-9)

    def test_planted_attack_eliminates_malicious_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            system, topo = two_strip_plant(rng)
            est = ln1e_estimate(system)
            assert est.eliminated == topo.malicious
            assert np.linalg.norm(est.position - topo.target) < 1e-6

    def test_capped_first_fit_returned_without_refit(self, monkeypatch):
        fits = []
        fit = planefit.admm_l1_plane

        def counted(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(planefit, "admm_l1_plane", counted)
        monkeypatch.setattr(planefit, "ADMM_MAX_ITERS", 50)
        system, _, _ = coordinated_system(np.random.default_rng(20))
        est = ln1e_estimate(system)
        assert len(fits) == 1
        assert est.eliminated == frozenset()
        assert est.converged is False
        assert est.iterations == 50

    def test_elimination_invariant_under_row_order(self):
        rng = np.random.default_rng(15)
        system, topo = two_strip_plant(rng)
        perm = rng.permutation(system.n_rows)
        permuted = LinearSystem(A=system.A[perm], b=system.b[perm])
        base = ln1e_estimate(system)
        shuffled = ln1e_estimate(permuted)
        relabeled = frozenset(int(np.flatnonzero(perm == i)[0]) for i in base.eliminated)
        assert shuffled.eliminated == relabeled
        np.testing.assert_allclose(shuffled.position, base.position, atol=1e-9)
