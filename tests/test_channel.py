import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from secloc import (
    DomainError,
    PathLossParams,
    distance_from_rssi,
    distance_pdf,
    distance_perturbation,
    distance_sq_variance,
    distance_variance,
    estimate_noise_sigma,
    mean_rssi,
    perturbation_g,
)
from secloc.channel import mean_rssi_sq

P44 = PathLossParams(p0=-10.0, n=4.0, sigma=2.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PathLossParams(p0=-10, n=0.0, sigma=2)
        with pytest.raises(DomainError):
            PathLossParams(p0=-10, n=4, sigma=-1)
        with pytest.raises(DomainError):
            PathLossParams(p0=math.inf, n=4, sigma=2)

    def test_resolution_rule(self):
        # One float step at p0 scales a range by exp(step / slope), so p0 is
        # rejected once the step reaches 1e-3 slope: 0.0174 dB at n = 4 and
        # 0.0130 dB at n = 3.  Below 2**47 a step is 2**-6 dB, from it 2**-5.
        PathLossParams(p0=2.0**47 - 1, n=4, sigma=2).check_resolution()
        for p0, n in ((2.0**47, 4), (-(2.0**47), 4), (2.0**47 - 1, 3)):
            with pytest.raises(DomainError, match=r"0\.1 % or more"):
                PathLossParams(p0=p0, n=n, sigma=2).check_resolution()

    def test_fields_coerced_to_float(self):
        p = PathLossParams(p0=-10, n=4, sigma=2)
        assert isinstance(p.sigma, float) and isinstance(p.n, float)


class TestRssiDistance:
    def test_reference_points(self):
        assert mean_rssi(P44, 1.0) == -10.0
        assert mean_rssi(P44, 10.0) == -50.0
        assert distance_from_rssi(P44, -10.0) == 1.0
        assert distance_from_rssi(P44, -50.0) == 10.0

    def test_half_decade(self):
        # -30 dBm sits half a decade out: d = 10**0.5
        assert distance_from_rssi(P44, -30.0) == pytest.approx(3.1622776601683795, rel=1e-12)
        assert mean_rssi(P44, 10**0.5) == pytest.approx(-30.0, abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.1, 1000.0, 10_000)
        back = distance_from_rssi(P44, mean_rssi(P44, d))
        assert np.all(np.abs(back - d) <= 1e-12 * d)

    def test_monotone_decreasing(self):
        rssi = np.linspace(-80, 0, 200)
        d = distance_from_rssi(P44, rssi)
        assert np.all(np.diff(d) < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mean_rssi(P44, 0.0)
        with pytest.raises(DomainError):
            mean_rssi(P44, -3.0)
        with pytest.raises(DomainError):
            mean_rssi(P44, math.nan)
        with pytest.raises(DomainError):
            distance_from_rssi(P44, math.inf)

    def test_overflowing_range_is_domain_error(self):
        # On the desk channel 10^((p0 - rssi) / 40) overflows below about
        # -12340 dBm; the error names the first offending rssi.
        with pytest.raises(DomainError, match="rssi -13000 dBm"):
            distance_from_rssi(P44, -13000.0)
        with pytest.raises(DomainError, match="rssi -13000 dBm"):
            distance_from_rssi(P44, np.array([-50.0, -13000.0, -20000.0]))
        with pytest.raises(DomainError, match="rssi -16 dBm"):
            distance_from_rssi(PathLossParams(-10.0, 0.001, 2.0), [-5.0, -16.0])

    def test_finite_ranges_are_the_plain_power(self):
        rssi = np.concatenate([np.linspace(-12000.0, 100.0, 997), [-12330.0]])
        expected = 10.0 ** ((P44.p0 - rssi) / (10.0 * P44.n))
        assert np.all(np.isfinite(expected))
        assert np.array_equal(distance_from_rssi(P44, rssi), expected)
        assert distance_from_rssi(P44, -47.5) == 10.0 ** ((P44.p0 + 47.5) / (10.0 * P44.n))


@pytest.mark.parametrize("n", [2.0, 3.3, 4.0])
def test_squared_range_model_matches_channel(n):
    # The estimators' model in d^2 form and the simulator's in d form.
    params = PathLossParams(-10.0, n, 2.0)
    rng = np.random.default_rng(31)
    anchors = rng.uniform(0.0, 100.0, (29, 2))
    for t in rng.uniform(-20.0, 120.0, (50, 2)):
        d2 = np.sum((t - anchors) ** 2, axis=1)
        np.testing.assert_allclose(
            mean_rssi_sq(params, d2), mean_rssi(params, np.sqrt(d2)), rtol=0, atol=1e-12
        )


class TestPerturbation:
    def test_zero_shift(self):
        assert perturbation_g(P44, 0.0) == 0.0
        assert distance_perturbation(P44, -30.0, 0.0, "positive") == 0.0
        assert distance_perturbation(P44, -30.0, 0.0, "negative") == 0.0

    def test_g_at_ten_db(self):
        # c = 10**(-0.25); g(10) = c*(1 - 10**(-0.25))
        assert perturbation_g(P44, 10.0) == pytest.approx(0.24611355917351116, rel=1e-12)
        assert perturbation_g(P44, 10.0) + perturbation_g(P44, -10.0) == pytest.approx(
            -0.19154511563613974, rel=1e-12
        )

    def test_g_sign_matches_shift_sign(self):
        x = np.linspace(0.01, 30, 50)
        assert np.all(perturbation_g(P44, x) > 0)
        assert np.all(perturbation_g(P44, -x) < 0)

    def test_power_drop_moves_distance_more(self):
        # same delta at the same rssi: the negative direction dominates
        d_minus = distance_perturbation(P44, -30.0, 2.0, "positive")
        d_plus = distance_perturbation(P44, -30.0, 2.0, "negative")
        assert d_plus > d_minus > 0

    def test_weaker_signal_less_robust(self):
        for direction in ("positive", "negative"):
            near = distance_perturbation(P44, -20.0, 2.0, direction)
            far = distance_perturbation(P44, -40.0, 2.0, direction)
            assert far > near

    def test_power_asymmetry_random(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            p = PathLossParams(rng.uniform(-40, 10), rng.uniform(1, 6), 0.0)
            rssi = rng.uniform(-90, 0, 2500)
            dp = rng.uniform(0.01, 12, 2500)
            shrink = distance_perturbation(p, rssi, dp, "positive")
            grow = distance_perturbation(p, rssi, dp, "negative")
            assert np.all(grow >= shrink)
            assert np.all(shrink >= 0)

    def test_g_odd_sum_never_positive(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, 10_000)
        total = perturbation_g(P44, x) + perturbation_g(P44, -x)
        assert np.all(total <= 0)
        assert perturbation_g(P44, 0.0) + perturbation_g(P44, -0.0) == 0.0

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            distance_perturbation(P44, -30.0, -1.0, "positive")
        with pytest.raises(DomainError):
            distance_perturbation(P44, -30.0, 1.0, "sideways")

    def test_overflowing_shift_is_domain_error(self):
        # Each call needs the range of an rssi near -1e5 dBm, which overflows
        # (see test_overflowing_range_is_domain_error): an error, not inf.
        with pytest.raises(DomainError, match="rssi -100000 dBm"):
            perturbation_g(P44, -1e5)
        with pytest.raises(DomainError, match="rssi -100030 dBm"):
            distance_perturbation(P44, -30.0, 1e5, "negative")
        with pytest.raises(DomainError, match="rssi -100000 dBm"):
            distance_perturbation(P44, -1e5, 1.0, "positive")


class TestDistancePdf:
    def test_integrates_to_one(self):
        d = 12.0
        total, err = integrate.quad(
            lambda g: distance_pdf(P44, d, g), d / 100.0, d * 100.0, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_lognormal_closed_form(self):
        # the estimate is lognormal with log-scale s = sigma*ln10/(10n)
        d, s = 7.0, P44.sigma * math.log(10) / (10 * P44.n)
        gamma = np.linspace(0.5 * d, 2.0 * d, 50)
        expected = stats.lognorm.pdf(gamma, s, scale=d)
        assert np.allclose(distance_pdf(P44, d, gamma), expected, rtol=1e-12)

    def test_mode_is_a_local_maximum(self):
        d = 10.0
        s2 = (P44.sigma * math.log(10) / (10 * P44.n)) ** 2
        mode = d * math.exp(-s2)
        at_mode = distance_pdf(P44, d, mode)
        assert at_mode > distance_pdf(P44, d, mode * 1.01)
        assert at_mode > distance_pdf(P44, d, mode * 0.99)

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DomainError):
            distance_pdf(PathLossParams(-10, 4, 0.0), 10.0, 10.0)
        with pytest.raises(DomainError):
            distance_pdf(P44, 10.0, 0.0)


class TestVarianceLaws:
    def test_zero_noise_gives_zero_variance(self):
        p = PathLossParams(-10, 4, 0.0)
        assert distance_variance(p, 10.0) == 0.0
        assert distance_sq_variance(p, 10.0) == 0.0

    def test_reference_values(self):
        assert distance_variance(P44, 10.0) == pytest.approx(1.3521013902863261, rel=1e-12)
        assert distance_sq_variance(P44, 10.0) == pytest.approx(574.1442497387403, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # 1e7 lognormal range draws; agreement within 3 standard errors,
        # with the standard error taken from the sample's fourth moment.
        rng = np.random.default_rng(987654321)
        eta = rng.normal(0.0, P44.sigma, 10_000_000)
        sampled = 10.0 * 10 ** (-eta / (10 * P44.n))
        for sample, law in (
            (sampled, distance_variance(P44, 10.0)),
            (sampled**2, distance_sq_variance(P44, 10.0)),
        ):
            v = np.var(sample, ddof=1)
            m4 = np.mean((sample - sample.mean()) ** 4)
            se = math.sqrt((m4 - v**2) / sample.size)
            assert abs(v - law) <= 3 * se

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 5.0, 8.0])
    @pytest.mark.parametrize("n", [2.0, 3.3, 4.0, 6.0])
    def test_match_scipy_lognormal(self, sigma, n):
        # A range estimate is lognormal with shape sigma / (10 n / ln 10) and
        # scale d; its square has twice the shape and scale d^2.
        params = PathLossParams(-10.0, n, sigma)
        shape = sigma / (10.0 * n / math.log(10.0))
        for d in (0.5, 12.0, 150.0):
            want = stats.lognorm(shape, scale=d).var()
            assert distance_variance(params, d) == pytest.approx(want, rel=1e-12)
            want = stats.lognorm(2.0 * shape, scale=d**2).var()
            assert distance_sq_variance(params, d) == pytest.approx(want, rel=1e-12)

    def test_distance_scaling(self):
        assert distance_variance(P44, 20.0) == pytest.approx(4 * distance_variance(P44, 10.0))
        assert distance_sq_variance(P44, 20.0) == pytest.approx(
            16 * distance_sq_variance(P44, 10.0)
        )

    def test_rejects_bad_distance(self):
        with pytest.raises(DomainError):
            distance_variance(P44, 0.0)
        with pytest.raises(DomainError):
            distance_sq_variance(P44, -1.0)

    @pytest.mark.parametrize(
        "params, distance",
        [
            (PathLossParams(-10, 0.003, 2.0), 10.0),  # e^s overflows math.exp
            (P44, 1e100),  # d^4 overflows
        ],
        ids=["tiny_n", "huge_range"],
    )
    def test_overflow_is_domain_error(self, params, distance):
        named = f"sigma = {params.sigma:g} dB, n = {params.n:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=named):
                distance_sq_variance(params, np.array([5.0, distance]))


class TestNoiseSigmaEstimate:
    def test_zero_variance_gives_zero(self):
        assert estimate_noise_sigma(P44, 0.0, 10.0) == 0.0

    def test_inverts_variance_law(self):
        v = distance_variance(P44, 10.0)
        assert estimate_noise_sigma(P44, v, 10.0) == pytest.approx(2.0, abs=1e-9)

    def test_identity_on_sigma_grid(self):
        for sigma in np.linspace(0.0, 12.0, 25):
            p = PathLossParams(-10, 4, sigma)
            v = distance_variance(p, 17.0)
            assert estimate_noise_sigma(p, v, 17.0) == pytest.approx(sigma, abs=1e-9)

    def test_round_trip_residual(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.0, 50.0, 200)
        d = rng.uniform(0.5, 200.0, 200)
        sig = estimate_noise_sigma(P44, v, d)
        back = np.array([distance_variance(PathLossParams(-10, 4, s), di) for s, di in zip(sig, d)])
        assert np.all(np.abs(back - v) <= 1e-9 * np.maximum(v, 1.0))

    def test_strictly_increasing_in_variance(self):
        v = np.linspace(0.0, 30.0, 100)
        sig = estimate_noise_sigma(P44, v, 10.0)
        assert np.all(np.diff(sig) > 0)

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            estimate_noise_sigma(P44, -0.5, 10.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: perturbation_g(P44, [1.0, math.nan]), "power shift must be finite"),
        (lambda: distance_pdf(P44, 0.0, 1.0), "true_distance must be positive and finite"),
        (lambda: distance_pdf(P44, math.inf, 1.0), "true_distance must be positive and finite"),
    ],
    ids=["nan-shift", "zero-distance", "inf-distance"],
)
def test_bad_argument_is_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()
