"""Log-distance path-loss channel and the statistics of RSSI ranging.

Received power falls 10 n dB per decade of range, i.e. ``slope`` = 10 n / ln 10
dB per neper, so inverting the model turns RSSI samples into distance
estimates whose multiplicative noise is lognormal with shape sigma / slope.
The law and its slope live here, and every other module reads them from here
(``mean_rssi``, ``distance_from_rssi``, ``PathLossParams.slope`` and the
squared-range form ``mean_rssi_sq``).  This module provides the
forward/inverse conversions, the asymmetry of the inverse map under power
perturbations, the distance-estimate density and its variance laws (one
lognormal law for the range and its square), and the closed-form estimator
that recovers the channel noise level from an observed distance-sample
variance.

All powers are dBm, all distances meters; there is no unit-conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

LN10 = math.log(10.0)


@dataclass(frozen=True)
class PathLossParams:
    """The channel's three constants.

    p0: anchor transmit power (dBm), i.e. the received power at 1 m.
    n: path-loss exponent (> 0).
    sigma: per-packet measurement-noise standard deviation (dB, >= 0).

    ``slope``, 10 n / ln 10 dB per neper of range, is derived from n; the
    modules that need the law's slope read it here.
    """

    p0: float
    n: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("p0", "n", "sigma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.n <= 0:
            raise DomainError(f"path-loss exponent must be > 0, got {self.n}")
        if self.sigma < 0:
            raise DomainError(f"noise sigma must be >= 0, got {self.sigma}")

    @property
    def slope(self) -> float:
        """dB the mean RSSI falls per neper of range, 10 n / ln 10: a range
        estimate is lognormal with shape sigma / slope."""
        return 10.0 * self.n / LN10

    def check_resolution(self) -> None:
        """A ``DomainError`` when one float step of RSSI at p0 moves an
        inverted range by 0.1 % or more, i.e. when the step is at least
        1e-3 ``slope`` dB (a range scales by exp(step / slope)).  Received
        powers near such a p0 are quantized too coarsely to carry a range:
        at ``p0 = 1e18`` one step is 128 dB, more than the path loss over
        the desk area, and at ``p0 = 1e300`` every range inverts to 0 m.
        A run checks it before its first trial (``harness.base_topology``),
        so every subcommand rejects such a channel alike."""
        step = float(np.spacing(abs(self.p0)))
        if step >= 1e-3 * self.slope:
            raise DomainError(
                f"p0 = {self.p0:g} dBm is out of range: one float step of RSSI there "
                f"({step:g} dB) moves an inverted range by 0.1 % or more"
            )


def _ret(x: np.ndarray):
    """Return a Python float for scalar input, an ndarray otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _positive_finite(name: str, value) -> np.ndarray:
    """``value`` as a float array, or a DomainError naming ``name``."""
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise DomainError(f"{name} must be positive and finite")
    return v


def mean_rssi(params: PathLossParams, distance):
    """Noise-free received power (dBm) at the given distance (m).

    Accepts scalars or arrays; distance must be positive and finite.
    """
    d = _positive_finite("distance", distance)
    return _ret(params.p0 - 10.0 * params.n * np.log10(d))


def mean_rssi_sq(params: PathLossParams, d2):
    """:func:`mean_rssi` written in the squared range, p0 - 5 n log10 d^2.

    No input checks: the ML and Grad-Desc inner loops call it on squared
    ranges they have already floored above zero.
    """
    return params.p0 - 5.0 * params.n * np.log10(d2)


def distance_from_rssi(params: PathLossParams, rssi):
    """Distance (m) whose noise-free received power equals ``rssi`` (dBm).

    Exact inverse of :func:`mean_rssi`; strictly decreasing in rssi.  An
    rssi so far below p0 that its distance overflows is a DomainError.
    The one array it allocates holds each step in turn.
    """
    p = np.asarray(rssi, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DomainError("rssi must be finite")
    d = params.p0 - p  # for a scalar rssi, a numpy float
    d /= 10.0 * params.n
    with np.errstate(over="ignore"):
        # numpy's scalar power rounds as libm's pow, its array loop may not
        d = np.power(10.0, d, out=d) if isinstance(d, np.ndarray) else 10.0**d
    if not np.all(np.isfinite(d)):
        low = float(p[~np.isfinite(d)].flat[0])
        raise DomainError(
            f"rssi {low:g} dBm is out of range: its distance overflows "
            f"(p0 = {params.p0:g} dBm, n = {params.n:g})"
        )
    return _ret(d)


def perturbation_g(params: PathLossParams, x):
    """Distance-scale response d(0) - d(x) to a power shift x (dB), where d is
    :func:`distance_from_rssi`; equivalently c*(1 - 10^(-x/10n)), c = d(0).

    g(0) = 0, g is increasing, and g(x) + g(-x) <= 0: a power drop moves the
    distance estimate more than an equal power rise.  A shift whose range
    overflows is a DomainError.
    """
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)):
        raise DomainError("power shift must be finite")
    return distance_from_rssi(params, 0.0) - distance_from_rssi(params, xv)


def distance_perturbation(params: PathLossParams, rssi, delta_p, direction: str):
    """Magnitude (m) of the distance-estimate shift for a power shift of
    ``delta_p`` dB applied to a packet received at ``rssi`` dBm.

    direction="positive": received power rises, the estimate shrinks by
    d(rssi) - d(rssi + delta_p).  direction="negative": power drops, the
    estimate grows by d(rssi - delta_p) - d(rssi).  d is
    :func:`distance_from_rssi`, so a range that overflows is a DomainError.
    Both magnitudes are >= 0, and the negative direction always dominates the
    positive one.
    """
    dp = np.asarray(delta_p, dtype=float)
    if not np.all(np.isfinite(dp)) or np.any(dp < 0):
        raise DomainError("delta_p must be non-negative and finite")
    if direction not in ("positive", "negative"):
        raise DomainError(f"direction must be 'positive' or 'negative', got {direction!r}")
    p = np.asarray(rssi, dtype=float)
    d = distance_from_rssi(params, p)
    if direction == "positive":
        return d - distance_from_rssi(params, p + dp)
    return distance_from_rssi(params, p - dp) - d


def distance_pdf(params: PathLossParams, true_distance: float, gamma):
    """Density of the per-packet distance estimate at ``gamma`` (m).

    The estimate is lognormal: d_hat = d * exp(-eta/slope) with
    eta ~ N(0, sigma^2), i.e. shape s = sigma/slope and scale d.
    Requires sigma > 0; the sigma = 0 distribution is a point mass and callers
    must branch on it explicitly.
    """
    if params.sigma == 0:
        raise DomainError("distance pdf is degenerate at sigma = 0")
    if not (math.isfinite(true_distance) and true_distance > 0):
        raise DomainError("true_distance must be positive and finite")
    g = _positive_finite("gamma", gamma)
    shape = params.sigma / params.slope
    expo = -0.5 * (np.log(g / true_distance) / shape) ** 2
    return _ret(np.exp(expo) / (g * shape * math.sqrt(2.0 * math.pi)))


def _lognormal_variance(params: PathLossParams, mean_distance, k: int):
    """Variance of the k-th power of a per-packet range estimate at the given
    range: d^k is lognormal with shape k sigma / slope, so with
    e^s = exp((k sigma / slope)^2) its variance is d^(2k) e^s (e^s - 1).  The
    one law behind the two below."""
    d = _positive_finite("mean_distance", mean_distance)
    try:
        es = math.exp((k * params.sigma / params.slope) ** 2)
        with np.errstate(over="raise", invalid="raise"):
            return _ret(d ** (2 * k) * es * (es - 1.0))
    except (OverflowError, FloatingPointError):
        msg = f"variance overflows at sigma = {params.sigma:g} dB, n = {params.n:g}"
        raise DomainError(msg) from None


def distance_variance(params: PathLossParams, mean_distance):
    """Variance (m^2) of a per-packet distance estimate at the given range."""
    return _lognormal_variance(params, mean_distance, 1)


def distance_sq_variance(params: PathLossParams, mean_distance):
    """Variance (m^4) of the squared per-packet distance estimate."""
    return _lognormal_variance(params, mean_distance, 2)


def estimate_noise_sigma(params: PathLossParams, sample_variance, mean_distance):
    """Noise level (dB) whose distance variance at ``mean_distance`` equals
    ``sample_variance``.

    Closed-form inverse of :func:`distance_variance`: solving
    x^2 - x = v/d^2 for x = exp((sigma / slope)^2) gives
    sigma = slope * sqrt(ln(0.5 + 0.5*sqrt(1 + 4 v / d^2))).
    Only params.slope is used; params.sigma plays no role here.
    """
    v = np.asarray(sample_variance, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise DomainError("sample_variance must be non-negative and finite")
    d = _positive_finite("mean_distance", mean_distance)
    x = 0.5 + 0.5 * np.sqrt(1.0 + 4.0 * v / d**2)
    return _ret(params.slope * np.sqrt(np.log(x)))
