"""Log-distance path-loss channel and the statistics of RSSI ranging.

Received power decays linearly in log-distance, so inverting the model turns
RSSI samples into distance estimates whose multiplicative noise is lognormal.
This module provides the forward/inverse conversions, the asymmetry of the
inverse map under power perturbations, the distance-estimate density and its
variance laws, and the closed-form estimator that recovers the channel noise
level from an observed distance-sample variance.

All powers are dBm, all distances meters; there is no unit-conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

LN10 = math.log(10.0)

# Exact forms of the variance-law denominators (~18.8612 and ~4.7153).
# Keeping them exact makes estimate_noise_sigma() invert distance_variance()
# to machine precision.
VAR_D_DENOM = 100.0 / LN10**2
VAR_D2_DENOM = 25.0 / LN10**2


@dataclass(frozen=True)
class PathLossParams:
    """The channel's three constants.

    p0: anchor transmit power (dBm), i.e. the received power at 1 m.
    n: path-loss exponent (> 0).
    sigma: per-packet measurement-noise standard deviation (dB, >= 0).
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


def _ret(x: np.ndarray):
    """Return a Python float for scalar input, an ndarray otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def mean_rssi(params: PathLossParams, distance):
    """Noise-free received power (dBm) at the given distance (m).

    Accepts scalars or arrays; distance must be positive and finite.
    """
    d = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("distance must be positive and finite")
    return _ret(params.p0 - 10.0 * params.n * np.log10(d))


def distance_from_rssi(params: PathLossParams, rssi):
    """Distance (m) whose noise-free received power equals ``rssi`` (dBm).

    Exact inverse of :func:`mean_rssi`; strictly decreasing in rssi.
    """
    p = np.asarray(rssi, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DomainError("rssi must be finite")
    return _ret(10.0 ** ((params.p0 - p) / (10.0 * params.n)))


def perturbation_g(params: PathLossParams, x):
    """Distance-scale response c*(1 - 10^(-x/10n)) to a power shift x (dB).

    c = 10^(p0/10n).  g(0) = 0, g is increasing, and g(x) + g(-x) <= 0: a
    power drop moves the distance estimate more than an equal power rise.
    """
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)):
        raise DomainError("power shift must be finite")
    c = 10.0 ** (params.p0 / (10.0 * params.n))
    return _ret(c * (1.0 - 10.0 ** (-xv / (10.0 * params.n))))


def distance_perturbation(params: PathLossParams, rssi, delta_p, direction: str):
    """Magnitude (m) of the distance-estimate shift for a power shift of
    ``delta_p`` dB applied to a packet received at ``rssi`` dBm.

    direction="positive": received power rises, the estimate shrinks by the
    returned amount.  direction="negative": power drops, the estimate grows
    by the returned amount.  Both magnitudes are >= 0, and the negative
    direction always dominates the positive one.
    """
    dp = np.asarray(delta_p, dtype=float)
    if not np.all(np.isfinite(dp)) or np.any(dp < 0):
        raise DomainError("delta_p must be non-negative and finite")
    p = np.asarray(rssi, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DomainError("rssi must be finite")
    scale = 10.0 ** (-p / (10.0 * params.n))
    if direction == "positive":
        return _ret(perturbation_g(params, dp) * scale)
    if direction == "negative":
        return _ret(-perturbation_g(params, -dp) * scale)
    raise DomainError(f"direction must be 'positive' or 'negative', got {direction!r}")


def distance_pdf(params: PathLossParams, true_distance: float, gamma):
    """Density of the per-packet distance estimate at ``gamma`` (m).

    The estimate is lognormal: d_hat = d * 10^(-eta/10n) with eta ~ N(0, sigma^2).
    Requires sigma > 0; the sigma = 0 distribution is a point mass and callers
    must branch on it explicitly.
    """
    if params.sigma == 0:
        raise DomainError("distance pdf is degenerate at sigma = 0")
    if not (math.isfinite(true_distance) and true_distance > 0):
        raise DomainError("true_distance must be positive and finite")
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise DomainError("gamma must be positive and finite")
    n, sigma = params.n, params.sigma
    coeff = 5.0 * n / (g * sigma * LN10) * math.sqrt(2.0 / math.pi)
    expo = -50.0 * n**2 * np.log(g / true_distance) ** 2 / (sigma**2 * LN10**2)
    return _ret(coeff * np.exp(expo))


def distance_variance(params: PathLossParams, mean_distance):
    """Variance (m^2) of a per-packet distance estimate at the given range."""
    d = np.asarray(mean_distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("mean_distance must be positive and finite")
    s = params.sigma**2 / (VAR_D_DENOM * params.n**2)
    return _ret(d**2 * math.exp(s) * (math.exp(s) - 1.0))


def distance_sq_variance(params: PathLossParams, mean_distance):
    """Variance (m^4) of the squared per-packet distance estimate."""
    d = np.asarray(mean_distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("mean_distance must be positive and finite")
    s = params.sigma**2 / (VAR_D2_DENOM * params.n**2)
    return _ret(d**4 * math.exp(s) * (math.exp(s) - 1.0))


def estimate_noise_sigma(params: PathLossParams, sample_variance, mean_distance):
    """Noise level (dB) whose distance variance at ``mean_distance`` equals
    ``sample_variance``.

    Closed-form inverse of :func:`distance_variance`: solving
    x^2 - x = v/d^2 for x = exp(sigma^2 / (VAR_D_DENOM * n^2)) gives
    sigma = sqrt(VAR_D_DENOM * n^2 * ln(0.5 + 0.5*sqrt(1 + 4 v / d^2))).
    Only params.n is used; params.sigma plays no role here.
    """
    v = np.asarray(sample_variance, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise DomainError("sample_variance must be non-negative and finite")
    d = np.asarray(mean_distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("mean_distance must be positive and finite")
    x = 0.5 + 0.5 * np.sqrt(1.0 + 4.0 * v / d**2)
    return _ret(np.sqrt(VAR_D_DENOM * params.n**2 * np.log(x)))
