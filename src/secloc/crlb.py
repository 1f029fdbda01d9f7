"""Fisher information and the resulting lower bound on localization RMSE.

The per-packet RSSI likelihood is Gaussian around the path-loss mean, so the
information about the target position accumulates as a weighted sum of
rank-one geometry terms, one per anchor per packet.  Both attacks use the
one sum, ``_fisher_sum``, in which each anchor has its own reference point
and weight.  Honest anchors contribute about the target at weight
1/sigma^2; under an uncoordinated attack malicious anchors contribute at
1/(sigma^2 + sigma_att^2), and under a coordinated attack their geometry
terms are taken about the decoy position instead of the target.  The bound
assumes the malicious identities and noise levels are known, so it
benchmarks what an unbiased estimator could achieve.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import PathLossParams
from .attacks import Topology
from .exceptions import DegenerateInformationError, DomainError


# The FIM functions run under this.  Their squares are numpy scalar powers,
# which overflow to inf where Python's float power raises OverflowError, and
# round as Python's do (both call the C library's pow), so the bounds keep
# their bytes.  An information matrix that overflows thus has inf or nan
# entries, and ``crlb_bound`` rejects it.
_OVERFLOW_TO_INF = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _check_common(params: PathLossParams, packets: int) -> None:
    if packets < 1:
        raise DomainError("packets must be >= 1")
    if params.sigma <= 0:
        raise DomainError("the bound needs sigma > 0")


def _fisher_sum(anchors: np.ndarray, refs, weights, prefactor: float) -> np.ndarray:
    """prefactor * sum over anchors i of w_i (a_i - r_i)(a_i - r_i)^T /
    ||a_i - r_i||^4, with each anchor's own reference point r_i (``refs``,
    (N, 2) or one (2,) point for all) and weight w_i (``weights``, (N,) or
    one scalar): the symmetric 2x2 Fisher information matrix (1/m^2)."""
    diff = anchors - refs
    d2 = np.einsum("ij,ij->i", diff, diff)
    if np.any(d2 == 0.0):
        raise DomainError("a node coincides with the evaluation point")
    return prefactor * ((diff * (weights / (d2 * d2))[:, None]).T @ diff)


@_OVERFLOW_TO_INF
def fim_uncoordinated(
    topology: Topology, params: PathLossParams, sigma_att: float, packets: int
) -> np.ndarray:
    """Information matrix when malicious anchors add independent power jitter
    of standard deviation ``sigma_att``; sigma_att = 0 recovers the no-attack
    matrix, and one whose square overflows gives those anchors no weight."""
    _check_common(params, packets)
    if not math.isfinite(sigma_att) or sigma_att < 0:
        raise DomainError("sigma_att must be >= 0 and finite")
    sigma2, jitter2 = np.float64(params.sigma) ** 2, np.float64(sigma_att) ** 2
    var = np.where(topology.malicious_mask(), sigma2 + jitter2, sigma2)
    prefactor = packets * np.float64(params.slope) ** 2
    return _fisher_sum(topology.anchors, topology.target, 1.0 / var, prefactor)


@_OVERFLOW_TO_INF
def fim_coordinated(
    topology: Topology, params: PathLossParams, t_att, packets: int
) -> np.ndarray:
    """Information matrix under a coordinated attack: malicious geometry terms
    are taken about the decoy position ``t_att``."""
    _check_common(params, packets)
    t_att = np.asarray(t_att, dtype=float).reshape(2)
    if not np.all(np.isfinite(t_att)):
        raise DomainError("t_att must be finite")
    refs = np.where(topology.malicious_mask()[:, None], t_att, topology.target)
    # One noise level: it sits in the prefactor and every anchor has weight 1.
    prefactor = packets * (np.float64(params.slope) / params.sigma) ** 2
    return _fisher_sum(topology.anchors, refs, 1.0, prefactor)


def crlb_bound(fim: np.ndarray) -> float:
    """RMSE lower bound sqrt(trace(F^{-1})) of a 2x2 information matrix, via
    the closed-form 2x2 inverse.  A singular matrix has no finite bound, and
    neither has one that overflowed: an inf or nan entry, or entries whose
    magnitudes sum to 1e150 or more, past which the determinant may overflow
    (the bound would lie below 1e-75 m).  Both raise
    ``DegenerateInformationError``."""
    (f_xx, f_xy), (_, f_yy) = np.asarray(fim, dtype=float).tolist()
    if not abs(f_xx) + abs(f_xy) + abs(f_yy) < 1e150:
        raise DegenerateInformationError("the Fisher information overflows")
    det = f_xx * f_yy - f_xy**2
    if det <= 1e-15:
        raise DegenerateInformationError("Fisher information matrix is singular")
    return math.sqrt((f_xx + f_yy) / det)
