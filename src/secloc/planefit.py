"""Robust plane fitting for localization.

The squared-range system A u = b is a plane z = alpha*x + beta*y + gamma
through the data points (A row, b entry).  Minimizing the l1 norm of the
vertical residuals instead of the l2 norm makes the fit ignore rows produced
by attackers, since those rows sit on a different plane.  The fit runs as an
alternating-direction scheme whose only nontrivial step is the elementwise
soft threshold.  A two-cluster split of the residuals then separates on-plane
points from outliers so the plane can be refit on the clean set.

The least-squares step of every iteration solves with the same A, so a fit
factors it once: m = R^-1 Q^T from A's QR decomposition.  With the scaled
dual w = y/rho (Boyd et al., "Distributed Optimization and Statistical
Learning via ADMM", 2011, section 3.1.1) and v = z - w, each sweep's
u-update is u_ls + m @ v, where u_ls = m @ b is the least-squares plane.  A
sweep therefore needs only the N x N projector proj = A @ m and the
least-squares residual r_ls = A @ u_ls - b, both formed once per fit:
x = proj @ v + r_ls + w is the shrink argument, the new dual is x clipped to
[-1/rho, 1/rho], and z = x - w is its soft threshold.  The plane itself is
formed once, after the last sweep.  ``primal_residual`` is the norm of the
last dual change, which equals the last sweep's ||A u - z - b||.  LN-1E's
first step is LN-1's all-anchor fit, so ``admm_l1_plane`` memoizes its
result on the ``LinearSystem`` per ``AdmmParams``: when a trial runs both
estimators on one system, the fit runs once and LN-1E reads LN-1's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import Estimate, LinearSystem, rank_deficient
from .exceptions import (
    DegenerateGeometryError,
    DomainError,
    InsufficientSurvivorsError,
)

# Residuals below this fraction of the data scale mean every point already
# lies on the fitted plane, so there is nothing to cluster.
ON_PLANE_RTOL = 1e-9


@dataclass(frozen=True)
class PlaneCoeffs:
    """Fitted plane z = alpha*x + beta*y + gamma.

    alpha and beta are the position coordinates; gamma approximates their
    squared norm.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise DomainError("plane coefficients must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight, objective-change stopping tolerance, iteration cap."""

    rho: float = 0.2
    conv_tol: float = 1e-6
    max_iters: int = 5000

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise DomainError("rho must be positive")
        if self.conv_tol <= 0:
            raise DomainError("conv_tol must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")


class AdmmResult(NamedTuple):
    plane: PlaneCoeffs
    iterations: int
    converged: bool
    primal_residual: float = float("nan")  # ||w - w_prev||_2 = ||Au - z - b||_2, last sweep


class KmeansResult(NamedTuple):
    labels: np.ndarray  # 0 = near-plane cluster, 1 = far cluster
    centroids: np.ndarray  # ascending
    degenerate: bool


def soft_threshold(x, threshold: float):
    """Shrink magnitudes by ``threshold`` toward zero, elementwise."""
    if threshold < 0:
        raise DomainError("threshold must be non-negative")
    v = np.asarray(x, dtype=float)
    out = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def admm_l1_plane(system: LinearSystem, params: AdmmParams = AdmmParams()) -> AdmmResult:
    """Minimize ||A u - b||_1 by alternating direction.

    Splitting the residual into z, the iteration solves a least-squares
    subproblem for u, soft-thresholds z, and takes a dual ascent step, from
    zero initial state.  Stops once the l1 norm of z changes by at most
    ``conv_tol`` between sweeps, or at ``max_iters`` (converged=False, last
    iterate returned).  The result is memoized on ``system`` per ``params``,
    so a repeated call returns the first call's result.
    """
    fits = system.admm_fits
    if fits is None:
        fits = {}
        object.__setattr__(system, "admm_fits", fits)
    elif params in fits:
        return fits[params]
    A, b = system.A, system.b
    q, r = np.linalg.qr(A)
    if rank_deficient(np.linalg.svd(r, compute_uv=False)):
        raise DegenerateGeometryError("plane fit needs full-rank geometry")
    m = np.linalg.solve(r, q.T)  # u = m @ v solves min ||A u - v||_2
    u_ls = m @ b
    proj = A @ m
    r_ls = A @ u_ls - b
    bound = 1.0 / params.rho
    v = w = np.zeros(system.n_rows)
    prev_norm = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iters + 1):
        v_in, w_prev = v, w
        x = proj @ v_in + r_ls + w_prev
        w = np.minimum(np.maximum(x, -bound), bound)
        z = x - w
        z_norm = float(np.abs(z).sum())
        if abs(z_norm - prev_norm) <= params.conv_tol:
            converged = True
            break
        prev_norm = z_norm
        v = z - w
    fits[params] = result = AdmmResult(
        PlaneCoeffs(*(u_ls + m @ v_in)),
        iterations,
        converged,
        float(np.linalg.norm(w - w_prev)),
    )
    return result


def point_plane_residual(system: LinearSystem, plane: PlaneCoeffs) -> np.ndarray:
    """Vertical (z-axis) absolute residual of every data point from the plane.

    This is exactly the quantity the l1 objective penalizes, so the residual
    vector sums to the fit objective.
    """
    return np.abs(system.b - system.A @ plane.as_array())


def kmeans_1d(values) -> KmeansResult:
    """Two-cluster K-means on scalars, initialized at (min, max).

    Deterministic.  Identical values collapse to a single cluster: everything
    is labeled near-plane and the result is flagged degenerate.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise DomainError("need at least 2 values to cluster")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must be finite")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return KmeansResult(np.zeros(v.size, dtype=int), np.array([lo, lo]), True)
    centroids = np.array([lo, hi])
    labels = (np.abs(v - centroids[0]) > np.abs(v - centroids[1])).astype(int)
    for _ in range(200):
        for k in (0, 1):
            member = v[labels == k]
            if member.size:
                centroids[k] = member.mean()
        new_labels = (np.abs(v - centroids[0]) > np.abs(v - centroids[1])).astype(int)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    if centroids[0] > centroids[1]:  # keep the near-plane cluster first
        centroids = centroids[::-1].copy()
        labels = 1 - labels
    return KmeansResult(labels, centroids, False)


def ln1_estimate(system: LinearSystem, params: AdmmParams = AdmmParams()) -> Estimate:
    """Position read directly off the all-anchor l1 plane fit."""
    fit = admm_l1_plane(system, params)
    return Estimate(
        position=(fit.plane.alpha, fit.plane.beta),
        auxiliary=fit.plane.gamma,
        iterations=fit.iterations,
        converged=fit.converged,
    )


def ln1e_estimate(system: LinearSystem, params: AdmmParams = AdmmParams()) -> Estimate:
    """l1 plane fit with outlier elimination and a refit.

    Fits all rows, splits the residuals into two clusters, drops the far
    cluster (the attacked rows) and refits on the remainder.  When every
    residual is negligible relative to the data scale, all rows are kept and
    the first fit is returned unchanged.  So is a first fit that stopped at
    the iteration cap: its residuals are no basis for elimination, and the
    estimate is non-converged whatever a refit would give.
    """
    keep_all = ln1_estimate(system, params)
    if not keep_all.converged:
        return keep_all
    plane = PlaneCoeffs(*keep_all.position, keep_all.auxiliary)
    residuals = point_plane_residual(system, plane)
    scale = 1.0 + float(np.abs(system.b).max())
    if float(residuals.max()) <= ON_PLANE_RTOL * scale:
        return keep_all
    clusters = kmeans_1d(residuals)
    if clusters.degenerate:
        return keep_all
    near = np.flatnonzero(clusters.labels == 0)
    if near.size < 3:
        raise InsufficientSurvivorsError(
            f"near-plane cluster has {near.size} points, need at least 3"
        )
    refit = admm_l1_plane(system.subset(near), params)
    far = frozenset(int(i) for i in np.flatnonzero(clusters.labels == 1))
    return Estimate(
        position=(refit.plane.alpha, refit.plane.beta),
        auxiliary=refit.plane.gamma,
        eliminated=far,
        iterations=keep_all.iterations + refit.iterations,
        converged=refit.converged,
    )
