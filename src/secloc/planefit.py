"""Robust plane fitting for localization.

The squared-range system A u = b is a plane z = alpha*x + beta*y + gamma
through the data points (A row, b entry).  Minimizing the l1 norm of the
vertical residuals instead of the l2 norm makes the fit ignore rows produced
by attackers, since those rows sit on a different plane.  The fit runs as an
alternating-direction scheme whose only nontrivial step is the elementwise
soft threshold.  A two-cluster split of the residuals then separates on-plane
points from outliers so the plane can be refit on the clean set.

The least-squares step of every iteration solves with the same A, so a fit
factors it once, by the estimators' least-squares kernel: m = V S^-1 U^T
from A's SVD, so that m @ v = argmin ||A u - v||_2.  With the scaled
dual w = y/rho (Boyd et al., "Distributed Optimization and Statistical
Learning via ADMM", 2011, section 3.1.1) and v = z - w, each sweep's
u-update is u_ls + m @ v, where u_ls = m @ b is the least-squares plane.  A
sweep therefore needs only the N x N projector proj = A @ m and the
least-squares residual r_ls = A @ u_ls - b, both formed once per fit:
x = proj @ v + r_ls + w is the shrink argument, the new dual is x clipped to
[-1/rho, 1/rho], and z = x - w is its soft threshold.  The plane itself is
formed once, after the last sweep.  A fit is an ``Estimate``, as LS's and
WLS's solutions of the same system are: ``position`` is (alpha, beta),
``auxiliary`` is gamma, with the fit's ``iterations`` and ``converged``.

A sweep is a handful of numpy calls on vectors of about 30 entries, so its
cost is call overhead, not arithmetic.  ``admm_l1_planes`` therefore runs the
sweeps of many systems in lock step, one row per system.  Systems that share
A (every all-anchor fit of a fixed topology) share mix = [proj^T;
(I - proj)^T]: the row [z | w] of the last sweep times mix is
proj @ (z - w) + w, so one matrix product and one addition of r_ls give every
system's x.  Other systems (LN-1E's refits, per-trial topologies) step as
A @ (m @ (z - w)) + w + r_ls with their A and m stacked, which keeps their
memory and work linear in N; rows are zero-padded to the widest system, and
a padded entry stays zero in every sweep.  Each system leaves the batch at
its own sweep, with its own ``iterations`` and ``converged``; the batched
products and the padding may round the last bits differently from a fit of
that system alone.  ``admm_l1_plane`` is the one-system call of the same
loop.

Results are memoized in the system's ``memo``, under two keys per
``AdmmParams``: ``("fit", params)`` holds the system's fit, the ``Estimate``
that ``admm_l1_plane`` returns and LN-1 reports as it is, and
``("split", params)`` LN-1E's split of that fit's residuals (None when LN-1E
keeps every row).  A fit or split that raises is not memoized.  LN-1E
therefore reuses LN-1's fit, and the batch steps of the LN-1 and LN-1E rows
of ``harness.ESTIMATORS`` fill the memo for a chunk of trials before their
estimators run: ``admm_l1_planes`` fits every all-anchor system in one
batch, and ``prefit_planes`` also splits them and refits their near rows in
a second.  ``ln1_estimate`` and ``ln1e_estimate`` then read the memo.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .estimators import Estimate, LinearSystem, _least_squares, _unwrap
from .exceptions import (
    DegenerateGeometryError,
    DomainError,
    InsufficientSurvivorsError,
    SecLocError,
)

# Residuals below this fraction of the data scale mean every point already
# lies on the fitted plane, so there is nothing to cluster.
ON_PLANE_RTOL = 1e-9


@dataclass(frozen=True)
class AdmmParams:
    """Penalty weight, objective-change stopping tolerance, iteration cap."""

    rho: float = 0.2
    conv_tol: float = 1e-6
    max_iters: int = 5000

    def __post_init__(self) -> None:
        if not 0 < self.rho < np.inf:
            raise DomainError(f"rho must be positive and finite, got {self.rho!r}")
        if not 0 < self.conv_tol < np.inf:
            raise DomainError(f"conv_tol must be positive and finite, got {self.conv_tol!r}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise DomainError("max_iters must be an integer of at least 1")


def _halves(state: np.ndarray, width: int) -> tuple:
    """A sweep state [z | w] and views of its z and w."""
    return state, state[:, :width], state[:, width:]


def admm_l1_planes(systems, params: AdmmParams = AdmmParams()) -> list:
    """Minimize ||A u - b||_1 for every system, by alternating direction in
    lock step.

    Splitting the residual into z, the iteration solves a least-squares
    subproblem for u, soft-thresholds z, and takes a dual ascent step, from
    zero initial state.  A system stops once the l1 norm of its z changes by
    at most ``conv_tol`` between sweeps, or at ``max_iters`` (converged=False,
    last iterate returned).  Returns one entry per system: its fit, an
    ``Estimate`` of the plane z = alpha*x + beta*y + gamma with position
    (alpha, beta) and auxiliary gamma, memoized on the system per ``params``
    (a memoized system is not fitted again), or the ``SecLocError`` its fit
    raised (rank-deficient A, non-finite plane), which is not memoized and
    does not stop the others.
    """
    out = [system.memo.get(("fit", params)) for system in systems]
    live, factors = [], []  # the systems to fit and each one's m
    factor = factored = None
    for i, system in enumerate(systems):
        if out[i] is not None:
            continue
        if factor is None or not np.array_equal(system.A, factored):
            m, deficient = _least_squares(system.A)
            if deficient:
                out[i] = DegenerateGeometryError("plane fit needs full-rank geometry")
                continue
            factor, factored = m, system.A
        live.append(i)
        factors.append(factor)
    if not live:
        return out
    # Systems with one A share mix = [proj^T; (I - proj)^T], so that
    # x = [z | w] @ mix + r_ls; others stack their A and m, zero-padded to the
    # widest system, and step as x = A @ (m @ (z - w)) + w + r_ls.
    shared = all(f is factors[0] for f in factors)
    width = max(systems[i].n_rows for i in live)
    if shared:
        proj = systems[live[0]].A @ factors[0]
        mix = np.vstack([proj.T, (np.eye(width) - proj).T])
    else:
        a_stack = np.zeros((len(live), width, 3))
        m_stack = np.zeros((len(live), 3, width))
    u_ls = [m @ systems[i].b for i, m in zip(live, factors)]
    r_ls = np.zeros((len(live), width))
    for k, (i, m) in enumerate(zip(live, factors)):
        system = systems[i]
        n = system.n_rows
        r_ls[k, :n] = system.A @ u_ls[k] - system.b
        if not shared:
            a_stack[k, :n] = system.A
            m_stack[k, :, :n] = m
    rows = list(range(len(live)))  # batch row -> position in live
    lo, hi = -1.0 / params.rho, 1.0 / params.rho
    tol, max_iters = params.conv_tol, params.max_iters
    # Each sweep writes its z and w into the spare state, so the last
    # sweep's state stays at hand for the stopping sweep's plane (from
    # v = z - w).
    last = _halves(np.zeros((len(live), 2 * width)), width)
    spare = _halves(np.zeros_like(last[0]), width)
    prev_norm = [0.0] * len(live)
    # The per-system stopping test runs on Python floats: for a batch of a
    # few systems that is cheaper than three more numpy calls per sweep.
    dot, matmul, maximum, minimum = np.dot, np.matmul, np.maximum, np.minimum
    absolute, subtract, add_reduce = np.abs, np.subtract, np.add.reduce
    for iterations in range(1, max_iters + 1):
        state, z_prev, w_prev = last
        if shared:
            x = dot(state, mix)
        else:
            x = matmul(a_stack, matmul(m_stack, (z_prev - w_prev)[:, :, None]))[:, :, 0]
            x += w_prev
        x += r_ls
        _, z, w = spare
        minimum(maximum(x, lo), hi, out=w)
        subtract(x, w, out=z)
        z_norm = add_reduce(absolute(z), axis=1).tolist()
        converged = [abs(a - b) <= tol for a, b in zip(z_norm, prev_norm)]
        if True in converged or iterations == max_iters:
            keep = []
            for j, done in enumerate(converged):
                if not done and iterations < max_iters:
                    keep.append(j)
                    continue
                k = rows[j]
                system = systems[live[k]]
                n = system.n_rows
                plane = u_ls[k] + factors[k] @ (z_prev[j, :n] - w_prev[j, :n])
                if not np.all(np.isfinite(plane)):
                    out[live[k]] = DomainError("plane coefficients must be finite")
                    continue
                system.memo["fit", params] = out[live[k]] = Estimate(
                    plane[:2], float(plane[2]), iterations=iterations, converged=done
                )
            if not keep:
                break
            rows = [rows[j] for j in keep]
            z_norm = [z_norm[j] for j in keep]
            r_ls = r_ls[keep]
            last, spare = _halves(last[0][keep], width), _halves(spare[0][keep], width)
            if not shared:
                a_stack, m_stack = a_stack[keep], m_stack[keep]
        prev_norm = z_norm
        last, spare = spare, last
    return out


def admm_l1_plane(system: LinearSystem, params: AdmmParams = AdmmParams()) -> Estimate:
    """Minimize ||A u - b||_1 by alternating direction: ``admm_l1_planes`` on
    one system.  The result is memoized on ``system`` per ``params``, so a
    repeated call returns the first call's result; a failed fit raises."""
    return _unwrap(admm_l1_planes([system], params))


def point_plane_residual(system: LinearSystem, fit: Estimate) -> np.ndarray:
    """Vertical (z-axis) absolute residual of every data point from the plane
    of ``fit``, (alpha, beta, gamma) = (*position, auxiliary).

    This is exactly the quantity the l1 objective penalizes, so the residual
    vector sums to the fit objective.
    """
    return np.abs(system.b - system.A @ np.array([*fit.position, fit.auxiliary]))


def kmeans_1d(values) -> np.ndarray:
    """Two-cluster K-means on scalars: Lloyd's method started at (min, max).

    Returns the labels, 0 for the low (near-plane) cluster and 1 for the
    high (far) one.  Deterministic.  Identical values collapse to a single
    cluster: every label is 0.  Otherwise the maximum is labeled 1: a 1-D
    Lloyd step from (min, max) keeps the low centroid at or below the
    midpoint of the two and the high one above it.  Lloyd's method stops at
    the first split that no longer moves, which can have a higher
    within-cluster sum of squares than the optimal two-means split of the
    sorted values.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise DomainError("need at least 2 values to cluster")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must be finite")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return np.zeros(v.size, dtype=int)
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
    return labels


def ln1_estimate(system: LinearSystem, params: AdmmParams = AdmmParams()) -> Estimate:
    """Position read directly off the all-anchor l1 plane fit: the fit itself."""
    # Kept as a function of its own: secbench/tracing.py times
    # harness.ln1_estimate and planefit.admm_l1_plane as two nested spans, and
    # secbench/run.py checks that an LN-1 non-convergence has a capped ADMM
    # span below it.
    return admm_l1_plane(system, params)


class _Ln1eSplit(NamedTuple):
    near: LinearSystem  # the rows LN-1E refits
    far: frozenset  # the rows it eliminates


def _ln1e_split(system: LinearSystem, fit: Estimate, params: AdmmParams) -> _Ln1eSplit | None:
    """LN-1E's elimination step on ``fit``, the system's all-anchor fit at
    ``params``: the two clusters of the fit's residuals, or None when LN-1E
    keeps every row (see ``ln1e_estimate``).  The split is memoized under
    ``("split", params)``; a split that raises is not."""
    if ("split", params) in system.memo:
        return system.memo["split", params]
    split = None
    if fit.converged:
        residuals = point_plane_residual(system, fit)
        scale = 1.0 + float(np.abs(system.b).max())
        if float(residuals.max()) > ON_PLANE_RTOL * scale:
            labels = kmeans_1d(residuals)
            if labels.any():
                near = np.flatnonzero(labels == 0)
                if near.size < 3:
                    raise InsufficientSurvivorsError(
                        f"near-plane cluster has {near.size} points, need at least 3"
                    )
                far = frozenset(int(i) for i in np.flatnonzero(labels == 1))
                split = _Ln1eSplit(system.subset(near), far)
    system.memo["split", params] = split
    return split


def ln1e_estimate(system: LinearSystem, params: AdmmParams = AdmmParams()) -> Estimate:
    """l1 plane fit with outlier elimination and a refit.

    Fits all rows, splits the residuals into two clusters, drops the far
    cluster (the attacked rows) and refits on the remainder.  When every
    residual is negligible relative to the data scale, or every residual is
    equal (one cluster), all rows are kept and the first fit is returned
    unchanged.
    So is a first fit that stopped at the iteration cap: its residuals are no
    basis for elimination, and the estimate is non-converged whatever a refit
    would give.
    """
    keep_all = ln1_estimate(system, params)
    split = _ln1e_split(system, keep_all, params)
    if split is None:
        return keep_all
    refit = admm_l1_plane(split.near, params)
    return replace(
        refit, eliminated=split.far, iterations=keep_all.iterations + refit.iterations
    )


def prefit_planes(systems, params: AdmmParams) -> None:
    """Fill the memo LN-1E reads, with one lock-step ADMM for every
    all-anchor fit and one for every refit.

    A system whose fit or split raises is skipped, so that LN-1E's own call
    on it raises the same error.
    """
    near = []
    for system, fit in zip(systems, admm_l1_planes(systems, params)):
        if isinstance(fit, Estimate):
            try:
                split = _ln1e_split(system, fit, params)
            except SecLocError:
                continue
            if split is not None:
                near.append(split.near)
    admm_l1_planes(near, params)
