"""Position estimators built on the shared squared-range linear system.

Averaging each anchor's RSSI row gives a range estimate d_i; squaring the
range equations and subtracting the common quadratic term yields a linear
system A u = b in u = (t_x, t_y, t_x^2 + t_y^2).  The ranges are inverted
once per trial, when the system is built, and travel with it: LS solves the
system unweighted, WLS weights its rows by the inverse variance of the
squared range, SWLS first eliminates anchors whose per-packet range variance
implies an inflated noise level, and LMdS scores its candidates against the
same ranges.  Every linear least-squares solve, theirs and LN-1/LN-1E's in
``planefit``, goes through one kernel, ``_least_squares``: one SVD per
system, and ``rank_deficient`` as its only rank test.  ML and Grad-Desc fit
the RSSI matrix directly, through one squared-range model of the mean RSSI
(``_rssi_model``).  The LMdS and Grad-Desc settings (``LmdsParams``,
``GradDescParams``, the config's ``lmds`` and ``grad_desc`` sections) give
the estimators their keyword defaults and checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    LN10,
    PathLossParams,
    distance_from_rssi,
    distance_sq_variance,
    estimate_noise_sigma,
)
from .attacks import MeasurementMatrix
from .exceptions import (
    DegenerateGeometryError,
    DomainError,
    InsufficientAnchorsError,
    InsufficientSurvivorsError,
)

COND_LIMIT = 1e12
# ML's stopping rule, not a knob: from the truth, BFGS meets the gradient norm
# in a median 8 iterations on desk (at most 14 in 200 trials); the cap is a guard.
ML_GTOL = 1e-8
ML_MAX_ITERS = 500


def rank_deficient(svals: np.ndarray) -> np.ndarray:
    """Whether descending singular values (last axis) reach the condition limit."""
    return svals[..., -1] <= svals[..., 0] / COND_LIMIT


@dataclass(frozen=True)
class LinearSystem:
    """The (A, b) pair shared by every least-squares style estimator.

    Row i of A is (-2*a_i_x, -2*a_i_y, 1); b_i = d_i^2 - ||a_i||^2.
    ``ranges`` holds the d_i when the system was built from ranges (see
    ``build_linear_system``); the estimators that need ranges read them from
    here, so a trial inverts its mean RSSI once.  ``subset`` keeps them row for row.

    ``memo`` holds results computed from the system, under keys owned and
    documented by the module that fills it, so A, b and ranges must not be
    mutated after construction.  A subset starts with an empty memo.
    """

    A: np.ndarray
    b: np.ndarray
    ranges: np.ndarray | None = None
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.ndim != 2 or A.shape[1] != 3:
            raise DomainError("A must be an (N, 3) matrix")
        if A.shape[0] != b.shape[0]:
            raise DomainError("A and b row counts differ")
        if A.shape[0] < 3:
            raise InsufficientAnchorsError(f"need at least 3 rows, got {A.shape[0]}")
        if self.ranges is not None and np.shape(self.ranges) != b.shape:
            raise DomainError("ranges and b row counts differ")

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def subset(self, indices) -> "LinearSystem":
        idx = np.asarray(sorted(indices), dtype=int)
        ranges = None if self.ranges is None else self.ranges[idx]
        return LinearSystem(A=self.A[idx], b=self.b[idx], ranges=ranges)

    def range_estimates(self) -> np.ndarray:
        """The ranges the system was built from."""
        if self.ranges is None:
            raise DomainError("the system carries no ranges; use build_linear_system")
        return self.ranges


@dataclass(frozen=True)
class Estimate:
    """A 2-D position plus per-estimator diagnostics.

    Every estimator returns one, and so does every l1 plane fit of
    ``planefit``.  ``auxiliary`` is gamma, the third unknown of the
    squared-range system u = (t_x, t_y, gamma), where the estimator solves
    for it (LS, WLS, SWLS, LMdS, LN-1, LN-1E; gamma estimates ||t||^2), and
    None for ML and Grad-Desc.
    """

    position: np.ndarray
    auxiliary: float | None = None
    eliminated: frozenset = frozenset()
    iterations: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float).reshape(2)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "eliminated", frozenset(int(i) for i in self.eliminated))
        if self.converged and not np.all(np.isfinite(pos)):
            raise DomainError("a converged estimate must be finite")


def build_linear_system(anchors, mean_distances) -> LinearSystem:
    """Assemble (A, b) from anchor positions and P-averaged range estimates.

    The ranges must come from the row-mean RSSI (one inversion per anchor),
    not from averaging per-packet ranges.
    """
    a = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = np.asarray(mean_distances, dtype=float).ravel()
    if a.shape[0] != d.shape[0]:
        raise DomainError("anchor and distance counts differ")
    if a.shape[0] < 3:
        raise InsufficientAnchorsError(f"need at least 3 anchors, got {a.shape[0]}")
    top = float(np.abs(d).max())
    if not math.isfinite(top * top):
        raise DomainError(f"range {top:g} m is out of range: its square is not finite")
    A = np.column_stack([-2.0 * a[:, 0], -2.0 * a[:, 1], np.ones(a.shape[0])])
    b = d**2 - a[:, 0] ** 2 - a[:, 1] ** 2
    return LinearSystem(A=A, b=b, ranges=d)


def _least_squares(A: np.ndarray, b: np.ndarray | None = None) -> tuple:
    """The one least-squares kernel: factor a stack of (..., N, 3) systems,
    N >= 3, by one SVD each.  Returns the solutions argmin ||A u - b||_2, or,
    with no ``b``, the operators m with m @ b = argmin ||A u - b||_2,
    together with each system's ``rank_deficient`` flag.  What it returns
    for a flagged system is meaningless, and computing it raises no numpy
    warning."""
    u, svals, vt = np.linalg.svd(A, full_matrices=False)
    deficient = rank_deficient(svals)
    svals = np.where(deficient[..., None], 1.0, svals)
    if b is None:
        m = np.swapaxes(vt, -1, -2) / svals[..., None, :] @ np.swapaxes(u, -1, -2)
        return m, deficient
    coords = np.einsum("...ji,...j->...i", u, b) / svals
    return np.einsum("...ji,...j->...i", vt, coords), deficient


def _solve_rows(A: np.ndarray, b: np.ndarray, weights=None) -> np.ndarray:
    """Solve the (optionally weighted) least-squares system by the shared
    kernel, rejecting rank-deficient geometry."""
    if weights is not None:
        sw = np.sqrt(weights)
        A = A * sw[:, None]
        b = b * sw
    sol, deficient = _least_squares(A, b)
    if deficient:
        raise DegenerateGeometryError("anchor geometry is rank deficient")
    return sol


def ls_estimate(system: LinearSystem) -> Estimate:
    """Unweighted least-squares solution of the shared linear system."""
    sol = _solve_rows(system.A, system.b)
    return Estimate(position=sol[:2], auxiliary=float(sol[2]))


def wls_estimate(system: LinearSystem, params: PathLossParams) -> Estimate:
    """Weighted least squares with rows weighted by 1/Var(d^2), which favors
    anchors close to the target.  Unweighted when sigma = 0: the system is
    then exactly consistent and any weighting gives the same solution."""
    ranges = system.range_estimates()
    weights = None if params.sigma == 0 else 1.0 / distance_sq_variance(params, ranges)
    sol = _solve_rows(system.A, system.b, weights)
    return Estimate(position=sol[:2], auxiliary=float(sol[2]))


def swls_estimate(
    system: LinearSystem,
    measurements: MeasurementMatrix,
    params: PathLossParams,
    zeta: float = 1.5,
) -> Estimate:
    """WLS preceded by malicious-anchor elimination.

    Each anchor's per-packet range samples give a sample variance; inverting
    the range-variance law at the system's (mean-RSSI) range turns it into a
    noise-level estimate, and anchors whose estimate reaches zeta * sigma are
    dropped before the WLS solve on the remaining rows.
    """
    if not 0.0 < zeta < math.inf:
        raise DomainError(f"zeta must be positive and finite, got {zeta!r}")
    if measurements.packets < 2:
        raise DomainError("sample variance needs at least 2 packets")
    if measurements.n_anchors != system.n_rows:
        raise DomainError("measurement and system row counts differ")
    per_packet_d = distance_from_rssi(params, measurements.rssi)
    sample_var = np.var(per_packet_d, axis=1, ddof=1)
    sigma_est = estimate_noise_sigma(params, sample_var, system.range_estimates())
    threshold = zeta * params.sigma
    kept = sigma_est < threshold
    if threshold == 0.0:
        # Degenerate noiseless channel: any measured variance marks an attack.
        kept = sigma_est == 0.0
    kept_idx = np.flatnonzero(kept)
    if kept_idx.size < 3:
        raise InsufficientSurvivorsError(
            f"elimination left {kept_idx.size} anchors, need at least 3"
        )
    eliminated = np.flatnonzero(~kept)
    return replace(wls_estimate(system.subset(kept_idx), params), eliminated=eliminated)


def _rssi_model(t, anchors, params):
    """Offsets t - a_i, squared ranges (floored above zero), and the mean
    RSSI p0 - 5 n log10 d^2 each anchor's packets have at position t."""
    diff = t - anchors
    d2 = np.maximum(np.einsum("ij,ij->i", diff, diff), 1e-24)
    return diff, d2, params.p0 - 5.0 * params.n * np.log10(d2)


def _rssi_slope(params: PathLossParams) -> float:
    """dB the model falls per neper of range: its gradient is -slope * diff / d2."""
    return 10.0 * params.n / LN10


def _rssi_cost_grad(t, anchors, rssi, params):
    """Sum of squared RSSI residuals over all packets, and its gradient."""
    diff, d2, model = _rssi_model(t, anchors, params)
    err = rssi - model[:, None]
    cost = float(np.sum(err * err))
    grad = 2.0 * _rssi_slope(params) * ((err.sum(axis=1) / d2) @ diff)
    return cost, grad


def ml_estimate(
    measurements: MeasurementMatrix, anchors, params: PathLossParams, init
) -> Estimate:
    """Quasi-Newton local minimizer of the RSSI log-likelihood cost.

    BFGS with Armijo backtracking; steps landing within 1e-9 m of an anchor
    are damped.  Stops when the gradient norm drops below ``ML_GTOL`` or after
    ``ML_MAX_ITERS`` iterations (then converged=False).
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    rssi = measurements.rssi
    t = np.asarray(init, dtype=float).reshape(2).copy()
    if not np.all(np.isfinite(t)):
        raise DomainError("init must be finite")
    f, g = _rssi_cost_grad(t, anchors, rssi, params)
    hess_inv = np.eye(2)
    iterations = 0
    stalled = 0
    converged = float(np.linalg.norm(g)) < ML_GTOL

    def at_noise_floor() -> bool:
        # The summed cost resolves objective changes only down to ~eps*f, so
        # a vanishing-gradient stop below that resolution counts as converged.
        return float(np.linalg.norm(g)) <= 1e-9 * (1.0 + abs(f))

    while not converged and iterations < ML_MAX_ITERS:
        iterations += 1
        p = -hess_inv @ g
        if p @ g >= 0.0:  # safeguard against a non-descent direction
            hess_inv = np.eye(2)
            p = -g
        alpha, accepted = 1.0, False
        for _ in range(60):
            t_new = t + alpha * p
            if np.min(np.linalg.norm(t_new - anchors, axis=1)) < 1e-9:
                alpha *= 0.5  # damp steps that collide with an anchor
                continue
            f_new, g_new = _rssi_cost_grad(t_new, anchors, rssi, params)
            if f_new <= f + 1e-4 * alpha * float(g @ p):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # Persistent collision, or no representable decrease along p.
            converged = at_noise_floor()
            break
        stalled = stalled + 1 if abs(f_new - f) <= 1e-14 * (1.0 + abs(f)) else 0
        s = t_new - t
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            left = np.eye(2) - rho * np.outer(s, y)
            hess_inv = left @ hess_inv @ left.T + rho * np.outer(s, s)
        else:
            hess_inv = np.eye(2)
        t, f, g = t_new, f_new, g_new
        converged = float(np.linalg.norm(g)) < ML_GTOL
        if not converged and stalled >= 3:
            converged = at_noise_floor()
            break
    return Estimate(position=t, iterations=iterations, converged=converged)


@dataclass(frozen=True)
class LmdsParams:
    """Candidate count and rows per candidate subset of LMdS."""

    n_subsets: int = 20
    subset_size: int = 4

    def __post_init__(self) -> None:
        counts = (self.n_subsets, self.subset_size)
        if not all(isinstance(c, numbers.Integral) for c in counts):
            raise DomainError(f"n_subsets and subset_size must be integers: {self}")
        if self.n_subsets < 1 or self.subset_size < 3:
            raise DomainError(f"need n_subsets >= 1 and subset_size >= 3: {self}")


def lmds_estimate(
    system: LinearSystem,
    anchors,
    n_subsets: int = LmdsParams.n_subsets,
    subset_size: int = LmdsParams.subset_size,
    seed=None,
) -> Estimate:
    """Least-median-of-squares baseline.

    LS-solves random row subsets of the system and keeps the candidate
    position whose squared residuals against the system's ranges, over all
    anchors, have the smallest median (the first such candidate on a tie).
    Subsets are drawn one ``rng.choice`` at a time, as many as candidates are
    still missing, and solved together by one ``_least_squares`` call; a
    rank-deficient subset is skipped and costs one of the 20 * n_subsets
    retries.  Walking each batch in draw order, the candidates kept and the
    retries spent are those of drawing and solving one subset at a time.
    """
    LmdsParams(n_subsets, subset_size)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    if n != system.n_rows:
        raise DomainError("anchor and system row counts differ")
    if subset_size > n:
        raise DomainError("subset_size exceeds the anchor count")
    ranges = system.range_estimates()
    rng = np.random.default_rng(seed)
    solutions = []
    produced = 0
    retries = 20 * n_subsets
    while produced < n_subsets and retries >= 0:
        idx = np.array(
            [rng.choice(n, size=subset_size, replace=False) for _ in range(n_subsets - produced)]
        )
        sols, flags = _least_squares(system.A[idx], system.b[idx])
        usable = []
        for k, deficient in enumerate(flags):
            if retries < 0:
                break
            if deficient:
                retries -= 1
            else:
                usable.append(k)
        solutions.append(sols[usable])
        produced += len(usable)
    if produced == 0:
        raise DegenerateGeometryError("every candidate subset was rank deficient")
    sols = np.concatenate(solutions)
    offsets = sols[:, None, :2] - anchors
    residuals = (ranges - np.linalg.norm(offsets, axis=2)) ** 2
    best = sols[int(np.argmin(np.median(residuals, axis=1)))]
    return Estimate(position=best[:2], auxiliary=float(best[2]), iterations=produced)


@dataclass(frozen=True)
class GradDescParams:
    """Step size, iteration budget and kept share of anchors of Grad-Desc."""

    step: float = 0.4
    max_iters: int = 200
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, numbers.Integral):
            raise DomainError(f"max_iters must be an integer: {self}")
        if self.step <= 0 or self.max_iters < 1 or not 0.0 < self.keep_fraction <= 1.0:
            raise DomainError(f"need step > 0, max_iters >= 1, keep_fraction in (0, 1]: {self}")


def grad_desc_estimate(
    measurements: MeasurementMatrix,
    anchors,
    params: PathLossParams,
    step: float = GradDescParams.step,
    max_iters: int = GradDescParams.max_iters,
    keep_fraction: float = GradDescParams.keep_fraction,
    init=None,
    callback=None,
) -> Estimate:
    """Constant-step gradient descent on the RSSI cost with residual pruning.

    Each iteration keeps the ceil(keep_fraction * N) anchors with the
    smallest absolute mean RSSI residual at the current iterate and descends
    the mean squared residual over that subset.  The model is one value per
    anchor, so every step works on per-anchor means: anchor i's mean residual
    is its mean RSSI minus the model, and the gradient of its packets' summed
    squared residuals is P times that of the mean.  ``callback(iteration,
    position, kept_indices, cost)`` is invoked once per iteration; its cost
    adds each kept anchor's packet variance, computed once, to its squared
    mean residual.

    Grad-Desc is a fixed-budget baseline: it stops when a step moves the
    iterate by less than 1e-12 m or after ``max_iters`` steps, and stopping at
    ``max_iters`` returns ``converged=True`` by design: on the benchmark's
    coord-fixed and uncoord-fixed blocks at seed 20260810, 76 % and 81 % of
    calls use all 200 steps.  Only an iterate that leaves the 1e6 m box, or
    turns inf or nan, is non-converged.
    """
    GradDescParams(step, max_iters, keep_fraction)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    rssi = measurements.rssi
    n = rssi.shape[0]
    n_keep = max(3, math.ceil(keep_fraction * n))
    t = anchors.mean(axis=0) if init is None else np.asarray(init, dtype=float).reshape(2).copy()
    rssi_mean = rssi.mean(axis=1)
    gain = 2.0 * _rssi_slope(params) / n_keep
    packet_var = None if callback is None else rssi.var(axis=1)
    kept = np.arange(n)
    converged = True
    iterations = 0
    for iterations in range(1, max_iters + 1):
        diff, d2, model = _rssi_model(t, anchors, params)
        row_mean = rssi_mean - model
        order = np.argsort(np.abs(row_mean), kind="stable")
        kept = np.sort(order[:n_keep])
        kept_mean = row_mean[kept]
        if callback is not None:
            cost = float(np.sum(packet_var[kept] + kept_mean**2)) / n_keep
            callback(iterations, t.copy(), kept.copy(), cost)
        grad = gain * ((kept_mean / d2[kept]) @ diff[kept])
        t_new = t - step * grad
        if not math.hypot(*t_new) <= 1e6:  # also true for an inf or nan iterate
            converged = False
            break
        moved = math.hypot(*(t_new - t))
        t = t_new
        if moved < 1e-12:
            break
    eliminated = frozenset(int(i) for i in np.setdiff1d(np.arange(n), kept))
    return Estimate(
        position=t, eliminated=eliminated, iterations=iterations, converged=converged
    )
