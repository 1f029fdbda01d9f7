"""Position estimators built on the shared squared-range linear system.

Every estimator takes one trial's ``LinearSystem`` first, and that system
holds what the target node measured, as plain arrays: the anchors' positions
and the N x P RSSI matrix, never which anchors lie.  Averaging each
anchor's RSSI row gives a range estimate d_i; squaring the range equations
and subtracting the common quadratic term yields a linear system A u = b in
u = (t_x, t_y, t_x^2 + t_y^2).  The ranges are inverted once per trial, when
the system is built, and travel with it, as does the RSSI matrix; the
anchors are read back off A.  LS solves the system unweighted, WLS weights
its rows by the inverse variance of the squared range, SWLS first eliminates
anchors whose per-packet range variance implies an inflated noise level, and
LMdS scores its candidates against the same ranges.  Every linear
least-squares solve, theirs and LN-1/LN-1E's in ``planefit``, goes through
one kernel, ``_least_squares``: one SVD per system, and ``rank_deficient``
as its only rank test.  ML and Grad-Desc fit the RSSI matrix directly,
through one squared-range model of the mean RSSI (``_rssi_model``, which
reads the channel's ``mean_rssi_sq`` and ``PathLossParams.slope``).
A batched fit is kept in the memo of its trial's system, the one place
such fits are kept (``planefit`` keeps its plane fits there too).  LS, WLS,
SWLS, ML and Grad-Desc each have one function that fits many systems at
once and returns, per system, its ``Estimate``, memoized on the system, or
the ``SecLocError`` it raises, which is not memoized; their one-system
calls are batches of one, which ``_unwrap`` turns back into a result or a
raise (as it does for ``planefit.admm_l1_plane``).  ``ls_fits``,
``wls_fits`` and ``swls_fits`` stack their systems by row count (SWLS's
variance test by RSSI shape, its kept rows by kept count), bit-identical to
one system at a time; where the variance law or the distance inversion
raises for a whole stack, each system is fitted alone.  Their memo keys are
``("ls",)``, ``("wls", params)`` and ``("swls", params, zeta)``.  ML's
loop, ``ml_fits``, runs BFGS from the given start in lock step, also
bit-identical to one trial at a time; its key is ``("ml", params, init)``,
init as a tuple of two floats.  Grad-Desc's, ``grad_desc_fits``, steps
each trial from its anchors' centroid (anchors on one line fail
``rank_deficient`` there too); its key is ``("grad_desc", params,
max_iters)``.
The LMdS and Grad-Desc settings are constants, as ML's stop rule is
(``LMDS_SUBSETS``, ``LMDS_SUBSET_SIZE``, ``GRAD_DESC_STEP``,
``GRAD_DESC_MAX_ITERS``, ``GRAD_DESC_KEEP_FRACTION``), read when the
estimators run; only Grad-Desc's iteration budget is also a keyword.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    PathLossParams,
    distance_from_rssi,
    distance_sq_variance,
    estimate_noise_sigma,
    mean_rssi_sq,
)
from .exceptions import (
    DegenerateGeometryError,
    DomainError,
    InsufficientAnchorsError,
    InsufficientSurvivorsError,
    SecLocError,
)

COND_LIMIT = 1e12
# ML's stopping rule, not a knob: from the truth, BFGS meets the gradient norm
# in a median 8 iterations on desk (at most 14 in 200 trials); the cap is a guard.
ML_GTOL = 1e-8
ML_MAX_ITERS = 500
# The LMdS and Grad-Desc baselines' settings, constants for the same reason:
# every shipped run uses these values.  LMdS keeps the best of LMDS_SUBSETS
# candidates, each LS-solved on LMDS_SUBSET_SIZE random rows.  Grad-Desc takes
# GRAD_DESC_STEP-sized steps on the GRAD_DESC_KEEP_FRACTION of anchors with the
# smallest residuals, at most GRAD_DESC_MAX_ITERS of them.  Above a step of 1
# the path depends on last-bit rounding: two sums of the same residuals in
# another order took another path on 1 of 24 seeded trials at step 2 and on 6
# at step 5, and on none at 0.4 or 1.
LMDS_SUBSETS = 20
LMDS_SUBSET_SIZE = 4
GRAD_DESC_STEP = 0.4
GRAD_DESC_MAX_ITERS = 200
GRAD_DESC_KEEP_FRACTION = 0.5
_NO_MEASUREMENTS = "the system carries no measurements; use build_linear_system"
_NO_RANGES = "the system carries no ranges; use build_linear_system"


def rank_deficient(svals: np.ndarray) -> np.ndarray:
    """Whether descending singular values (last axis) reach the condition limit."""
    return svals[..., -1] <= svals[..., 0] / COND_LIMIT


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """One trial's measurements as the (A, b) pair, the one input of every
    estimator.

    Row i of A is (-2*a_i_x, -2*a_i_y, 1); b_i = d_i^2 - ||a_i||^2, so
    ``anchors`` reads the anchor positions back off A exactly.  ``ranges``
    holds the d_i when the system was built from ranges, and
    ``measurements`` the trial's (N, P) RSSI array in dBm, one row per row
    of A, checked once here: two dimensions, at least one packet, every
    entry finite (see ``build_linear_system``).  The estimators that need
    them read them from here, so a trial inverts its mean RSSI once.  Both
    are optional, so a plane fit can run on a hand-built (A, b); an
    estimator that needs one raises ``DomainError`` without it.  ``subset``
    slices them row for row.

    ``memo`` holds results computed from the system, under keys owned and
    documented by the module that fills it, so A, b, ranges and measurements
    must not be mutated after construction.  A subset starts with an empty
    memo.  Systems compare by identity (``eq=False``), as every type that
    holds arrays does, so ``==`` never compares arrays and a system hashes.
    """

    A: np.ndarray
    b: np.ndarray
    ranges: np.ndarray | None = None
    measurements: np.ndarray | None = None
    memo: dict = field(default_factory=dict, init=False, repr=False)

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
        if self.measurements is not None:
            rssi = np.asarray(self.measurements, dtype=float)
            object.__setattr__(self, "measurements", rssi)
            if rssi.ndim != 2 or rssi.shape[1] < 1 or not np.isfinite(rssi).all():
                raise DomainError("measurements must be a finite (N, P) array with P >= 1")
            if rssi.shape[0] != b.shape[0]:
                raise DomainError("measurement and system row counts differ")

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def anchors(self) -> np.ndarray:
        """The anchor positions, (N, 2): A's first two columns are -2 a_i."""
        return -0.5 * self.A[:, :2]

    def subset(self, indices) -> "LinearSystem":
        idx = np.asarray(sorted(indices), dtype=int)
        ranges = None if self.ranges is None else self.ranges[idx]
        rssi = None if self.measurements is None else self.measurements[idx]
        return LinearSystem(A=self.A[idx], b=self.b[idx], ranges=ranges, measurements=rssi)


@dataclass(frozen=True, eq=False)
class Estimate:
    """A 2-D position plus per-estimator diagnostics.

    Every estimator returns one, and so does every l1 plane fit of
    ``planefit``.  ``auxiliary`` is gamma, the third unknown of the
    squared-range system u = (t_x, t_y, gamma), where the estimator solves
    for it (LS, WLS, SWLS, LMdS, LN-1, LN-1E; gamma estimates ||t||^2), and
    None for ML and Grad-Desc.  Estimates compare by identity.
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


def build_linear_systems(anchors, mean_distances, measurements=None) -> list:
    """Assemble (A, b) for a stack of T trials with one anchor count: (T, N, 2)
    anchor positions and (T, N) P-averaged range estimates, with, if given,
    their T (N, P) RSSI arrays (stacked, or in a list).  One
    ``LinearSystem`` per trial, all built at once on the stack, element for
    element as a trial alone.  The first trial whose ranges fail raises its
    error, then the first whose system fails ``LinearSystem``'s checks.

    The ranges must come from the row-mean RSSI (one inversion per anchor),
    not from averaging per-packet ranges.  A range must be positive and its
    square finite: one that underflowed to 0 (or overflowed) in the
    inversion is a ``DomainError``.  A trial's RSSI array travels with its
    system for the estimators that read it (SWLS, ML, Grad-Desc).
    """
    a = np.asarray(anchors, dtype=float)
    d = np.asarray(mean_distances, dtype=float)
    if a.shape[:2] != d.shape:
        raise DomainError("anchor and distance counts differ")
    if a.shape[1] < 3:
        raise InsufficientAnchorsError(f"need at least 3 anchors, got {a.shape[1]}")
    top, low = np.abs(d).max(axis=1), d.min(axis=1)
    with np.errstate(over="ignore"):
        square_ok = np.isfinite(top * top)
    bad = np.flatnonzero(~(square_ok & (low > 0)))
    if bad.size:
        j = bad[0]
        if not square_ok[j]:
            raise DomainError(f"range {top[j]:g} m is out of range: its square is not finite")
        raise DomainError(f"range {low[j]:g} m is out of range: it is not positive")
    rssi = [None] * len(d) if measurements is None else measurements
    A = np.empty(d.shape + (3,))
    A[..., :2] = -2.0 * a[..., :2]
    A[..., 2] = 1.0
    b = d**2 - a[..., 0] ** 2 - a[..., 1] ** 2
    return [LinearSystem(A[j], b[j], ranges=d[j], measurements=rssi[j]) for j in range(len(d))]


def build_linear_system(anchors, mean_distances, measurements=None) -> LinearSystem:
    """(A, b) of one trial, a stack of one of ``build_linear_systems``: from
    (N, 2) anchor positions, N ranges and, optionally, the trial's (N, P)
    RSSI array."""
    a = np.atleast_2d(np.asarray(anchors, dtype=float))
    d = np.asarray(mean_distances, dtype=float).ravel()
    rssi = None if measurements is None else [measurements]
    return build_linear_systems(a[None], d[None], rssi)[0]


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


def _groups(rows, size) -> list:
    """``rows`` grouped by ``size(row)``, each group in order."""
    groups = {}
    for row in rows:
        groups.setdefault(size(row), []).append(row)
    return list(groups.values())


def _unwrap(results: list):
    """The lone entry of a one-system batch: its result, or, raised, the
    ``SecLocError`` the batch returned in its place."""
    (result,) = results
    if isinstance(result, SecLocError):
        raise result
    return result


def _each(fit, *stacks) -> list:
    """``fit`` on stacks of T systems' arrays (leading axis), one result per
    system.  Where it raises for the whole stack (a variance or a distance
    that overflows for one system), each system is fitted as a stack of
    one, and one that raises alone gets its error as its result."""
    try:
        return fit(*stacks)
    except SecLocError as error:
        if len(stacks[0]) == 1:
            return [error]
    return [_each(fit, *(s[j : j + 1] for s in stacks))[0] for j in range(len(stacks[0]))]


def _solve_stack(A: np.ndarray, b: np.ndarray, eliminated=None) -> list:
    """Solve a stack (T, N, 3), (T, N) of systems by one ``_least_squares``
    call: each system's ``Estimate``, with ``eliminated[j]`` for system j if
    given, or a ``DegenerateGeometryError`` where it is rank deficient."""
    sols, deficient = _least_squares(A, b)
    return [
        DegenerateGeometryError("anchor geometry is rank deficient")
        if deficient[j]
        else Estimate(
            position=sols[j, :2],
            auxiliary=float(sols[j, 2]),
            eliminated=() if eliminated is None else eliminated[j],
        )
        for j in range(len(sols))
    ]


def _closed_form(systems, key, check, size, fit, *names) -> list:
    """The batch of LS, WLS and SWLS: each system's fit memoized under
    ``key``, else the error ``check`` finds in it (or None), else its result
    from ``_each(fit, ...)`` on the attributes ``names`` of the systems of
    one ``size``, stacked.  An ``Estimate`` is memoized, an error is not."""
    out = [system.memo.get(key) for system in systems]
    out = [check(system) if done is None else done for system, done in zip(systems, out)]
    rows = [i for i, done in enumerate(out) if done is None]
    for group in _groups(rows, lambda i: size(systems[i])):
        stacks = [np.array([getattr(systems[i], name) for i in group]) for name in names]
        for i, result in zip(group, _each(fit, *stacks)):
            out[i] = result
            if isinstance(result, Estimate):
                systems[i].memo[key] = result
    return out


def ls_fits(systems) -> list:
    """LS on many systems at once: one ``_least_squares`` call per group of
    equal row count.  Returns one entry per system: its ``Estimate``,
    memoized on it under ``("ls",)`` (a memoized system is not fitted
    again), or, for rank-deficient geometry, a ``DegenerateGeometryError``,
    which is not memoized."""
    return _closed_form(
        systems, ("ls",), lambda system: None, lambda system: system.n_rows, _solve_stack, "A", "b"
    )


def ls_estimate(system: LinearSystem) -> Estimate:
    """Unweighted least-squares solution of the shared linear system, a
    batch of one of ``ls_fits``."""
    return _unwrap(ls_fits([system]))


def _wls_stack(params, A, b, ranges, eliminated=None) -> list:
    """WLS on a stack (T, N, 3), (T, N) of systems with their (T, N) ranges:
    each row weighted by 1/Var(d^2), and 1 throughout a system with a zero
    variance, then ``_solve_stack``.  A variance so small (subnormal) that
    its inverse overflows is a ``DomainError`` for the stack."""
    var = distance_sq_variance(params, ranges)
    var = np.where(var.all(axis=-1, keepdims=True), var, 1.0)
    with np.errstate(over="ignore"):
        weights = 1.0 / var
    if not np.isfinite(weights).all():
        tiny = float(var[~np.isfinite(weights)].flat[0])
        raise DomainError(
            f"squared-range variance {tiny:g} m^4 is too small: its inverse weight overflows"
        )
    sw = np.sqrt(weights)
    return _solve_stack(A * sw[..., None], b * sw, eliminated)


def _ranges_check(system) -> DomainError | None:
    return DomainError(_NO_RANGES) if system.ranges is None else None


def wls_fits(systems, params: PathLossParams) -> list:
    """WLS on many systems at once: the variance law on the stacked (T, N)
    ranges of each group of equal row count, and one ``_least_squares``
    call on its weighted rows.  Returns one entry per system: its
    ``Estimate``, memoized on it under ``("wls", params)``, or the
    ``SecLocError`` it raises (no ranges, an overflowing variance,
    rank-deficient geometry), which is not memoized."""
    return _closed_form(
        systems,
        ("wls", params),
        _ranges_check,
        lambda system: system.n_rows,
        lambda *stacks: _wls_stack(params, *stacks),
        "A", "b", "ranges",
    )


def wls_estimate(system: LinearSystem, params: PathLossParams) -> Estimate:
    """Weighted least squares with rows weighted by 1/Var(d^2), which favors
    anchors close to the target; a batch of one of ``wls_fits``.  Unweighted
    when a variance is 0, as at sigma = 0 or at a sigma so small that it
    underflows: the system is then (numerically) exactly consistent and any
    weighting gives the same solution."""
    return _unwrap(wls_fits([system], params))


def _check_zeta(zeta: float) -> None:
    if not 0.0 < zeta < math.inf:
        raise DomainError(f"zeta must be positive and finite, got {zeta!r}")


def _swls_check(system) -> DomainError | None:
    if system.measurements is None:
        return DomainError(_NO_MEASUREMENTS)
    if system.measurements.shape[1] < 2:
        return DomainError("sample variance needs at least 2 packets")
    return _ranges_check(system)


def _swls_stack(params, zeta, rssi, ranges, A, b) -> list:
    """SWLS on a stack of systems' (T, N, P) RSSI arrays, (T, N) ranges and
    (T, N, 3), (T, N) rows: the variance test, then WLS on each system's
    kept rows, stacked by kept count.

    Each anchor's per-packet range samples give a sample variance, which the
    inverted range-variance law at its (mean-RSSI) range turns into a noise
    level; it is kept below zeta * sigma."""
    # np.var(ranges_k, axis=-1, ddof=1) step for step, bit for bit, but in
    # ranges_k's own array, where np.var would allocate a second (T, N, P) one
    ranges_k = distance_from_rssi(params, rssi)
    packets = ranges_k.shape[-1]
    ranges_k -= ranges_k.sum(axis=-1, keepdims=True) / packets
    sample_var = np.square(ranges_k, out=ranges_k).sum(axis=-1) / (packets - 1)
    sigma_est = estimate_noise_sigma(params, sample_var, ranges)
    threshold = zeta * params.sigma
    # at a noiseless channel any measured variance marks an attack
    kept = sigma_est == 0.0 if threshold == 0.0 else sigma_est < threshold
    counts = kept.sum(axis=1)
    out = [None] * len(kept)
    for sub in _groups(range(len(kept)), lambda j: counts[j]):
        if counts[sub[0]] < 3:
            msg = f"elimination left {counts[sub[0]]} anchors, need at least 3"
            fits = [InsufficientSurvivorsError(msg) for _ in sub]
        else:
            take = np.array(sub)[:, None], np.array([np.flatnonzero(kept[j]) for j in sub])
            fits = _each(
                lambda *stacks: _wls_stack(params, *stacks),
                A[take],
                b[take],
                ranges[take],
                [np.flatnonzero(~kept[j]) for j in sub],
            )
        for j, fit in zip(sub, fits):
            out[j] = fit
    return out


def swls_fits(systems, params: PathLossParams, zeta: float = 1.5) -> list:
    """SWLS on many systems at once: the variance test on the stacked
    (T, N, P) RSSI arrays of each group of one RSSI shape, then WLS on the
    kept rows, stacked by kept count.  Returns one entry per system: its
    ``Estimate``, memoized on it under ``("swls", params, zeta)``, or the
    ``SecLocError`` it raises (no measurements or ranges, one packet, an
    overflowing range or variance, fewer than 3 survivors, rank-deficient
    geometry), which is not memoized.  A zeta that is not positive and
    finite raises ``DomainError`` for the whole batch."""
    _check_zeta(zeta)
    return _closed_form(
        systems,
        ("swls", params, zeta),
        _swls_check,
        lambda system: system.measurements.shape,
        lambda *stacks: _swls_stack(params, zeta, *stacks),
        "measurements", "ranges", "A", "b",
    )


def swls_estimate(system: LinearSystem, params: PathLossParams, zeta: float = 1.5) -> Estimate:
    """WLS preceded by malicious-anchor elimination; a batch of one of
    ``swls_fits``.

    Each anchor's per-packet range samples (from the system's RSSI matrix)
    give a sample variance; inverting the range-variance law at the system's
    (mean-RSSI) range turns it into a noise-level estimate, and anchors whose
    estimate reaches zeta * sigma are dropped before the WLS solve on the
    remaining rows.
    """
    return _unwrap(swls_fits([system], params, zeta))


def _rssi_model(t, anchors, params):
    """Offsets t - a_i, squared ranges (floored above zero), and the mean
    RSSI each anchor's packets have at position t.  The model's gradient in
    t is -params.slope * diff / d2.  Leading axes broadcast: t of shape
    (T, 1, 2) against (T, N, 2) anchors gives T trials' (T, N) models."""
    diff = t - anchors
    d2 = np.maximum(np.einsum("...j,...j->...", diff, diff), 1e-24)
    return diff, d2, mean_rssi_sq(params, d2)


def _rssi_cost_grad(t, anchors, rssi, params):
    """Sum of squared RSSI residuals over all packets, and its gradient.
    Leading axes broadcast as in ``_rssi_model``: t of shape (T, 1, 2)
    against (T, N, 2) anchors and a (T, N, P) RSSI array gives T costs and
    (T, 2) gradients, each summed as a lone trial's is: the cost over its
    N x P block, the gradient by a (1, N) @ (N, 2) matrix product."""
    diff, d2, model = _rssi_model(t, anchors, params)
    err = rssi - model[..., None]
    cost = np.sum(err * err, axis=(-2, -1))
    weights = (err.sum(axis=-1) / d2)[..., None, :]
    return cost, 2.0 * params.slope * np.matmul(weights, diff)[..., 0, :]


def _dots(a, b):
    """Row-wise dot products of two (T, k) stacks, each a (1, k) @ (k, 1)
    matrix product: the BLAS dot of a lone ``a @ b`` on vectors, and of
    ``np.linalg.norm`` on one."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _backtrack(t, f, g, p, descent, anchors, rssi, params):
    """ML's Armijo backtracking on every row of a batch: the first step
    t + alpha p, alpha = 1, 1/2, ... (60 at most), that lands at least 1e-9 m
    from every anchor (closer steps are damped) and lowers the cost by at
    least 1e-4 alpha ``descent``.  The rows still searching share alpha.
    Returns which rows found a step, and the rows' new t, f and g, which a
    row that found none keeps."""
    t_new, f_new, g_new = t.copy(), f.copy(), g.copy()
    accepted = np.zeros(t.shape[0], dtype=bool)
    search = np.arange(t.shape[0])
    alpha = 1.0
    for _ in range(60):
        steps = t + alpha * p
        # the nearest anchor as np.linalg.norm measures it (the min of the
        # roots is the root of the min); a damped step's cost is computed
        # and dropped, on squared ranges floored above 0
        diff = steps[:, None, :] - anchors
        near = np.sqrt(np.add.reduce(diff * diff, axis=-1).min(axis=-1)) < 1e-9
        f_try, g_try = _rssi_cost_grad(steps[:, None, :], anchors, rssi, params)
        ok = ~near & (f_try <= f + 1e-4 * alpha * descent)
        if ok.any():
            done = search[ok]
            t_new[done], f_new[done], g_new[done] = steps[ok], f_try[ok], g_try[ok]
            accepted[done] = True
            rest = ~ok
            search = search[rest]
            if not search.size:
                break
            t, f, p, descent, anchors, rssi = (
                a[rest] for a in (t, f, p, descent, anchors, rssi)
            )
        alpha *= 0.5
    return accepted, t_new, f_new, g_new


def ml_fits(systems, params: PathLossParams, inits) -> list:
    """ML's BFGS on T trials' systems in lock step, one row per trial,
    trial i from ``inits[i]``.  The systems' RSSI arrays must have one
    shape.  Returns one entry per trial: its ``Estimate``, memoized on its
    system (see ``ml_estimate``; a memoized trial is not run again), or, for
    a system without measurements or a non-finite init, a ``DomainError``,
    which is not memoized and does not stop the others.

    The state is t (T, 2), the cost f (T), the gradient g (T, 2) and the
    inverse Hessian (T, 2, 2).  Every row keeps its own Armijo step, its own
    collision damping and its own stall count, and leaves at its own stop.
    Each product and sum runs on the kernel and core shape of the lone
    trial's (stacked ``np.matmul`` for its ``@``, see ``_dots``), so a row
    takes its trial's path bit for bit, whichever rows share its batch.
    """
    keys = [("ml", params, tuple(np.asarray(x, dtype=float).reshape(2).tolist())) for x in inits]
    out = []
    for system, key in zip(systems, keys):
        if system.measurements is None:
            out.append(DomainError(_NO_MEASUREMENTS))
        elif not np.isfinite(key[2]).all():
            out.append(DomainError("init must be finite"))
        else:
            out.append(system.memo.get(key))
    # batch row -> trial
    rows = np.array([i for i, fit in enumerate(out) if fit is None], dtype=int)
    if not rows.size:
        return out
    if len({systems[i].measurements.shape for i in rows}) > 1:
        raise DomainError("the systems of an ML batch must have one RSSI shape")
    rssi = np.array([systems[i].measurements for i in rows])
    anchors = np.array([systems[i].anchors for i in rows])
    t = np.array([keys[i][2] for i in rows])
    f, g = _rssi_cost_grad(t[:, None, :], anchors, rssi, params)
    gnorm = np.sqrt(_dots(g, g))
    eye = np.eye(2)
    hess_inv = np.tile(eye, (rows.size, 1, 1))
    stalled = np.zeros(rows.size, dtype=int)
    iterations = 0
    converged = gnorm < ML_GTOL
    stop = converged | (iterations >= ML_MAX_ITERS)
    while True:
        if stop.any():
            for j in np.flatnonzero(stop):
                i = rows[j]
                systems[i].memo[keys[i]] = out[i] = Estimate(
                    position=t[j], iterations=iterations, converged=bool(converged[j])
                )
            go = ~stop
            rows, rssi, anchors, t, f, g, gnorm, hess_inv, stalled = (
                a[go] for a in (rows, rssi, anchors, t, f, g, gnorm, hess_inv, stalled)
            )
        if not rows.size:
            return out
        iterations += 1
        p = np.matmul(-hess_inv, g[:, :, None])[:, :, 0]
        uphill = _dots(p, g) >= 0.0  # safeguard against a non-descent direction
        if uphill.any():
            hess_inv[uphill] = eye
            p[uphill] = -g[uphill]
        accepted, t_new, f_new, g_new = _backtrack(
            t, f, g, p, _dots(g, p), anchors, rssi, params
        )
        stalled = np.where(np.abs(f_new - f) <= 1e-14 * (1.0 + np.abs(f)), stalled + 1, 0)
        s, y = t_new - t, g_new - g
        sy = _dots(s, y)
        curved = sy > 1e-12 * np.sqrt(_dots(s, s)) * np.sqrt(_dots(y, y))
        next_inv = np.tile(eye, (rows.size, 1, 1))
        if curved.any():
            rho = (1.0 / sy[curved])[:, None, None]
            s, y = s[curved], y[curved]
            left = eye - rho * (s[:, :, None] * y[:, None, :])
            next_inv[curved] = np.matmul(
                np.matmul(left, hess_inv[curved]), left.transpose(0, 2, 1)
            ) + rho * (s[:, :, None] * s[:, None, :])
        t, f, g, hess_inv = t_new, f_new, g_new, next_inv
        gnorm = np.sqrt(_dots(g, g))
        converged = gnorm < ML_GTOL
        # Persistent collision, no representable decrease along p, or three
        # stalled steps.  The summed cost resolves objective changes only
        # down to ~eps*f, so a vanishing-gradient stop below that resolution
        # counts as converged.
        settled = ~accepted | (stalled >= 3)
        converged |= settled & (gnorm <= 1e-9 * (1.0 + np.abs(f)))
        stop = converged | settled | (iterations >= ML_MAX_ITERS)


def ml_estimate(system: LinearSystem, params: PathLossParams, init) -> Estimate:
    """Quasi-Newton local minimizer of the RSSI log-likelihood cost of the
    system's RSSI matrix, from ``init``.

    BFGS with Armijo backtracking; steps landing within 1e-9 m of an anchor
    are damped.  Stops when the gradient norm drops below ``ML_GTOL`` or after
    ``ML_MAX_ITERS`` iterations (then converged=False).

    There is one BFGS loop, ``ml_fits``, which runs many trials in lock step
    and is bit-identical to running each alone; this call is a batch of one.
    ``ml_fits`` memoizes each fit on its trial's system under ``("ml",
    params, init)``, with init as a tuple of two floats, so this call returns
    the fit a batch left for the same inputs.
    """
    return _unwrap(ml_fits([system], params, [init]))


def lmds_estimate(system: LinearSystem, seed=None) -> Estimate:
    """Least-median-of-squares baseline.

    LS-solves random row subsets of the system and keeps the candidate
    position whose squared residuals against the system's ranges, over all
    anchors, have the smallest median (the first such candidate on a tie).
    There are ``LMDS_SUBSETS`` candidates of ``LMDS_SUBSET_SIZE`` rows each;
    a system with fewer rows is a ``DomainError``.  Subsets are drawn one
    ``rng.choice`` at a time, as many as candidates are still missing, and
    solved together by one ``_least_squares`` call; a rank-deficient subset
    is skipped and costs one of the 20 * ``LMDS_SUBSETS`` retries.  Walking
    each batch in draw order, the candidates kept and the retries spent are
    those of drawing and solving one subset at a time.
    """
    n_subsets, subset_size = LMDS_SUBSETS, LMDS_SUBSET_SIZE
    n = system.n_rows
    if subset_size > n:
        raise DomainError(f"LMDS_SUBSET_SIZE = {subset_size} exceeds the anchor count {n}")
    if system.ranges is None:
        raise DomainError(_NO_RANGES)
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
    offsets = sols[:, None, :2] - system.anchors
    residuals = (system.ranges - np.linalg.norm(offsets, axis=2)) ** 2
    best = sols[int(np.argmin(np.median(residuals, axis=1)))]
    return Estimate(position=best[:2], auxiliary=float(best[2]), iterations=produced)


def grad_desc_fits(systems, params: PathLossParams, max_iters: int = GRAD_DESC_MAX_ITERS) -> list:
    """Grad-Desc on T trials' systems in lock step, one row per trial, each
    from its anchors' centroid.  The systems must have one row count.
    Returns one entry per trial: its ``Estimate``, memoized on its system
    (see ``grad_desc_estimate``; a memoized trial is not run again), or, for
    a system without measurements, a ``DomainError``, and for anchors on one
    line, a ``DegenerateGeometryError``; an error is not memoized and does
    not stop the others."""
    if not isinstance(max_iters, numbers.Integral) or max_iters < 1:
        raise DomainError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    if len({system.n_rows for system in systems}) > 1:
        raise DomainError("the systems of a Grad-Desc batch must have one row count")
    key = ("grad_desc", params, max_iters)
    out = [
        DomainError(_NO_MEASUREMENTS) if system.measurements is None else system.memo.get(key)
        for system in systems
    ]
    # batch row -> trial
    rows = np.array([i for i, fit in enumerate(out) if fit is None], dtype=int)
    if not rows.size:
        return out
    n = systems[0].n_rows
    anchors = np.array([systems[i].anchors for i in rows])
    t = anchors.mean(axis=1)
    # The cost is symmetric about a line holding every anchor, so from their
    # centroid every step would stay on it.
    on_line = rank_deficient(np.linalg.svd(anchors - t[:, None, :], compute_uv=False))
    for i in rows[on_line]:
        out[i] = DegenerateGeometryError("Grad-Desc needs anchors off one line")
    rows, anchors, t = rows[~on_line], anchors[~on_line], t[~on_line]
    n_keep = max(3, math.ceil(GRAD_DESC_KEEP_FRACTION * n))
    gain = 2.0 * params.slope / n_keep
    rssi_mean = np.array([systems[i].measurements.mean(axis=1) for i in rows])
    # kept + row_start indexes the kept entries of the flattened (rows, N)
    # arrays: one np.take per gather, cheaper than np.take_along_axis
    row_start = np.arange(rows.size)[:, None] * n
    for iterations in range(1, max_iters + 1):
        if not rows.size:
            break
        diff, d2, model = _rssi_model(t[:, None, :], anchors, params)
        row_mean = rssi_mean - model
        order = np.argsort(np.abs(row_mean), axis=1, kind="stable")
        kept = np.sort(order[:, :n_keep], axis=1)
        flat = kept + row_start
        weight = row_mean.take(flat) / d2.take(flat)
        kept_diff = diff.reshape(-1, 2).take(flat, axis=0)
        t_new = t - GRAD_DESC_STEP * (gain * np.einsum("tk,tkj->tj", weight, kept_diff))
        # False for an inf or nan iterate too; such a row keeps its last t
        inside = np.hypot(t_new[:, 0], t_new[:, 1]) <= 1e6
        step_len = t_new - t
        stop = ~inside | (np.hypot(step_len[:, 0], step_len[:, 1]) < 1e-12)
        if iterations == max_iters:
            stop[:] = True
        if stop.any():
            for j in np.flatnonzero(stop):
                i = rows[j]
                systems[i].memo[key] = out[i] = Estimate(
                    position=t_new[j] if inside[j] else t[j],
                    eliminated=np.setdiff1d(np.arange(n), kept[j]),
                    iterations=iterations,
                    converged=bool(inside[j]),
                )
            go = ~stop
            t, rssi_mean, anchors, rows = t_new[go], rssi_mean[go], anchors[go], rows[go]
            row_start = row_start[: rows.size]
        else:
            t = t_new
    return out


def grad_desc_estimate(
    system: LinearSystem, params: PathLossParams, max_iters: int = GRAD_DESC_MAX_ITERS
) -> Estimate:
    """Constant-step gradient descent on the RSSI cost of the system's RSSI
    matrix with residual pruning, from the anchors' centroid.

    Each iteration keeps the ceil(``GRAD_DESC_KEEP_FRACTION`` * N) anchors
    (at least 3) with the smallest absolute mean RSSI residual at the
    current iterate and descends the mean squared residual over that subset
    by ``GRAD_DESC_STEP`` times its gradient.  The model is one value per
    anchor, so every step works on per-anchor means: anchor i's mean
    residual is its mean RSSI minus the model, and the gradient of its
    packets' summed squared residuals is P times that of the mean.

    Grad-Desc is a fixed-budget baseline: it stops when a step moves the
    iterate by less than 1e-12 m or after ``max_iters`` steps, and stopping at
    ``max_iters`` returns ``converged=True`` by design: on the benchmark's
    coord-fixed and uncoord-fixed blocks at seed 20260810, 76 % and 81 % of
    calls use all 200 steps.  Only an iterate that leaves the 1e6 m box, or
    turns inf or nan, is non-converged; the estimate is then the last
    iterate inside the box.  Anchors on one line (``rank_deficient`` on
    their centred coordinates) raise ``DegenerateGeometryError``.

    There is one Grad-Desc loop, ``grad_desc_fits``, which steps many trials
    in lock step, one row per trial, each stopping at its own step (a step
    is a handful of numpy calls on vectors of N entries, so its cost is call
    overhead); this call is a batch of one.  ``grad_desc_fits`` memoizes each
    fit on its trial's system, which fixes both the anchors and the RSSI,
    under ``("grad_desc", params, max_iters)``, so this call returns the fit
    a batch left for the same inputs.  A batch is bit-identical to running
    each trial alone.
    """
    return _unwrap(grad_desc_fits([system], params, max_iters))
