"""Shared independent oracles and instance builders for the test suite.

Everything here deliberately avoids the library's own solution paths: the l1
oracle is a linear program, the information-matrix oracle simulates score
vectors, and the clustering oracle scans all sorted splits.  The exceptions
are the reference loops ``admm_l1_plane_reference``, ``grad_desc_reference``,
``ml_reference`` and ``lmds_reference``: the plain, one-trial-at-a-time
forms of the library's iterative estimators, kept to pin the
iteration-for-iteration behaviour of their faster versions.
"""

import math

import numpy as np
from scipy.optimize import linprog

from secloc import (
    AttackSpec,
    DegenerateGeometryError,
    DomainError,
    Estimate,
    PathLossParams,
    Topology,
    build_linear_system,
    distance_from_rssi,
    random_topology,
    select_malicious,
    simulate_measurements,
)
from secloc import planefit
from secloc.channel import mean_rssi_sq
from secloc.estimators import COND_LIMIT, ML_GTOL

LN10 = np.log(10.0)


def l1_oracle(A, b):
    """Minimize ||A u - b||_1 as the LP: min 1^T s, -s <= A u - b <= s."""
    n, k = A.shape
    c = np.concatenate([np.zeros(k), np.ones(n)])
    A_ub = np.block([[A, -np.eye(n)], [-A, -np.eye(n)]])
    b_ub = np.concatenate([b, -b])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (k + n), method="highs")
    assert res.status == 0, res.message
    return res.x[:k], res.fun


def admm_l1_plane_reference(system):
    """The ADMM l1 plane fit as a plain loop: a fresh least-squares solve
    with R every sweep and no memo, stopped by planefit's ADMM_RHO,
    ADMM_CONV_TOL and ADMM_MAX_ITERS as they are when it is called (so a
    test that patches them gets the loop they make).  Returns the fit as the
    library does, an ``Estimate`` with position (alpha, beta) and auxiliary
    gamma."""
    A, b = system.A, system.b
    q, r = np.linalg.qr(A)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= svals[0] / COND_LIMIT:
        raise DegenerateGeometryError("plane fit needs full-rank geometry")
    rho = planefit.ADMM_RHO
    shrink = 1.0 / rho
    z = np.zeros(system.n_rows)
    y = np.zeros(system.n_rows)
    u = np.zeros(3)
    prev_norm = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, planefit.ADMM_MAX_ITERS + 1):
        u = np.linalg.solve(r, q.T @ (b + z - y / rho))
        au = A @ u
        v = au - b + y / rho
        z = np.sign(v) * np.maximum(np.abs(v) - shrink, 0.0)  # soft threshold
        primal = au - z - b
        y += rho * primal
        z_norm = float(np.abs(z).sum())
        if abs(z_norm - prev_norm) <= planefit.ADMM_CONV_TOL:
            converged = True
            break
        prev_norm = z_norm
    if not np.all(np.isfinite(u)):
        raise DomainError("plane coefficients must be finite")
    return Estimate(u[:2], float(u[2]), iterations=iterations, converged=converged)


def _rssi_residuals(t, anchors, rssi, params):
    diff = t - anchors
    d2 = np.maximum(np.einsum("ij,ij->i", diff, diff), 1e-24)
    err = rssi - (params.p0 - 5.0 * params.n * np.log10(d2))[:, None]
    return diff, d2, err


def grad_desc_reference(measurements, anchors, params, step=0.4, max_iters=200,
                        keep_fraction=0.5, init=None, callback=None):
    """Grad-Desc as a plain loop: every step forms the full N x P residual
    matrix and ranks anchors by its row means.  Unlike the library, it also
    takes a start point ``init`` (default: the anchors' centroid) and
    ``callback(iteration, position, kept_indices, cost)``, called once per
    step with the mean squared residual over the kept packets, for the
    tests of the iteration itself."""
    if step <= 0:
        raise DomainError("step must be positive")
    if not 0.0 < keep_fraction <= 1.0:
        raise DomainError("keep_fraction must be in (0, 1]")
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    rssi = measurements
    n, packets = rssi.shape
    n_keep = max(3, math.ceil(keep_fraction * n))
    t = anchors.mean(axis=0) if init is None else np.asarray(init, dtype=float).reshape(2).copy()
    coef = 10.0 * params.n / LN10
    kept = np.arange(n)
    converged = True
    iterations = 0
    for iterations in range(1, max_iters + 1):
        diff, d2, err = _rssi_residuals(t, anchors, rssi, params)
        row_mean = err.mean(axis=1)
        order = np.argsort(np.abs(row_mean), kind="stable")
        kept = np.sort(order[:n_keep])
        scale = 1.0 / (n_keep * packets)
        if callback is not None:
            cost = float(np.sum(err[kept] ** 2)) * scale
            callback(iterations, t.copy(), kept.copy(), cost)
        grad = 2.0 * coef * scale * ((err[kept].sum(axis=1) / d2[kept]) @ diff[kept])
        t_new = t - step * grad
        if not np.all(np.isfinite(t_new)) or np.linalg.norm(t_new) > 1e6:
            converged = False
            break
        moved = float(np.linalg.norm(t_new - t))
        t = t_new
        if moved < 1e-12:
            break
    eliminated = frozenset(int(i) for i in np.setdiff1d(np.arange(n), kept))
    return Estimate(
        position=t, eliminated=eliminated, iterations=iterations, converged=converged
    )


def _ml_cost_grad(t, anchors, rssi, params):
    diff = t - anchors
    d2 = np.maximum(np.einsum("...j,...j->...", diff, diff), 1e-24)
    err = rssi - mean_rssi_sq(params, d2)[:, None]
    cost = float(np.sum(err * err))
    grad = 2.0 * params.slope * ((err.sum(axis=1) / d2) @ diff)
    return cost, grad


def ml_reference(system, params, init, max_iters=500):
    """ML's BFGS as a plain loop on one trial: the library's per-trial loop
    before it ran trials in lock step, every dot product, matrix product and
    sum on the kernel and core shape the batch must reproduce.  ``max_iters``
    stands for the library's ``ML_MAX_ITERS``."""
    rssi = system.measurements
    anchors = system.anchors
    t = np.asarray(init, dtype=float).reshape(2).copy()
    if not np.all(np.isfinite(t)):
        raise DomainError("init must be finite")
    f, g = _ml_cost_grad(t, anchors, rssi, params)
    hess_inv = np.eye(2)
    iterations = 0
    stalled = 0
    converged = float(np.linalg.norm(g)) < ML_GTOL

    def at_noise_floor() -> bool:
        return float(np.linalg.norm(g)) <= 1e-9 * (1.0 + abs(f))

    while not converged and iterations < max_iters:
        iterations += 1
        p = -hess_inv @ g
        if p @ g >= 0.0:
            hess_inv = np.eye(2)
            p = -g
        alpha, accepted = 1.0, False
        for _ in range(60):
            t_new = t + alpha * p
            if np.min(np.linalg.norm(t_new - anchors, axis=1)) < 1e-9:
                alpha *= 0.5
                continue
            f_new, g_new = _ml_cost_grad(t_new, anchors, rssi, params)
            if f_new <= f + 1e-4 * alpha * float(g @ p):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
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


def _solve_rows(A, b):
    sol, _, rank, svals = np.linalg.lstsq(A, b, rcond=None)
    if rank < 3 or svals[-1] <= svals[0] / COND_LIMIT:
        raise DegenerateGeometryError("anchor geometry is rank deficient")
    return sol


def lmds_reference(system, anchors, n_subsets=20, subset_size=4, seed=None):
    """LMdS as a plain loop: one draw, one least-squares solve and one
    median per candidate, keeping the first candidate with the smallest
    median."""
    if subset_size < 3:
        raise DomainError("subset_size must be at least 3")
    if n_subsets < 1:
        raise DomainError("n_subsets must be at least 1")
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    if n != system.n_rows:
        raise DomainError("anchor and system row counts differ")
    if subset_size > n:
        raise DomainError("subset_size exceeds the anchor count")
    ranges = system.ranges
    rng = np.random.default_rng(seed)
    best_median = math.inf
    best = None
    best_aux = 0.0
    produced = 0
    retries = 20 * n_subsets
    while produced < n_subsets and retries >= 0:
        idx = rng.choice(n, size=subset_size, replace=False)
        try:
            sol = _solve_rows(system.A[idx], system.b[idx])
        except DegenerateGeometryError:
            retries -= 1
            continue
        produced += 1
        residuals = (ranges - np.linalg.norm(sol[:2] - anchors, axis=1)) ** 2
        med = float(np.median(residuals))
        if med < best_median:
            best_median = med
            best = sol[:2]
            best_aux = float(sol[2])
    if best is None:
        raise DegenerateGeometryError("every candidate subset was rank deficient")
    return Estimate(position=best, auxiliary=best_aux, iterations=produced)


def empirical_fim(topology, params, attack_kind, sigma_att=0.0, t_att=None,
                  packets=1, draws=200_000, seed=0, chunk=100_000):
    """Covariance of the log-likelihood gradient at the true position,
    estimated from simulated measurement noise.

    The score is linear in the per-anchor noise sum, so the P packets of one
    draw collapse into a single N(0, P*sigma_i^2) variable exactly.
    """
    rng = np.random.default_rng(seed)
    mask = topology.malicious_mask()
    coef = 10.0 * params.n / LN10
    diff = topology.target - topology.anchors
    d2 = np.einsum("ij,ij->i", diff, diff)
    direction = diff / d2[:, None]
    sig2 = np.full(topology.n_anchors, params.sigma**2)
    if attack_kind == "uncoordinated":
        sig2[mask] += sigma_att**2
    elif attack_kind == "coordinated" and mask.any():
        diff_att = (np.asarray(t_att, dtype=float) - topology.anchors)[mask]
        d2_att = np.einsum("ij,ij->i", diff_att, diff_att)
        direction[mask] = diff_att / d2_att[:, None]
    acc = np.zeros((2, 2))
    total = 0
    while total < draws:
        m = min(chunk, draws - total)
        eta = rng.normal(0.0, np.sqrt(packets * sig2), size=(m, topology.n_anchors))
        score = -coef * (eta / sig2) @ direction
        acc += score.T @ score
        total += m
    return acc / draws


def best_split_1d(values):
    """Optimal 2-partition of scalars by within-cluster sum of squares,
    found by scanning every split of the sorted values.  Returns labels with
    0 for the lower-mean cluster."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    best_cost, best_k = np.inf, 1
    for k in range(1, v.size):
        lo, hi = sv[:k], sv[k:]
        cost = ((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum()
        if cost < best_cost:
            best_cost, best_k = cost, k
    labels = np.zeros(v.size, dtype=int)
    labels[order[best_k:]] = 1
    return labels


def coordinated_system(rng, n_anchors=29, fraction=0.28, shift=25.0, packets=10,
                       sigma=0.0):
    """Random topology under a coordinated attack aimed shift*(1,1) away from
    the target; returns (LinearSystem, topology, t_att)."""
    params = PathLossParams(-10.0, 4.0, sigma)
    topo = random_topology(n_anchors, 100.0, seed=rng)
    topo = topo.with_malicious(select_malicious(n_anchors, fraction, seed=rng))
    t_att = topo.target + shift
    meas = simulate_measurements(
        topo, params, AttackSpec("coordinated", t_att=t_att), packets, seed=rng
    )
    mean_d = distance_from_rssi(params, meas.mean(axis=1))
    return build_linear_system(topo.anchors, mean_d), topo, t_att


def two_strip_plant(rng):
    """Coordinated plant whose 8 malicious anchors sit spread along two
    strips parallel to the bisector of (target, t_att), giving every attacked
    row a large, comparable plane displacement.  The elimination step can
    then recover the malicious set exactly."""
    target = np.array([50.0, 50.0])
    t_att = target + 25.0
    mal_pos = np.array(
        [
            [0.0, 80.0], [25.0, 50.0], [52.0, 20.0], [78.0, 0.0],
            [75.0, 95.0], [92.0, 80.0], [100.0, 68.0], [85.0, 88.0],
        ]
    )
    clean = rng.uniform(0.0, 100.0, (21, 2))
    while np.any(np.linalg.norm(clean - target, axis=1) < 1.0):
        clean = rng.uniform(0.0, 100.0, (21, 2))
    anchors = np.vstack([clean, mal_pos])
    perm = rng.permutation(29)
    anchors = anchors[perm]
    malicious = frozenset(int(i) for i in np.flatnonzero(perm >= 21))
    topo = Topology(anchors=anchors, target=target, malicious=malicious)
    params = PathLossParams(-10.0, 4.0, 0.0)
    meas = simulate_measurements(
        topo, params, AttackSpec("coordinated", t_att=t_att), 10, seed=rng
    )
    mean_d = distance_from_rssi(params, meas.mean(axis=1))
    return build_linear_system(topo.anchors, mean_d), topo


def gross_outlier_system(rng, n_anchors=29, fraction=0.28):
    """Clean squared-range system with a fraction of ranges grossly scaled."""
    topo = random_topology(n_anchors, 100.0, seed=rng)
    d = topo.distances().copy()
    n_out = int(np.floor(fraction * n_anchors + 0.5))
    idx = rng.choice(n_anchors, size=n_out, replace=False)
    d[idx] *= rng.uniform(1.5, 3.0, n_out)
    return build_linear_system(topo.anchors, d), topo, idx


def prepare_reference(config, index, base):
    """One trial's (anchors, target, malicious, A, b, ranges, rssi) by the
    one-trial recipe in plain numpy: its layout (or ``base``), labels, RSSI
    draws, mean-RSSI ranges and (A, b), each drawn from the trial's own
    streams in the order the harness draws them.  The reference for
    ``harness.prepare_trials``, which stacks all but the draws."""

    def stream(k):
        seed = np.random.SeedSequence(config.master_seed, spawn_key=(0, index, k))
        return np.random.default_rng(seed)

    anchors, target, malicious = base.anchors, base.target, base.malicious
    if config.topology_per_trial:
        rng, target = stream(0), np.asarray(config.target, dtype=float)
        anchors = np.empty((0, 2))
        while len(anchors) < config.n_anchors:
            cand = rng.uniform(0.0, config.area, size=(config.n_anchors - len(anchors), 2))
            anchors = np.vstack([anchors, cand[np.linalg.norm(cand - target, axis=1) >= 1.0]])
    n = len(anchors)
    if config.topology_file is None or config.malicious_fraction != 0.0:
        placement = config.placement
        dist = np.linalg.norm(anchors - target, axis=1)  # from the attacked node
        pool = {
            "anywhere": np.arange(n),
            "within_radius": np.flatnonzero(dist <= placement.radius),
            "beyond_radius": np.flatnonzero(dist > placement.radius),
        }[placement.kind]
        count = int(math.floor(config.malicious_fraction * n + 0.5))
        malicious = frozenset()
        if count:
            malicious = frozenset(int(i) for i in stream(1).choice(pool, size=count, replace=False))
    p0, slope_db, attack = config.channel.p0, 10.0 * config.channel.n, config.attack
    rng, mal = stream(2), sorted(malicious)
    mean = p0 - slope_db * np.log10(np.linalg.norm(anchors - target, axis=1))
    if attack.kind == "coordinated" and mal:
        decoy_ranges = np.linalg.norm(anchors - attack.decoy(target), axis=1)
        mean[mal] = p0 - slope_db * np.log10(decoy_ranges[mal])
    rssi = mean[:, None] + rng.normal(0.0, config.channel.sigma, size=(n, config.packets))
    if attack.kind == "uncoordinated" and mal:
        rssi[mal] += rng.normal(0.0, attack.sigma_att, size=(len(mal), config.packets))
    ranges = 10.0 ** ((p0 - rssi.mean(axis=1)) / slope_db)
    A = np.column_stack([-2.0 * anchors[:, 0], -2.0 * anchors[:, 1], np.ones(n)])
    b = ranges**2 - anchors[:, 0] ** 2 - anchors[:, 1] ** 2
    return anchors, target, malicious, A, b, ranges, rssi
