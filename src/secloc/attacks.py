"""Network topologies and the RSSI measurement matrix under attack.

Anchors broadcast packets at a fixed power; a target collects P packets per
anchor.  Honest anchors follow the path-loss channel.  Malicious anchors
either randomize their transmit power independently per packet
(uncoordinated) or jointly rescale it so their apparent ranges intersect at a
chosen decoy position (coordinated).  All randomness is seeded and
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import PathLossParams, mean_rssi
from .exceptions import ConfigError, DomainError

ATTACK_KINDS = ("none", "uncoordinated", "coordinated")
PLACEMENT_KINDS = ("anywhere", "within_radius", "beyond_radius")
# Closest a random anchor may lie to the target (m): keeps the path loss away
# from d = 0, and rejects ~0.03% of draws on a 100 m area, so no result moves.
MIN_SEPARATION = 1.0


@dataclass(frozen=True)
class Topology:
    """Anchor positions, the true target position, and the malicious labels.

    Indices are 0-based.  At least 3 anchors, not all collinear, and no anchor
    may coincide with the target.
    """

    anchors: np.ndarray
    target: np.ndarray
    malicious: frozenset = frozenset()

    def __post_init__(self) -> None:
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        target = np.asarray(self.target, dtype=float).reshape(2)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "malicious", frozenset(int(i) for i in self.malicious))
        if anchors.ndim != 2 or anchors.shape[1] != 2:
            raise ConfigError("anchors must be an (N, 2) array")
        if not np.all(np.isfinite(anchors)) or not np.all(np.isfinite(target)):
            raise ConfigError("positions must be finite")
        n = anchors.shape[0]
        if n < 3:
            raise ConfigError(f"need at least 3 anchors, got {n}")
        if any(i < 0 or i >= n for i in self.malicious):
            raise ConfigError("malicious indices out of range")
        if np.any(np.linalg.norm(anchors - target, axis=1) == 0):
            raise ConfigError("an anchor coincides with the target")
        svals = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        if svals[1] <= 1e-9 * max(svals[0], 1.0):
            raise ConfigError("anchors are collinear")

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    def distances(self) -> np.ndarray:
        """Euclidean distance from each anchor to the target."""
        return np.linalg.norm(self.anchors - self.target, axis=1)

    def malicious_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_anchors, dtype=bool)
        mask[sorted(self.malicious)] = True
        return mask

    def with_malicious(self, indices) -> "Topology":
        """Same geometry with a different malicious label set."""
        return replace(self, malicious=frozenset(int(i) for i in indices))


@dataclass(frozen=True)
class AttackSpec:
    """What the malicious anchors do: nothing (kind ``none``, no fields),
    per-packet power jitter of standard deviation ``sigma_att`` >= 0 dB and no
    ``t_att`` (``uncoordinated``), or a rescaling that makes their ranges meet
    at a finite ``t_att``, with no ``sigma_att`` (``coordinated``).  Every
    config builds one at load, so its attack keys obey this rule."""

    kind: str = "none"
    sigma_att: float | None = None
    t_att: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.kind == "uncoordinated":
            if self.sigma_att is None or not math.isfinite(self.sigma_att) or self.sigma_att < 0:
                raise ConfigError("uncoordinated attack needs sigma_att >= 0")
            if self.t_att is not None:
                raise ConfigError("t_att is only valid for a coordinated attack")
        elif self.kind == "coordinated":
            if self.t_att is None:
                raise ConfigError("coordinated attack needs t_att")
            if self.sigma_att is not None:
                raise ConfigError("sigma_att is only valid for an uncoordinated attack")
            t_att = np.asarray(self.t_att, dtype=float).reshape(2)
            if not np.all(np.isfinite(t_att)):
                raise ConfigError("t_att must be finite")
            object.__setattr__(self, "t_att", t_att)
        elif self.sigma_att is not None or self.t_att is not None:
            raise ConfigError("attack kind 'none' takes no parameters")


@dataclass(frozen=True)
class MeasurementMatrix:
    """N x P grid of received powers (dBm), one row per anchor."""

    rssi: np.ndarray

    def __post_init__(self) -> None:
        rssi = np.atleast_2d(np.asarray(self.rssi, dtype=float))
        object.__setattr__(self, "rssi", rssi)
        if rssi.shape[1] < 1:
            raise ConfigError("need at least one packet")
        if not np.all(np.isfinite(rssi)):
            raise ConfigError("RSSI entries must be finite")

    @property
    def n_anchors(self) -> int:
        return self.rssi.shape[0]

    @property
    def packets(self) -> int:
        return self.rssi.shape[1]


def chi_factor(anchors, target, t_att):
    """Range-scaling factor ||t_att - a|| / ||t - a|| applied by a coordinated
    attacker at each anchor position ``a``: a float for one (2,) position, an
    array for an (N, 2) array of them."""
    a = np.asarray(anchors, dtype=float)
    denom = np.linalg.norm(a - target, axis=-1)
    if np.any(denom == 0.0):
        raise DomainError("anchor coincides with the target")
    chi = np.linalg.norm(a - t_att, axis=-1) / denom
    return float(chi) if chi.ndim == 0 else chi


def simulate_measurements(
    topology: Topology,
    params: PathLossParams,
    attack: AttackSpec,
    packets: int,
    seed,
) -> MeasurementMatrix:
    """Draw the N x P RSSI matrix for one trial.

    Honest rows are mean_rssi(d_i) + N(0, sigma^2) noise per packet.  Under an
    uncoordinated attack each malicious row gains independent per-packet
    N(0, sigma_att^2) jitter; under a coordinated attack the malicious mean is
    shifted so the noise-free row inverts to the distance ||t_att - a_i||.
    The same seed yields a bit-identical matrix.
    """
    if packets < 1:
        raise ConfigError("packets must be >= 1")
    rng = np.random.default_rng(seed)
    mean = mean_rssi(params, topology.distances())
    mal = sorted(topology.malicious)
    if attack.kind == "coordinated" and mal:
        if np.any(np.linalg.norm(topology.anchors - attack.t_att, axis=1) == 0.0):
            raise ConfigError("t_att coincides with an anchor position")
        chi = chi_factor(topology.anchors[mal], topology.target, attack.t_att)
        mean[mal] -= 10.0 * params.n * np.log10(chi)
    rssi = mean[:, None] + rng.normal(0.0, params.sigma, size=(topology.n_anchors, packets))
    if attack.kind == "uncoordinated" and mal:
        rssi[mal] += rng.normal(0.0, attack.sigma_att, size=(len(mal), packets))
    return MeasurementMatrix(rssi=rssi)


@dataclass(frozen=True)
class Placement:
    """Spatial constraint on which anchors may be selected as malicious."""

    kind: str = "anywhere"
    radius: float = 0.0
    center: tuple | None = None  # None: use the topology target

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ConfigError(f"unknown placement kind {self.kind!r}")
        if self.kind != "anywhere" and self.radius <= 0:
            raise ConfigError("radius-constrained placement needs radius > 0")

    def eligible(self, anchors: np.ndarray, default_center) -> np.ndarray:
        """Indices of anchors satisfying the constraint."""
        if self.kind == "anywhere":
            return np.arange(anchors.shape[0])
        center = np.asarray(
            self.center if self.center is not None else default_center, dtype=float
        ).reshape(2)
        dist = np.linalg.norm(anchors - center, axis=1)
        if self.kind == "within_radius":
            return np.flatnonzero(dist <= self.radius)
        return np.flatnonzero(dist > self.radius)


def select_malicious(n_anchors: int, fraction: float, seed, eligible=None) -> frozenset:
    """Pick round(fraction * N) distinct anchor indices uniformly at random
    among ``eligible`` (all anchors when None).  Deterministic under a seed."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"malicious fraction must be in [0, 1], got {fraction}")
    count = int(math.floor(fraction * n_anchors + 0.5))
    pool = np.arange(n_anchors) if eligible is None else np.asarray(eligible, dtype=int)
    if count > pool.size:
        raise ConfigError(
            f"placement constraint leaves {pool.size} eligible anchors, need {count}"
        )
    if count == 0:
        return frozenset()
    rng = np.random.default_rng(seed)
    picked = rng.choice(pool, size=count, replace=False)
    return frozenset(int(i) for i in picked)


def random_topology(n_anchors: int, area: float, target=None, seed=None) -> Topology:
    """Anchors drawn uniformly on [0, area]^2, rejecting draws closer than
    ``MIN_SEPARATION`` to the target (defaults to the area center)."""
    if not (math.isfinite(area) and area > 0):
        raise ConfigError("area must be positive and finite")
    t = (
        np.asarray(target, dtype=float).reshape(2)
        if target is not None
        else np.array([area / 2.0, area / 2.0])
    )
    if not np.all(np.isfinite(t)):
        raise ConfigError("target must be finite")  # never clears the separation test
    rng = np.random.default_rng(seed)
    anchors = np.empty((n_anchors, 2))
    filled = 0
    while filled < n_anchors:
        cand = rng.uniform(0.0, area, size=(n_anchors - filled, 2))
        ok = np.linalg.norm(cand - t, axis=1) >= MIN_SEPARATION
        kept = cand[ok]
        anchors[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    return Topology(anchors=anchors, target=t)


def parse_topology(text: str) -> Topology:
    """Parse the plain-text topology format.

    One line per anchor, "x y" with an optional trailing literal "m" marking
    it malicious, plus exactly one "target x y" line.  "#" starts a comment.
    """
    anchors: list[list[float]] = []
    malicious: set[int] = set()
    target = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0].lower() == "target":
                if target is not None:
                    raise ConfigError(f"line {lineno}: duplicate target line")
                if len(tokens) != 3:
                    raise ConfigError(f"line {lineno}: target needs two coordinates")
                target = [float(tokens[1]), float(tokens[2])]
            else:
                if len(tokens) == 3 and tokens[2].lower() == "m":
                    malicious.add(len(anchors))
                elif len(tokens) != 2:
                    raise ConfigError(f"line {lineno}: expected 'x y [m]'")
                anchors.append([float(tokens[0]), float(tokens[1])])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad number ({exc})") from exc
    if target is None:
        raise ConfigError("topology file has no target line")
    return Topology(anchors=np.array(anchors), target=np.array(target), malicious=malicious)


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())
