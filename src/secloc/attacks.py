"""Network topologies and the RSSI measurements under attack.

Anchors broadcast packets at a fixed power; a target collects P packets per
anchor.  Honest anchors follow the path-loss channel.  Malicious anchors
either randomize their transmit power independently per packet
(uncoordinated) or jointly rescale it so their apparent ranges intersect at a
chosen decoy position (coordinated).  Which anchors may be malicious is a
``Placement``: any, or those within or beyond a radius of the target they
attack.  All randomness is seeded and reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import PathLossParams, mean_rssi
from .exceptions import ConfigError

ATTACK_KINDS = ("none", "uncoordinated", "coordinated")
PLACEMENT_KINDS = ("anywhere", "within_radius", "beyond_radius")
# Closest a random anchor may lie to the target (m): keeps the path loss away
# from d = 0, and rejects ~0.03% of draws on a 100 m area, so no result moves.
MIN_SEPARATION = 1.0


@dataclass(frozen=True, eq=False)
class Topology:
    """Anchor positions, the true target position, and the malicious labels.

    Indices are 0-based.  At least 3 anchors, not all collinear, and every
    anchor at a positive, finite distance from the target.  Topologies compare
    by identity.
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
        _check_geometry(anchors[None], target[None], self.malicious)

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
        """Same geometry with a different malicious label set.  The new
        topology shares this one's checked anchors and target, so only the
        labels are checked again."""
        malicious = frozenset(int(i) for i in indices)
        if any(i < 0 or i >= self.n_anchors for i in malicious):
            raise ConfigError("malicious indices out of range")
        return _checked(self.anchors, self.target, malicious)


def _check_geometry(anchors: np.ndarray, targets: np.ndarray, malicious=frozenset()) -> None:
    """The checks of ``Topology`` on a stack of T layouts, (T, N, 2) anchors
    and their (T, 2) targets, with one label set for all: positions finite,
    at least 3 anchors, labels in range, every anchor at a positive, finite
    distance from its target, and each layout's anchors off one line.  The
    first check that fails raises its ``ConfigError``."""
    if not np.all(np.isfinite(anchors)) or not np.all(np.isfinite(targets)):
        raise ConfigError("positions must be finite")
    n = anchors.shape[1]
    if n < 3:
        raise ConfigError(f"need at least 3 anchors, got {n}")
    if any(i < 0 or i >= n for i in malicious):
        raise ConfigError("malicious indices out of range")
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(anchors - targets[:, None, :], axis=-1)
    if not np.all(np.isfinite(distances)):
        raise ConfigError("the anchors lie so far from the target that a distance overflows")
    if np.any(distances == 0):
        raise ConfigError("an anchor coincides with the target")
    svals = np.linalg.svd(anchors - anchors.mean(axis=1, keepdims=True), compute_uv=False)
    if np.any(svals[:, 1] <= 1e-9 * np.maximum(svals[:, 0], 1.0)):
        raise ConfigError("anchors are collinear")


def _checked(anchors: np.ndarray, target: np.ndarray, malicious=frozenset()) -> Topology:
    """A ``Topology`` on geometry ``_check_geometry`` passed, with labels
    already in range, made without checking again."""
    topology = object.__new__(Topology)
    object.__setattr__(topology, "anchors", anchors)
    object.__setattr__(topology, "target", target)
    object.__setattr__(topology, "malicious", malicious)
    return topology


@dataclass(frozen=True)
class AttackSpec:
    """What the malicious anchors do, and every rule its fields obey.

    Kind ``none`` takes no other field.  ``uncoordinated`` is per-packet power
    jitter of standard deviation ``sigma_att`` >= 0 dB, and takes no decoy.
    ``coordinated`` rescales the malicious anchors' power so that their
    ranges meet at a decoy, given as exactly one of a fixed, finite
    position ``t_att`` and a finite ``distance`` from the target (the decoy
    then lies that far from it, diagonally: see ``decoy``), and takes no
    ``sigma_att``.  The config's ``attack`` section is one, so its
    ``attack.*`` keys obey these rules.  ``t_att`` is kept as a pair of
    floats, so specs compare and print by value."""

    kind: str = "none"
    sigma_att: float | None = None
    t_att: tuple | None = None
    distance: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        decoys = (self.t_att is not None) + (self.distance is not None)
        if self.kind == "uncoordinated":
            if self.sigma_att is None or not math.isfinite(self.sigma_att) or self.sigma_att < 0:
                raise ConfigError("uncoordinated attack needs sigma_att >= 0")
            if decoys:
                raise ConfigError("t_att and distance are only valid for a coordinated attack")
        elif self.kind == "coordinated":
            if decoys != 1:
                raise ConfigError("coordinated attack takes exactly one of t_att and distance")
            if self.sigma_att is not None:
                raise ConfigError("sigma_att is only valid for an uncoordinated attack")
            if self.t_att is not None:
                if np.shape(self.t_att) != (2,) or not np.all(np.isfinite(self.t_att)):
                    raise ConfigError(f"t_att must be two finite coordinates, got {self.t_att!r}")
                object.__setattr__(self, "t_att", tuple(float(v) for v in self.t_att))
            elif not math.isfinite(self.distance):
                raise ConfigError(f"attack distance must be finite, got {self.distance!r}")
        elif self.sigma_att is not None or decoys:
            raise ConfigError("attack kind 'none' takes no parameters")

    def decoy(self, target) -> np.ndarray:
        """The decoy of a coordinated attack on a node at ``target``: t_att,
        or the target shifted by distance / sqrt(2) along both axes.  A
        (T, 2) stack of targets gives T decoys."""
        if self.distance is not None:
            return np.asarray(target, dtype=float) + self.distance / math.sqrt(2.0)
        return np.asarray(self.t_att, dtype=float)

    def decoy_ranges(self, anchors, target) -> np.ndarray:
        """Each anchor's distance to the decoy of this coordinated attack on
        a node at ``target``: (N,) ranges of (N, 2) anchors, or (T, N) of a
        stack of T layouts, (T, N, 2) anchors and (T, 2) targets.  A decoy
        on an anchor, or so far away that a distance overflows, is a
        ``ConfigError``.  The simulation reads the ranges, and
        ``harness.trial_topologies`` checks them for every trial of every
        subcommand."""
        decoy = np.asarray(self.decoy(target))[..., None, :]
        with np.errstate(over="ignore"):
            ranges = np.linalg.norm(np.asarray(anchors) - decoy, axis=-1)
        if not np.all(np.isfinite(ranges)):
            raise ConfigError("the decoy lies so far from the anchors that its ranges overflow")
        if np.any(ranges == 0.0):
            raise ConfigError("the decoy coincides with an anchor position")
        return ranges


def simulate_rssi_stack(
    topologies, params: PathLossParams, attack: AttackSpec, packets: int, seeds
) -> np.ndarray:
    """The (T, N, P) RSSI arrays of T trials with one anchor count, trial j
    on ``topologies[j]`` with its noise drawn from ``seeds[j]``.

    Each trial draws from its own generator what ``simulate_measurements``
    draws, in the same order: its N x P packet noise, then, under an
    uncoordinated attack, its malicious rows' jitter.  The path-loss means,
    the decoy ranges and the checks run once on the stack, element for
    element as on one trial, so trial j's array is bit-identical to
    ``simulate_measurements(topologies[j], ..., seeds[j])``.  A failing
    check raises for the stack (see ``simulate_measurements`` for which).
    """
    if packets < 1:
        raise ConfigError("packets must be >= 1")
    anchors = np.array([topology.anchors for topology in topologies])
    targets = np.array([topology.target for topology in topologies])
    malicious = np.array([topology.malicious_mask() for topology in topologies])
    mean = mean_rssi(params, np.linalg.norm(anchors - targets[:, None, :], axis=-1))
    attacked = malicious.any(axis=1)
    if attack.kind == "coordinated" and attacked.any():
        ranges = attack.decoy_ranges(anchors[attacked], targets[attacked])
        mean[malicious] = mean_rssi(params, ranges[malicious[attacked]])
    rssi = np.empty(malicious.shape + (packets,))
    jitter = []
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rssi[j] = rng.normal(0.0, params.sigma, size=rssi.shape[1:])
        if attack.kind == "uncoordinated" and attacked[j]:
            jitter.append(rng.normal(0.0, attack.sigma_att, size=(malicious[j].sum(), packets)))
    rssi += mean[..., None]  # the noise plus the mean: addition commutes bit for bit
    if jitter:
        rssi[malicious] += np.concatenate(jitter)
    if not np.isfinite(rssi).all():
        raise ConfigError("RSSI needs finite entries")
    return rssi


def simulate_measurements(
    topology: Topology,
    params: PathLossParams,
    attack: AttackSpec,
    packets: int,
    seed,
) -> np.ndarray:
    """Draw the (N, P) RSSI array, in dBm, of one trial, a stack of one of
    ``simulate_rssi_stack``.

    Honest rows are mean_rssi(d_i) + N(0, sigma^2) noise per packet.  Under an
    uncoordinated attack each malicious row gains independent per-packet
    N(0, sigma_att^2) jitter; under a coordinated attack the malicious mean is
    mean_rssi at the decoy range ||attack.decoy(target) - a_i||, so the
    noise-free row inverts to that distance; a decoy on an anchor, or so far
    away that its ranges overflow, is a ``ConfigError``
    (``AttackSpec.decoy_ranges``), as are fewer than one packet and an RSSI
    that is not finite.  The same seed yields a bit-identical array.
    """
    return simulate_rssi_stack([topology], params, attack, packets, [seed])[0]


@dataclass(frozen=True)
class Placement:
    """Which anchors of a trial may be made malicious: any (``anywhere``), or
    those within, or beyond, ``radius`` of the trial's target, the node the
    malicious anchors attack."""

    kind: str = "anywhere"
    radius: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ConfigError(f"unknown placement kind {self.kind!r}")
        if not math.isfinite(self.radius):
            raise ConfigError(f"placement radius must be finite, got {self.radius!r}")
        if self.kind != "anywhere" and self.radius <= 0:
            raise ConfigError("radius-constrained placement needs radius > 0")

    def eligible(self, topology: Topology) -> np.ndarray:
        """Indices of the topology's anchors the constraint admits."""
        if self.kind == "anywhere":
            return np.arange(topology.n_anchors)
        dist = topology.distances()
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


def random_topologies(n_anchors: int, area: float, seeds, target=None) -> list:
    """One random layout per seed, each drawn from its own seed as
    ``random_topology`` draws it: anchors uniform on [0, area]^2, draws
    closer than ``MIN_SEPARATION`` to the target (defaults to the area
    center) rejected and drawn again.  The checks of ``Topology`` run once
    on the stacked layouts, and each ``Topology`` is made without checking
    again.  An area with no point that far from the target is a
    ``ConfigError``, as are an anchor count that is not an integer of at
    least 3 and an area so large that a distance overflows."""
    if not isinstance(n_anchors, numbers.Integral) or n_anchors < 3:
        raise ConfigError(f"need an integer count of at least 3 anchors, got {n_anchors!r}")
    if not (math.isfinite(area) and area > 0):
        raise ConfigError("area must be positive and finite")
    t = np.asarray((area / 2.0, area / 2.0) if target is None else target, dtype=float).reshape(2)
    if not np.all(np.isfinite(t)):
        raise ConfigError("target must be finite")  # never clears the separation test
    farthest_corner = math.hypot(max(t[0], area - t[0]), max(t[1], area - t[1]))
    if farthest_corner <= MIN_SEPARATION:
        raise ConfigError(f"no point of the {area:g} m area is {MIN_SEPARATION:g} m off the target")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    anchors = np.array([rng.uniform(0.0, area, size=(n_anchors, 2)) for rng in rngs])
    with np.errstate(over="ignore"):  # an overflow is _check_geometry's to reject
        far = np.linalg.norm(anchors - t, axis=-1) >= MIN_SEPARATION
    for j in np.flatnonzero(~far.all(axis=1)):  # each rejected draw is drawn again, in order
        kept = anchors[j][far[j]]
        while kept.shape[0] < n_anchors:
            cand = rngs[j].uniform(0.0, area, size=(n_anchors - kept.shape[0], 2))
            with np.errstate(over="ignore"):
                ok = np.linalg.norm(cand - t, axis=1) >= MIN_SEPARATION
            kept = np.concatenate([kept, cand[ok]])
        anchors[j] = kept
    _check_geometry(anchors, np.broadcast_to(t, (len(rngs), 2)))
    return [_checked(layout, t) for layout in anchors]


def random_topology(n_anchors: int, area: float, target=None, seed=None) -> Topology:
    """One random layout (see ``random_topologies``), a batch of one."""
    return random_topologies(n_anchors, area, [seed], target=target)[0]


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read topology file {str(path)!r}: {exc}") from exc
    return parse_topology(text)
