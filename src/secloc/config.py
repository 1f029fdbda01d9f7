"""Experiment configuration: flat key-value files with dotted section keys.

The format is a plain text file of ``key = value`` lines; ``#`` starts a
comment.  Vectors are written as two whitespace- or comma-separated numbers.
Two profiles ship with the package: ``desk`` (500 trials) and ``paper``
(5000 trials); ``load_config`` resolves those names as well as paths.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, replace

import numpy as np

from .attacks import ATTACK_KINDS, AttackSpec, Placement
from .channel import PathLossParams
from .exceptions import ConfigError
from .planefit import AdmmParams

SWEEP_AXES = ("sigma_att", "packets", "malicious_fraction", "attack_distance")


@dataclass(frozen=True)
class LmdsParams:
    n_subsets: int = 20
    subset_size: int = 4

    def __post_init__(self) -> None:
        if self.n_subsets < 1 or self.subset_size < 3:
            raise ConfigError("lmds needs n_subsets >= 1 and subset_size >= 3")


@dataclass(frozen=True)
class GradDescParams:
    step: float = 0.4
    max_iters: int = 200
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.step <= 0 or self.max_iters < 1 or not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("invalid grad_desc parameters")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte-Carlo experiment needs, with defaults matching
    the standard 100 m / 29-anchor scenario."""

    area: float = 100.0
    n_anchors: int = 29
    target: tuple = (50.0, 50.0)
    p0: float = -10.0
    n: float = 4.0
    sigma: float = 2.0
    packets: int = 10
    trials: int = 5000
    master_seed: int = 1
    attack_kind: str = "none"
    sigma_att: float | None = None
    t_att: tuple | None = None
    attack_distance: float | None = None
    malicious_fraction: float = 0.0
    placement: Placement = Placement()
    estimators: tuple = ("ls", "wls")
    zeta: float = 1.5
    admm: AdmmParams = AdmmParams()
    lmds: LmdsParams = LmdsParams()
    grad_desc: GradDescParams = GradDescParams()
    topology_file: str | None = None
    topology_per_trial: bool = False

    def __post_init__(self) -> None:
        if self.area <= 0:
            raise ConfigError("area must be positive")
        if self.n_anchors < 3:
            raise ConfigError("need at least 3 anchors")
        if self.packets < 1:
            raise ConfigError("packets must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.zeta <= 0:
            raise ConfigError("zeta must be positive")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigError("malicious fraction must be in [0, 1]")
        if self.attack_kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.attack_kind!r}")
        if self.attack_kind == "uncoordinated" and self.sigma_att is None:
            raise ConfigError("uncoordinated attack needs attack.sigma_att")
        if self.attack_kind == "coordinated":
            if (self.t_att is None) == (self.attack_distance is None):
                raise ConfigError(
                    "coordinated attack needs exactly one of attack.t_att "
                    "or attack.distance"
                )
        if not self.estimators:
            raise ConfigError("no estimators enabled")
        # harness imports this module, so its estimator table is read here.
        from .harness import ESTIMATORS

        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {name!r}")
            if self.attack_kind not in ESTIMATORS[name].attacks:
                raise ConfigError(
                    f"estimator {name!r} is not applicable under a "
                    f"{self.attack_kind} attack"
                )
        # The channel/params constructors re-validate p0, n, sigma.
        PathLossParams(self.p0, self.n, self.sigma)

    def params(self) -> PathLossParams:
        return PathLossParams(p0=self.p0, n=self.n, sigma=self.sigma)

    def resolve_t_att(self, target: np.ndarray) -> np.ndarray:
        """Decoy position: explicit t_att, or the target shifted diagonally
        by attack_distance."""
        if self.t_att is not None:
            return np.asarray(self.t_att, dtype=float)
        offset = self.attack_distance / math.sqrt(2.0)
        return np.asarray(target, dtype=float) + offset

    def attack_spec(self, target) -> AttackSpec:
        if self.attack_kind == "none":
            return AttackSpec(kind="none")
        if self.attack_kind == "uncoordinated":
            return AttackSpec(kind="uncoordinated", sigma_att=self.sigma_att)
        return AttackSpec(kind="coordinated", t_att=self.resolve_t_att(target))


def _parse_scalar(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc


def _parse_int(key: str, text: str) -> int:
    value = _parse_scalar(key, text)
    if value != int(value):
        raise ConfigError(f"{key}: expected an integer, got {text!r}")
    return int(value)


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_vector(key: str, text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two coordinates, got {text!r}")
    return (_parse_scalar(key, parts[0]), _parse_scalar(key, parts[1]))


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into an ExperimentConfig, rejecting unknown keys."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    def take(key):
        return entries.pop(key, None)

    kwargs: dict = {}
    for key, parser in (
        ("area", _parse_scalar),
        ("p0", _parse_scalar),
        ("n", _parse_scalar),
        ("sigma", _parse_scalar),
        ("zeta", _parse_scalar),
        ("malicious.fraction", _parse_scalar),
    ):
        value = take(key)
        if value is not None:
            kwargs[key.replace("malicious.fraction", "malicious_fraction")] = parser(key, value)
    for key, attr in (
        ("n_anchors", "n_anchors"),
        ("packets", "packets"),
        ("trials", "trials"),
        ("master_seed", "master_seed"),
    ):
        value = take(key)
        if value is not None:
            kwargs[attr] = _parse_int(key, value)
    value = take("target")
    if value is not None:
        kwargs["target"] = _parse_vector("target", value)

    value = take("attack.kind")
    if value is not None:
        kwargs["attack_kind"] = value
    value = take("attack.sigma_att")
    if value is not None:
        kwargs["sigma_att"] = _parse_scalar("attack.sigma_att", value)
    value = take("attack.t_att")
    if value is not None:
        kwargs["t_att"] = _parse_vector("attack.t_att", value)
    value = take("attack.distance")
    if value is not None:
        kwargs["attack_distance"] = _parse_scalar("attack.distance", value)

    placement_kind = take("malicious.placement")
    placement_radius = take("malicious.radius")
    placement_center = take("malicious.center")
    if placement_kind is not None or placement_radius is not None or placement_center is not None:
        kwargs["placement"] = Placement(
            kind=placement_kind or "anywhere",
            radius=(
                _parse_scalar("malicious.radius", placement_radius)
                if placement_radius is not None
                else 0.0
            ),
            center=(
                _parse_vector("malicious.center", placement_center)
                if placement_center is not None
                else None
            ),
        )

    value = take("estimators")
    if value is not None:
        names = tuple(tok.strip() for tok in value.replace(",", " ").split() if tok.strip())
        kwargs["estimators"] = names

    admm_kwargs = {}
    for key, attr, parser in (
        ("admm.rho", "rho", _parse_scalar),
        ("admm.conv_tol", "conv_tol", _parse_scalar),
        ("admm.max_iters", "max_iters", _parse_int),
    ):
        value = take(key)
        if value is not None:
            admm_kwargs[attr] = parser(key, value)
    if admm_kwargs:
        kwargs["admm"] = AdmmParams(**admm_kwargs)

    lmds_kwargs = {}
    for key, attr in (("lmds.n_subsets", "n_subsets"), ("lmds.subset_size", "subset_size")):
        value = take(key)
        if value is not None:
            lmds_kwargs[attr] = _parse_int(key, value)
    if lmds_kwargs:
        kwargs["lmds"] = LmdsParams(**lmds_kwargs)

    gd_kwargs = {}
    for key, attr, parser in (
        ("grad_desc.step", "step", _parse_scalar),
        ("grad_desc.max_iters", "max_iters", _parse_int),
        ("grad_desc.keep_fraction", "keep_fraction", _parse_scalar),
    ):
        value = take(key)
        if value is not None:
            gd_kwargs[attr] = parser(key, value)
    if gd_kwargs:
        kwargs["grad_desc"] = GradDescParams(**gd_kwargs)

    value = take("topology.file")
    if value is not None:
        kwargs["topology_file"] = value
    value = take("topology.per_trial")
    if value is not None:
        kwargs["topology_per_trial"] = _parse_bool("topology.per_trial", value)

    if entries:
        unknown = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**kwargs)


def load_config(source) -> ExperimentConfig:
    """Load a config from a file path, or a built-in profile name
    ('desk', 'paper')."""
    name = str(source)
    if name in ("desk", "paper"):
        resource = importlib.resources.files("secloc").joinpath(f"profiles/{name}.cfg")
        return parse_config(resource.read_text(encoding="utf-8"))
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {name!r}: {exc}") from exc


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Return a copy of the config with one sweep axis overridden."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis == "sigma_att":
        if config.attack_kind != "uncoordinated":
            raise ConfigError("sigma_att sweeps need an uncoordinated attack")
        return replace(config, sigma_att=float(value))
    if axis == "packets":
        packets = int(value)
        if packets != value or packets < 1:
            raise ConfigError(f"packets must be a positive integer, got {value!r}")
        return replace(config, packets=packets)
    if axis == "malicious_fraction":
        return replace(config, malicious_fraction=float(value))
    if config.attack_kind != "coordinated":
        raise ConfigError("attack_distance sweeps need a coordinated attack")
    return replace(config, attack_distance=float(value), t_att=None)
