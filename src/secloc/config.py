"""Experiment configuration: flat key-value files with dotted section keys.

The format is a plain text file of ``key = value`` lines; ``#`` starts a
comment.  The ``_KEYS`` table is the list of accepted keys; any other key is
an error.  Numbers must be finite, and vectors are written as two whitespace-
or comma-separated numbers.
Two profiles ship with the package: ``desk`` (500 trials) and ``paper``
(5000 trials); ``load_config`` resolves those names as well as paths.
Attack keys follow ``attack.kind``: ``uncoordinated`` takes
``attack.sigma_att`` (>= 0) alone, ``coordinated`` exactly one of
``attack.t_att`` and ``attack.distance`` (the decoy then lies that far from
the target, diagonally), and ``none`` none of them.  A mix fails at load.
"""

from __future__ import annotations

import importlib.resources
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackSpec, Placement
from .channel import PathLossParams
from .estimators import GradDescParams, LmdsParams
from .exceptions import ConfigError, DomainError
from .planefit import AdmmParams

SWEEP_AXES = ("sigma_att", "packets", "malicious_fraction", "attack_distance")


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
        for name in ("n_anchors", "packets", "trials", "master_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
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
        # The one attack rule AttackSpec cannot see: how the decoy is given.
        coordinated = self.attack_kind == "coordinated"
        if (self.t_att is not None) + (self.attack_distance is not None) != coordinated:
            count = "exactly one" if coordinated else "neither"
            raise ConfigError(
                f"attack kind {self.attack_kind!r} takes {count} of attack.t_att and "
                "attack.distance"
            )
        self.attack_spec(self.target)  # AttackSpec checks everything else
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
        try:
            self.params()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def params(self) -> PathLossParams:
        return PathLossParams(p0=self.p0, n=self.n, sigma=self.sigma)

    def attack_spec(self, target) -> AttackSpec:
        """The attack on a trial whose true position is ``target``.  The decoy
        is t_att, or the target shifted diagonally by attack_distance."""
        t_att = self.t_att
        if self.attack_distance is not None:
            t_att = np.asarray(target, dtype=float) + self.attack_distance / math.sqrt(2.0)
        return AttackSpec(kind=self.attack_kind, sigma_att=self.sigma_att, t_att=t_att)


def parse_number(key: str, text: str) -> float:
    """A finite float, or a ConfigError naming ``key``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_int(key: str, text: str) -> int:
    value = parse_number(key, text)
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
    return (parse_number(key, parts[0]), parse_number(key, parts[1]))


def _parse_names(key: str, text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


def _parse_text(key: str, text: str) -> str:
    return text


# Every accepted key: (section, field, parser).  A row without a section sets
# that ExperimentConfig field; the rows of a section replace fields of that
# section's default (placement, admm, lmds, grad_desc), which checks them.
_KEYS = {
    "area": (None, "area", parse_number),
    "p0": (None, "p0", parse_number),
    "n": (None, "n", parse_number),
    "sigma": (None, "sigma", parse_number),
    "zeta": (None, "zeta", parse_number),
    "malicious.fraction": (None, "malicious_fraction", parse_number),
    "n_anchors": (None, "n_anchors", _parse_int),
    "packets": (None, "packets", _parse_int),
    "trials": (None, "trials", _parse_int),
    "master_seed": (None, "master_seed", _parse_int),
    "target": (None, "target", _parse_vector),
    "attack.kind": (None, "attack_kind", _parse_text),
    "attack.sigma_att": (None, "sigma_att", parse_number),
    "attack.t_att": (None, "t_att", _parse_vector),
    "attack.distance": (None, "attack_distance", parse_number),
    "malicious.placement": ("placement", "kind", _parse_text),
    "malicious.radius": ("placement", "radius", parse_number),
    "malicious.center": ("placement", "center", _parse_vector),
    "estimators": (None, "estimators", _parse_names),
    "admm.rho": ("admm", "rho", parse_number),
    "admm.conv_tol": ("admm", "conv_tol", parse_number),
    "admm.max_iters": ("admm", "max_iters", _parse_int),
    "lmds.n_subsets": ("lmds", "n_subsets", _parse_int),
    "lmds.subset_size": ("lmds", "subset_size", _parse_int),
    "grad_desc.step": ("grad_desc", "step", parse_number),
    "grad_desc.max_iters": ("grad_desc", "max_iters", _parse_int),
    "grad_desc.keep_fraction": ("grad_desc", "keep_fraction", parse_number),
    "topology.file": (None, "topology_file", _parse_text),
    "topology.per_trial": (None, "topology_per_trial", _parse_bool),
}


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

    fields: dict = {}
    sections: dict = {}
    for key, (section, name, parse) in _KEYS.items():
        if key in entries:
            into = fields if section is None else sections.setdefault(section, {})
            into[name] = parse(key, entries[key])
    for section, kwargs in sections.items():
        try:
            fields[section] = replace(getattr(ExperimentConfig, section), **kwargs)
        except DomainError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    unknown = sorted(entries.keys() - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**fields)


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
    """Return a copy of the config with one sweep axis overridden; the copy is
    checked again, so an axis the config's attack does not take is rejected."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis == "packets":
        packets = int(value) if math.isfinite(value) else 0
        if packets != value or packets < 1:
            raise ConfigError(f"packets must be a positive integer, got {value!r}")
        return replace(config, packets=packets)
    if axis == "attack_distance":
        return replace(config, attack_distance=float(value), t_att=None)
    return replace(config, **{axis: float(value)})
