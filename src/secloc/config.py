"""Experiment configuration: flat key-value files with dotted section keys.

The format is a plain text file of ``key = value`` lines; ``#`` starts a
comment.  The ``_KEYS`` table is the list of accepted keys; any other key is
an error.  Numbers must be finite, and vectors are written as two whitespace-
or comma-separated numbers.  ``ExperimentConfig`` holds a config built in
Python to the same rules: a non-finite number, or an estimator listed twice,
fails there too.
Two profiles ship with the package: ``desk`` (500 trials) and ``paper``
(5000 trials); ``load_config`` resolves those names as well as paths.
Each layer's settings are one section of the config, a value of that layer's
own checked type: ``channel`` (``PathLossParams``: keys ``p0``, ``n``,
``sigma``), ``attack`` (``AttackSpec``: the ``attack.*`` keys) and
``placement`` (``Placement``: ``malicious.placement`` and
``malicious.radius``, a radius measured from each trial's target).  The
type holds the section's rules; the attack-key rules, for one, are
``AttackSpec``'s: ``uncoordinated`` takes ``attack.sigma_att`` (>= 0)
alone, ``coordinated`` exactly one of ``attack.t_att`` and
``attack.distance``, and ``none`` none of them.  A mix fails at load.
``topology.file`` fixes the layout, so it excludes ``topology.per_trial``
and the keys of a drawn layout (``n_anchors``, ``area``, ``target``); a
relative path names a file beside the config (see ``load_config``).
The solvers' settings are constants, not settings: ADMM's stop rule
(``planefit.ADMM_*``), LMdS's (``estimators.LMDS_*``) and Grad-Desc's
(``estimators.GRAD_DESC_*``).  The eight keys ``admm.rho``,
``admm.conv_tol``, ``admm.max_iters``, ``lmds.n_subsets``,
``lmds.subset_size``, ``grad_desc.step``, ``grad_desc.max_iters`` and
``grad_desc.keep_fraction`` may state only their constant's value, and set
nothing.
"""

from __future__ import annotations

import decimal
import importlib.resources
import math
import numbers
import os
import types
from dataclasses import dataclass, replace

import numpy as np

from . import estimators, planefit
from .attacks import AttackSpec, Placement
from .channel import PathLossParams
from .exceptions import ConfigError, DomainError

SWEEP_AXES = ("sigma_att", "packets", "malicious_fraction", "attack_distance")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte-Carlo experiment needs, with defaults matching
    the standard 100 m / 29-anchor scenario."""

    area: float = 100.0
    n_anchors: int = 29
    target: tuple = (50.0, 50.0)
    channel: PathLossParams = PathLossParams(p0=-10.0, n=4.0, sigma=2.0)
    packets: int = 10
    trials: int = 5000
    master_seed: int = 1
    attack: AttackSpec = AttackSpec()
    malicious_fraction: float = 0.0
    placement: Placement = Placement()
    estimators: tuple = ("ls", "wls")
    zeta: float = 1.5
    topology_file: str | None = None
    topology_per_trial: bool = False

    def __post_init__(self) -> None:
        for name in ("n_anchors", "packets", "trials", "master_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if not 0.0 < self.area < math.inf:
            raise ConfigError(f"area must be positive and finite, got {self.area!r}")
        if np.shape(self.target) != (2,) or not np.all(np.isfinite(self.target)):
            raise ConfigError(f"target must be two finite coordinates, got {self.target!r}")
        if self.n_anchors < 3:
            raise ConfigError("need at least 3 anchors")
        if self.packets < 1:
            raise ConfigError("packets must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.zeta < math.inf:
            raise ConfigError(f"zeta must be positive and finite, got {self.zeta!r}")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigError("malicious fraction must be in [0, 1]")
        if self.topology_file is not None and self.topology_per_trial:
            raise ConfigError("topology.file and topology.per_trial exclude each other")
        if not self.estimators:
            raise ConfigError("no estimators enabled")
        # harness imports this module, so its estimator table is read here.
        from .harness import ESTIMATORS

        for i, name in enumerate(self.estimators):
            if name not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {name!r}")
            if name in self.estimators[:i]:
                raise ConfigError(f"estimator {name!r} is listed more than once")
            if self.attack.kind not in ESTIMATORS[name].attacks:
                raise ConfigError(
                    f"estimator {name!r} is not applicable under a "
                    f"{self.attack.kind} attack"
                )


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
    """An integer, exact at any size; a number with no fractional part,
    such as ``1e3`` or ``10.0``, is one too."""
    parse_number(key, text)  # a finite number, or its error
    value = decimal.Decimal(text)
    if value != value.to_integral_value():
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
# section's default (channel, attack, placement), which checks them.  A row
# whose section is a module names one of its constants, which the key may
# state but not change.
_KEYS = {
    "area": (None, "area", parse_number),
    "p0": ("channel", "p0", parse_number),
    "n": ("channel", "n", parse_number),
    "sigma": ("channel", "sigma", parse_number),
    "zeta": (None, "zeta", parse_number),
    "malicious.fraction": (None, "malicious_fraction", parse_number),
    "n_anchors": (None, "n_anchors", _parse_int),
    "packets": (None, "packets", _parse_int),
    "trials": (None, "trials", _parse_int),
    "master_seed": (None, "master_seed", _parse_int),
    "target": (None, "target", _parse_vector),
    "attack.kind": ("attack", "kind", _parse_text),
    "attack.sigma_att": ("attack", "sigma_att", parse_number),
    "attack.t_att": ("attack", "t_att", _parse_vector),
    "attack.distance": ("attack", "distance", parse_number),
    "malicious.placement": ("placement", "kind", _parse_text),
    "malicious.radius": ("placement", "radius", parse_number),
    "estimators": (None, "estimators", _parse_names),
    "admm.rho": (planefit, "ADMM_RHO", parse_number),
    "admm.conv_tol": (planefit, "ADMM_CONV_TOL", parse_number),
    "admm.max_iters": (planefit, "ADMM_MAX_ITERS", _parse_int),
    "lmds.n_subsets": (estimators, "LMDS_SUBSETS", _parse_int),
    "lmds.subset_size": (estimators, "LMDS_SUBSET_SIZE", _parse_int),
    "grad_desc.step": (estimators, "GRAD_DESC_STEP", parse_number),
    "grad_desc.max_iters": (estimators, "GRAD_DESC_MAX_ITERS", _parse_int),
    "grad_desc.keep_fraction": (estimators, "GRAD_DESC_KEEP_FRACTION", parse_number),
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
            value = parse(key, entries[key])
            if not isinstance(section, types.ModuleType):
                into = fields if section is None else sections.setdefault(section, {})
                into[name] = value
            elif value != (fixed := getattr(section, name)):
                where = f"{section.__name__.rpartition('.')[2]}.{name}"
                raise ConfigError(f"{key}: fixed at {where} = {fixed!r}, got {entries[key]!r}")
    for section, kwargs in sections.items():
        try:
            fields[section] = replace(getattr(ExperimentConfig, section), **kwargs)
        except DomainError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    unknown = sorted(entries.keys() - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    layout = [key for key in ("n_anchors", "area", "target") if key in entries]
    if layout and "topology.file" in entries:  # the keys of a drawn layout
        raise ConfigError(f"topology.file fixes the layout, so it excludes {', '.join(layout)}")
    return ExperimentConfig(**fields)


def load_config(source) -> ExperimentConfig:
    """Load a config from a file path, or a built-in profile name
    ('desk', 'paper').  A relative ``topology.file`` names a file relative
    to the config file's directory, so a config and its layout move
    together."""
    name = str(source)
    if name in ("desk", "paper"):
        resource = importlib.resources.files("secloc").joinpath(f"profiles/{name}.cfg")
        return parse_config(resource.read_text(encoding="utf-8"))
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {name!r}: {exc}") from exc
    config = parse_config(text)
    if config.topology_file is None:
        return config
    # an absolute path is kept as it is: os.path.join drops what precedes it
    return replace(config, topology_file=os.path.join(os.path.dirname(name), config.topology_file))


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
    if axis == "sigma_att":
        return replace(config, attack=replace(config.attack, sigma_att=float(value)))
    if axis == "attack_distance":
        attack = replace(config.attack, t_att=None, distance=float(value))
        return replace(config, attack=attack)
    return replace(config, malicious_fraction=float(value))
