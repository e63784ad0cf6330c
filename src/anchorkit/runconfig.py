"""Experiment configuration: plain-text key=value files plus overrides.

The config dataclasses are the only home of the defaults. A key is
``section.field`` for a field of a section's config (``anchor.*``,
``match.*``, ``decode.*``, ``train.*``, ``aug.*``, ``net.*``,
``synth.*``), and its default is that field's value in the section's
toy instance (see ``_SECTIONS``); ``_RENAMED`` and ``_UNKEYED`` list
the exceptions. A key's parser follows its default's type. Unknown
keys are rejected by name. :meth:`RunConfig.build` turns the values
into a section's config. A run that writes artifacts also writes a
``manifest.json`` (command, config snapshot, seed, library versions —
no timestamps, so identical runs produce identical manifests).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .assign import MatchConfig
from .data import AugConfig, SynthConfig
from .decode import DecodeConfig
from .geometry import AnchorConfig
from .network import NetConfig, StageSpec
from .trainer import TrainConfig

__all__ = ["RunConfig", "ConfigError", "write_manifest"]


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers") from None


_STAGE_RE = re.compile(r"^(\d+)x(\d+)s(\d+)$")


def _parse_stages(text: str) -> tuple[StageSpec, ...]:
    stages = []
    for token in text.split(","):
        m = _STAGE_RE.match(token.strip())
        if not m:
            raise ValueError(f"bad stage {token!r}: expected '<n_convs>x<channels>s<stride>'")
        stages.append(StageSpec(int(m.group(1)), int(m.group(2)), int(m.group(3))))
    return tuple(stages)


def _stages_text(stages: tuple[StageSpec, ...]) -> str:
    return ",".join(f"{s.n_convs}x{s.channels}s{s.stride}" for s in stages)


# Each section's keys set the fields of its config; their defaults are
# the fields' values in these instances.
_SECTIONS: dict[str, Any] = {
    "anchor": AnchorConfig.toy(),
    "match": MatchConfig(),
    "decode": DecodeConfig(),
    "train": TrainConfig(),
    "aug": AugConfig(),
    "net": NetConfig.toy(),
    "synth": SynthConfig(),
}

# Keys that are not a field of their own section: key -> (section,
# attribute). The attribute holds the default; build() turns
# anchor.strides and anchor.sizes into AnchorConfig.layers.
_RENAMED = {
    "anchor.strides": ("anchor", "strides"),
    "anchor.sizes": ("anchor", "sizes"),
    "loss.lambda": ("train", "lam"),
    "loss.ohem_ratio": ("train", "ohem_ratio"),
}

# Fields that are no key: the keys above set the first three, build()
# sets net.anchors and the caller train.seed.
_UNKEYED = {"anchor.layers", "train.lam", "train.ohem_ratio", "net.anchors", "train.seed"}


def _parser(default: Any):
    """The parser of a key whose default is ``default``."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, float):
        return _parse_float
    if isinstance(default, (int, str)):
        return type(default)
    if default and all(isinstance(v, StageSpec) for v in default):
        return _parse_stages
    if default and all(isinstance(v, int) for v in default):
        return _parse_int_list
    raise TypeError(f"no parser for a default of {default!r}")


# key -> (section, attribute)
_TARGETS: dict[str, tuple[str, str]] = {
    f"{section}.{f.name}": (section, f.name)
    for section, config in _SECTIONS.items()
    for f in fields(config)
    if f"{section}.{f.name}" not in _UNKEYED
} | _RENAMED

_DEFAULTS = {key: getattr(_SECTIONS[section], name) for key, (section, name) in _TARGETS.items()}

# key -> (parser, default); aug.enabled is the one key with no config
# field, and training augments unless it is off.
_SCHEMA: dict[str, tuple[Any, Any]] = {
    key: (_parser(default), default) for key, default in _DEFAULTS.items()
} | {"aug.enabled": (_parse_bool, True)}


@dataclass
class RunConfig:
    """Validated settings for one run; starts from the toy instances' values."""

    values: dict[str, Any] = field(default_factory=lambda: {k: d for k, (_, d) in _SCHEMA.items()})

    def set(self, key: str, raw: str) -> None:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            self.values[key] = parser(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from e

    def load_file(self, path: Path) -> None:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            try:
                self.set(key.strip(), raw.strip())
            except ConfigError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from e

    def apply_overrides(self, overrides: list[str]) -> None:
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, raw = item.split("=", 1)
            self.set(key.strip(), raw.strip())

    def snapshot(self) -> dict[str, str]:
        """Stable text rendering of every value (for files and manifests)."""
        out = {}
        for key in sorted(self.values):
            v = self.values[key]
            if key == "net.stages":
                out[key] = _stages_text(v)
            elif isinstance(v, tuple):
                out[key] = ",".join(str(x) for x in v)
            elif isinstance(v, bool):
                out[key] = "true" if v else "false"
            elif isinstance(v, float):
                out[key] = f"{v:g}"
            else:
                out[key] = str(v)
        return out

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.snapshot().items())

    def build(self, section: str, **extra: Any) -> Any:
        """The section's config: its toy instance with every key's value.

        ``extra`` sets fields that are no key, such as ``seed`` of
        ``"train"``. ``"aug"`` gives ``None`` when ``aug.enabled`` is off.
        A value the config rejects raises :class:`ConfigError`.
        """
        if section == "aug" and not self.values["aug.enabled"]:
            return None
        kwargs = {name: self.values[key] for key, (sec, name) in _TARGETS.items() if sec == section}
        if section == "anchor":
            strides, sizes = kwargs.pop("strides"), kwargs.pop("sizes")
            if len(strides) != len(sizes):
                raise ConfigError("anchor.strides and anchor.sizes must have the same length")
            kwargs["layers"] = tuple(zip(strides, sizes))
        elif section == "net":
            kwargs["anchors"] = self.build("anchor")
        try:
            return replace(_SECTIONS[section], **kwargs, **extra)
        except ValueError as e:
            raise ConfigError(f"{section} config: {e}") from e


def write_manifest(directory: Path, command: str, config: RunConfig, seed: int | None) -> None:
    """Record the reproducibility envelope next to a run's outputs."""
    manifest = {
        "command": command,
        "config": config.snapshot(),
        "seed": seed,
        "versions": {
            "anchorkit": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
