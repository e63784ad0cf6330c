"""Experiment configuration: plain-text key=value files plus overrides.

Every key is validated against the schema below; unknown keys are
rejected by name. Values use dotted sections (``anchor.*``, ``match.*``,
``decode.*``, ``train.*``, ``aug.*``, ``net.*``, ``synth.*``,
``loss.*``). A run that writes artifacts also writes a ``manifest.json``
(command, config snapshot, seed, library versions — no timestamps, so
identical runs produce identical manifests).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
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
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from e


_STAGE_RE = re.compile(r"^(\d+)x(\d+)s(\d+)$")


def _parse_stages(text: str) -> tuple[StageSpec, ...]:
    stages = []
    for token in text.split(","):
        m = _STAGE_RE.match(token.strip())
        if not m:
            raise ConfigError(
                f"bad stage {token!r}: expected '<n_convs>x<channels>s<stride>'"
            )
        stages.append(StageSpec(int(m.group(1)), int(m.group(2)), int(m.group(3))))
    return tuple(stages)


def _stages_text(stages: tuple[StageSpec, ...]) -> str:
    return ",".join(f"{s.n_convs}x{s.channels}s{s.stride}" for s in stages)


# key -> (parser, toy default)
_SCHEMA: dict[str, tuple[Any, Any]] = {
    "anchor.strides": (_parse_int_list, (4, 8)),
    "anchor.sizes": (_parse_int_list, (16, 32)),
    "anchor.image_w": (int, 64),
    "anchor.image_h": (int, 64),
    "match.step1_iou": (float, 0.5),
    "match.max_extra_anchors": (int, 4),
    "match.step2_iou_floor": (float, 0.1),
    "decode.score_threshold": (float, 0.1),
    "decode.nms_threshold": (float, 0.3),
    "decode.report_threshold": (float, 0.1),
    "decode.max_detections": (int, 200),
    "decode.clip_to_image": (_parse_bool, True),
    "train.lr": (float, 3e-3),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, 1e-4),
    "train.batch_size": (int, 6),
    "train.epochs": (int, 10),
    "train.plateau_patience": (int, 3),
    "train.lr_divisor": (float, 10.0),
    "train.matcher": (str, "two_step"),
    "aug.enabled": (_parse_bool, True),
    "aug.crop_ratio_min": (float, 1.0),
    "aug.crop_ratio_max": (float, 1.0),
    "aug.hflip_prob": (float, 0.5),
    "aug.brightness_jitter": (float, 0.1),
    "net.stages": (_parse_stages, _parse_stages("1x8s1,1x16s2,2x32s2,2x64s2")),
    "net.taps": (_parse_int_list, (2, 3)),
    "net.head_channels": (int, 64),
    "net.head_depth": (int, 2),
    "net.fusion": (_parse_bool, True),
    "net.split_heads": (_parse_bool, True),
    "synth.image_size": (int, 64),
    "synth.faces_min": (int, 1),
    "synth.faces_max": (int, 3),
    "synth.face_size_min": (int, 12),
    "synth.face_size_max": (int, 28),
    "synth.noise_amplitude": (float, 0.25),
    "synth.face_contrast": (float, 0.6),
    "synth.distractor_rate": (float, 0.15),
    "loss.lambda": (float, 4.0),
    "loss.ohem_ratio": (int, 3),
}


@dataclass
class RunConfig:
    """Validated settings for one run; starts from toy-scale defaults."""

    values: dict[str, Any] = field(default_factory=lambda: {k: d for k, (_, d) in _SCHEMA.items()})

    def set(self, key: str, raw: str) -> None:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            self.values[key] = parser(raw)
        except ConfigError:
            raise
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

    # typed views ----------------------------------------------------------

    def anchor_config(self) -> AnchorConfig:
        strides = self.values["anchor.strides"]
        sizes = self.values["anchor.sizes"]
        if len(strides) != len(sizes):
            raise ConfigError("anchor.strides and anchor.sizes must have the same length")
        return AnchorConfig(
            layers=tuple(zip(strides, sizes)),
            image_w=self.values["anchor.image_w"],
            image_h=self.values["anchor.image_h"],
        )

    def match_config(self) -> MatchConfig:
        return MatchConfig(
            step1_iou=self.values["match.step1_iou"],
            max_extra_anchors=self.values["match.max_extra_anchors"],
            step2_iou_floor=self.values["match.step2_iou_floor"],
        )

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(
            score_threshold=self.values["decode.score_threshold"],
            nms_threshold=self.values["decode.nms_threshold"],
            report_threshold=self.values["decode.report_threshold"],
            max_detections=self.values["decode.max_detections"],
            clip_to_image=self.values["decode.clip_to_image"],
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            lr=self.values["train.lr"],
            momentum=self.values["train.momentum"],
            weight_decay=self.values["train.weight_decay"],
            batch_size=self.values["train.batch_size"],
            epochs=self.values["train.epochs"],
            plateau_patience=self.values["train.plateau_patience"],
            lr_divisor=self.values["train.lr_divisor"],
            seed=seed,
        )

    def aug_config(self) -> AugConfig | None:
        """Augmentation settings, sized to the (square) anchor config's image."""
        if not self.values["aug.enabled"]:
            return None
        w, h = self.values["anchor.image_w"], self.values["anchor.image_h"]
        if w != h:
            raise ConfigError(
                f"augmentation needs a square anchor config, got "
                f"anchor.image_w={w}, anchor.image_h={h}"
            )
        return AugConfig(
            crop_ratio_min=self.values["aug.crop_ratio_min"],
            crop_ratio_max=self.values["aug.crop_ratio_max"],
            output_size=w,
            hflip_prob=self.values["aug.hflip_prob"],
            brightness_jitter=self.values["aug.brightness_jitter"],
        )

    def net_config(self) -> NetConfig:
        return NetConfig(
            stages=self.values["net.stages"],
            taps=self.values["net.taps"],
            anchors=self.anchor_config(),
            head_channels=self.values["net.head_channels"],
            head_depth=self.values["net.head_depth"],
            fusion=self.values["net.fusion"],
            split_heads=self.values["net.split_heads"],
        )

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            image_size=self.values["synth.image_size"],
            faces_min=self.values["synth.faces_min"],
            faces_max=self.values["synth.faces_max"],
            face_size_min=self.values["synth.face_size_min"],
            face_size_max=self.values["synth.face_size_max"],
            noise_amplitude=self.values["synth.noise_amplitude"],
            face_contrast=self.values["synth.face_contrast"],
            distractor_rate=self.values["synth.distractor_rate"],
        )

    def loss_params(self) -> tuple[float, int]:
        return self.values["loss.lambda"], self.values["loss.ohem_ratio"]


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
