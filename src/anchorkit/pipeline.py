"""Glue between the modules: dataset assembly, batch inference, scoring.

Used by the CLI subcommands and by the acceptance harness so both run
the exact same code paths.
"""

from __future__ import annotations

import numpy as np

from .data import SynthConfig, synth_dataset
from .decode import DecodeConfig, Detection, decode_improved
from .evalkit import GroundTruthSet, evaluate_ap
from .geometry import Box, generate_anchors
from .network import Network, forward_detect

__all__ = [
    "VAL_SEED_OFFSET",
    "synth_pairs",
    "detect_images",
    "validation_ap",
]

# offset applied to a run seed to derive its validation-split seed
VAL_SEED_OFFSET = 1_000_003


def synth_pairs(
    cfg: SynthConfig, n: int, seed: int
) -> tuple[list[tuple[np.ndarray, list[Box]]], GroundTruthSet]:
    """Synthetic (image, boxes) training pairs plus the matching truth set."""
    images, gts = synth_dataset(cfg, n, seed)
    keys = [f"{i:06d}.pgm" for i in range(n)]
    pairs = [(img, gts.boxes[key]) for img, key in zip(images, keys)]
    return pairs, gts


def detect_images(
    net: Network,
    images: dict[str, np.ndarray],
    decode_cfg: DecodeConfig | None = None,
) -> dict[str, list[Detection]]:
    """Gated forward + threshold-first decode over a keyed image collection.

    The forward regresses only the map rows that hold anchors above the
    decode gate (see :func:`forward_detect`). Every image must have the
    size the net's anchors were laid out for.
    """
    decode_cfg = decode_cfg or DecodeConfig()
    anchors = net.config.anchors
    for key, image in images.items():
        h, w = image.shape[-2:]
        if (h, w) != (anchors.image_h, anchors.image_w):
            raise ValueError(
                f"image {key!r} is {w}x{h}, "
                f"the net's anchors are laid out for {anchors.image_w}x{anchors.image_h}"
            )
    grid = generate_anchors(anchors)
    out: dict[str, list[Detection]] = {}
    for key in images:
        raw = forward_detect(net, images[key], gate=decode_cfg.score_threshold)
        out[key] = decode_improved(raw, grid, decode_cfg).detections
    return out


def validation_ap(
    net: Network,
    val_images: dict[str, np.ndarray],
    val_gts: GroundTruthSet,
    decode_cfg: DecodeConfig | None = None,
    iou_thresh: float = 0.5,
) -> float:
    dets = detect_images(net, val_images, decode_cfg)
    ap, _ = evaluate_ap(dets, val_gts, iou_thresh)
    return ap
