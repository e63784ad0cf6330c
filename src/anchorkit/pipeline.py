"""Glue between the modules: dataset assembly, batch inference, scoring.

Used by the CLI subcommands and by the acceptance harness so both run
the exact same code paths.

:func:`detect_images` hands its images' keys to a
:func:`forkpool.pool`, one process per usable core, ``min(cores,
images)``, under the pool's thread budget; one image, or one core,
forks nothing. Each image's arithmetic is the one-process arithmetic,
so the detections are bit-identical and come back in the input's key
order.
"""

from __future__ import annotations

import numpy as np

from . import forkpool
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
    return list(zip(images, gts.boxes.values())), gts


def detect_images(
    net: Network,
    images: dict[str, np.ndarray],
    decode_cfg: DecodeConfig | None = None,
) -> dict[str, list[Detection]]:
    """Gated forward + threshold-first decode over a keyed image collection.

    The forward regresses only the map rows that hold anchors above the
    decode gate (see :func:`forward_detect`). Every image must have the
    size the net's anchors were laid out for; that is checked before
    anything runs. The images run on a :func:`forkpool.pool` (see the
    module docstring). The result lists the keys in the input's order,
    and an image's exception is raised where the image stands in that
    order, as a one-process loop would raise it.
    """
    decode_cfg = decode_cfg or DecodeConfig()
    anchors = net.config.anchors
    for key, image in images.items():
        anchors.check_image(f"image {key!r}", image)
    grid = generate_anchors(anchors)

    def detect(pos: int, key: str) -> list[Detection]:
        raw = forward_detect(net, images[key], gate=decode_cfg.score_threshold)
        return decode_improved(raw, grid, decode_cfg).detections

    keys = list(images)
    with forkpool.pool(len(keys), detect) as run:
        return {keys[pos]: dets for pos, dets in run(keys, last=True)}


def validation_ap(
    net: Network,
    val_images: dict[str, np.ndarray],
    val_gts: GroundTruthSet,
    decode_cfg: DecodeConfig | None = None,
) -> float:
    """AP at IoU 0.5 of :func:`detect_images` over ``val_images`` against ``val_gts``.

    The images run on the detection pool (one process per usable core),
    also inside a training run's ``epoch_callback``: there the training
    workers wait for their next batch, and the pool gives back the
    caller's conv-thread share and BLAS thread count when it is done.
    """
    dets = detect_images(net, val_images, decode_cfg)
    ap, _ = evaluate_ap(dets, val_gts)
    return ap
