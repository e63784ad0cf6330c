"""Glue between the modules: dataset assembly, batch inference, scoring.

Used by the CLI subcommands and by the acceptance harness so both run
the exact same code paths.

:func:`detect_images` hands its images' keys to a
:func:`forkpool.pool`, one process per usable core, ``min(cores,
images)``; one image, or one core, forks nothing. Each image's
arithmetic is the one-process arithmetic, so the detections are
bit-identical and come back in the input's key order. Sixteen toy
images per call (``validation_ap``) went from 138 to 175 images/s on 2
cores (medians of 10 runs each, 1 BLAS thread, 2-core Xeon): a fork
costs about 1.3 ms, and a worker's run of 8 images took about 75 ms
against the caller's 57 ms (a fresh worker takes about 1,000
copy-on-write page faults on its first run), so 2 cores give about
1.3x rather than 2x.
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
    size the net's anchors were laid out for; that is checked before
    anything runs. The images run on a :func:`forkpool.pool` (see the
    module docstring). The result lists the keys in the input's order,
    and an image's exception is raised where the image stands in that
    order, as a one-process loop would raise it.
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
    iou_thresh: float = 0.5,
) -> float:
    """AP at ``iou_thresh`` of :func:`detect_images` over ``val_images`` against ``val_gts``.

    The images run on the detection pool (one process per usable core),
    also inside a training run's ``epoch_callback``: there the training
    workers wait for their next batch, and the pool gives back the
    caller's conv-thread share and BLAS thread count when it is done.
    """
    dets = detect_images(net, val_images, decode_cfg)
    ap, _ = evaluate_ap(dets, val_gts, iou_thresh)
    return ap
