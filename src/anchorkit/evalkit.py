"""Detection evaluation: greedy matching, PR curves, AP, FP histograms.

Matching is the familiar ranked-greedy protocol: detections are walked
in descending score order (ties by image key, then detection index) and
each one either claims its best-overlap unmatched ground truth at the
IoU threshold (TP) or counts as a false positive. Detections that claim
an ignore-flagged ground truth are excluded from both counts, as is the
ground truth itself from the recall denominator.

AP uses all-points interpolation: the area under the precision envelope
(precision at each recall taken as the max precision at any recall at
least as large).

Each image with both detections and ground truth costs one
:func:`pairwise_iou` call: the whole detections x ground-truth matrix is
built before the ranked walk, which then copies the detection's row,
masks the ground truths already claimed and takes the ``argmax``.
``pairwise_iou`` is element-wise, so that row is bit for bit the
one-detection call it replaces, and every match decision is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, TextIO

import numpy as np

from .decode import Detection
from .geometry import Box, boxes_to_array, pairwise_iou

__all__ = [
    "GroundTruthSet",
    "PRCurve",
    "match_detections",
    "pr_curve",
    "average_precision",
    "count_false_positives",
    "evaluate_ap",
]


@dataclass
class GroundTruthSet:
    """Per-image ground-truth boxes with optional ignore flags."""

    boxes: dict[str, list[Box]] = field(default_factory=dict)
    ignore: dict[str, list[bool]] = field(default_factory=dict)

    def add_image(self, key: str, boxes: Sequence[Box], ignore: Sequence[bool] | None = None) -> None:
        if key in self.boxes:
            raise ValueError(f"duplicate image key {key!r}")
        flags = list(ignore) if ignore is not None else [False] * len(boxes)
        if len(flags) != len(boxes):
            raise ValueError(f"{key!r}: {len(boxes)} boxes but {len(flags)} ignore flags")
        self.boxes[key] = list(boxes)
        self.ignore[key] = flags

    def n_eval(self) -> int:
        """Ground truths that count toward recall (ignore-flagged ones do not)."""
        return sum(len(f) - sum(f) for f in self.ignore.values())


def _ranked(
    dets: Mapping[str, Sequence[Detection]],
    gts: GroundTruthSet,
    iou_thresh: float,
) -> list[tuple[float, str]]:
    """All detections with match status, globally score-sorted.

    Status: "tp", "fp", or "ignored". Raises if ``iou_thresh`` is not in
    (0, 1) or a detection references an image the ground-truth set does
    not know.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    for key in dets:
        if key not in gts.boxes:
            raise ValueError(f"detections reference unknown image {key!r}")

    order = sorted(
        (
            (-d.score, key, j)
            for key, image_dets in dets.items()
            for j, d in enumerate(image_dets)
        )
    )
    # one IoU matrix per image that has both detections and ground truth
    overlaps: dict[str, np.ndarray] = {}
    used: dict[str, np.ndarray] = {}
    for key, image_dets in dets.items():
        gt_boxes = gts.boxes[key]
        if image_dets and gt_boxes:
            det_rows = np.asarray([d.box.as_tuple() for d in image_dets], dtype=np.float64)
            overlaps[key] = pairwise_iou(det_rows, boxes_to_array(gt_boxes))
            used[key] = np.zeros(len(gt_boxes), dtype=bool)

    out: list[tuple[float, str]] = []
    for neg_score, key, j in order:
        status = "fp"
        if key in overlaps:
            row = overlaps[key][j].copy()
            row[used[key]] = -1.0
            g = int(np.argmax(row))
            if row[g] >= iou_thresh:
                used[key][g] = True
                status = "ignored" if gts.ignore[key][g] else "tp"
        out.append((-neg_score, status))
    return out


def match_detections(
    dets: Mapping[str, Sequence[Detection]],
    gts: GroundTruthSet,
    iou_thresh: float = 0.5,
) -> list[bool]:
    """Globally score-sorted TP/FP flags (ignored detections excluded)."""
    return [status == "tp" for _, status in _ranked(dets, gts, iou_thresh) if status != "ignored"]


@dataclass
class PRCurve:
    """Cumulative (recall, precision) points, one per ranked detection."""

    recalls: np.ndarray
    precisions: np.ndarray
    thresholds: np.ndarray | None = None

    def to_csv(self, out: TextIO) -> None:
        out.write("recall,precision\n" if self.thresholds is None else "recall,precision,score\n")
        for i in range(self.recalls.size):
            row = f"{self.recalls[i]:.9g},{self.precisions[i]:.9g}"
            if self.thresholds is not None:
                row += f",{self.thresholds[i]:.9g}"
            out.write(row + "\n")


def pr_curve(flags: Sequence[bool], n_gt: int, scores: Sequence[float] | None = None) -> PRCurve:
    """Prefix precision/recall over score-ranked TP/FP flags."""
    if n_gt < 1:
        raise ValueError(f"n_gt must be >= 1, got {n_gt}")
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    return PRCurve(
        recalls=tp / n_gt,
        precisions=tp / ranks,
        thresholds=None if scores is None else np.asarray(scores, dtype=np.float64),
    )


def average_precision(curve: PRCurve) -> float:
    """Area under the precision envelope (all-points interpolation)."""
    if curve.recalls.size == 0:
        return 0.0
    envelope = np.maximum.accumulate(curve.precisions[::-1])[::-1]
    prev = np.concatenate([[0.0], curve.recalls[:-1]])
    return float(((curve.recalls - prev) * envelope).sum())


def count_false_positives(
    dets: Mapping[str, Sequence[Detection]],
    gts: GroundTruthSet,
    score_bins: Sequence[float],
    iou_thresh: float = 0.5,
) -> np.ndarray:
    """Histogram of false-positive detections by confidence score.

    ``score_bins`` is a list of finite increasing edges; bin i counts
    FPs with score in [edge_i, edge_i+1) (last bin closed on the right).
    """
    edges = np.asarray(score_bins, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
        raise ValueError(f"score_bins must be >= 2 finite increasing edges, got {score_bins}")
    fp_scores = [score for score, status in _ranked(dets, gts, iou_thresh) if status == "fp"]
    counts, _ = np.histogram(np.asarray(fp_scores, dtype=np.float64), bins=edges)
    return counts


def evaluate_ap(
    dets: Mapping[str, Sequence[Detection]],
    gts: GroundTruthSet,
    iou_thresh: float = 0.5,
) -> tuple[float, PRCurve]:
    """Convenience wrapper: match, build the PR curve, return (AP, curve)."""
    ranked = [(s, st) for s, st in _ranked(dets, gts, iou_thresh) if st != "ignored"]
    flags = [st == "tp" for _, st in ranked]
    n_gt = gts.n_eval()
    if n_gt == 0:
        raise ValueError("ground-truth set has no evaluable boxes")
    curve = pr_curve(flags, n_gt, scores=[s for s, _ in ranked])
    return average_precision(curve), curve
