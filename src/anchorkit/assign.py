"""Anchor-to-ground-truth matching and regression target encoding.

Two matchers are provided:

* :func:`match_baseline` — the classic single-shot rule: every ground
  truth first claims its best-overlap anchor, then all remaining anchors
  above an IoU threshold join their best ground truth.
* :func:`match_two_step` — the same step 1 at a fixed 0.5 threshold,
  plus a rescue step that tops up "hard" ground truths (those with no
  anchor at or above the threshold) to at most ``max_extra_anchors``
  best-overlap anchors, subject to an IoU floor.

Both are deterministic: all ties break toward the lowest ground-truth
index, then the lowest anchor index. Every function is pure, so
per-image assignments can safely run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .geometry import AnchorGrid, Box, boxes_to_array, pairwise_iou

__all__ = [
    "NEGATIVE",
    "MatchConfig",
    "Assignment",
    "match_baseline",
    "match_two_step",
    "encode_targets",
    "decode_rows",
]

NEGATIVE = -1  # label value for anchors matched to no ground truth


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds for the two-step matcher.

    ``step1_iou`` is the plain matching threshold; ``max_extra_anchors``
    caps the total anchors a hard ground truth may hold after step 2;
    ``step2_iou_floor`` keeps step 2 from grabbing near-disjoint anchors.
    """

    step1_iou: float = 0.5
    max_extra_anchors: int = 4
    step2_iou_floor: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.step2_iou_floor < self.step1_iou < 1.0):
            raise ValueError(
                f"need 0 < step2_iou_floor < step1_iou < 1, got "
                f"step2_iou_floor={self.step2_iou_floor}, step1_iou={self.step1_iou}"
            )
        if self.max_extra_anchors < 0:
            raise ValueError(f"max_extra_anchors must be >= 0, got {self.max_extra_anchors}")


@dataclass
class Assignment:
    """Per-anchor labels plus the reverse per-ground-truth index lists.

    ``labels[i]`` is the matched ground-truth index or :data:`NEGATIVE`.
    An anchor is positive for at most one ground truth by construction.
    ``best_iou[i]`` is anchor i's highest IoU with any ground truth (0 for
    an image without faces); the loss uses it to keep near misses out of
    hard-negative mining.
    """

    labels: np.ndarray = field(repr=False)  # (N,) int64
    matched: tuple[np.ndarray, ...]  # per-gt sorted anchor indices
    best_iou: np.ndarray = field(repr=False)  # (N,) float64

    @property
    def n_anchors(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels >= 0))

    def positive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == NEGATIVE)

    def to_csv(self, out: TextIO) -> None:
        """Dump as ``anchor_index,label,gt_index`` rows (gt_index -1 when negative)."""
        out.write("anchor_index,label,gt_index\n")
        for i, lab in enumerate(self.labels):
            kind = "negative" if lab == NEGATIVE else "positive"
            out.write(f"{i},{kind},{int(lab)}\n")


def _assignment_from_iou(labels: np.ndarray, overlaps: np.ndarray) -> Assignment:
    n_gt, n_anchors = overlaps.shape
    matched = tuple(np.flatnonzero(labels == g) for g in range(n_gt))
    best_iou = overlaps.max(axis=0) if n_gt else np.zeros(n_anchors)
    return Assignment(labels=labels, matched=matched, best_iou=best_iou)


def match_baseline_from_iou(overlaps: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Baseline matching over an explicit (n_gt, n_anchors) IoU table.

    Ground truths claim their best positive-overlap unclaimed anchor in
    index order, then every unclaimed anchor at or above ``iou_thresh``
    joins its best-overlap ground truth. Returns the label vector.
    """
    n_gt, n_anchors = overlaps.shape
    labels = np.full(n_anchors, NEGATIVE, dtype=np.int64)
    if n_gt == 0:
        return labels
    claimed = np.zeros(n_anchors, dtype=bool)
    for g in range(n_gt):
        row = np.where(claimed, -1.0, overlaps[g])
        best = int(np.argmax(row))
        if row[best] > 0.0:
            labels[best] = g
            claimed[best] = True
    best_gt = np.argmax(overlaps, axis=0)
    best_iou = overlaps[best_gt, np.arange(n_anchors)]
    take = ~claimed & (best_iou >= iou_thresh)
    labels[take] = best_gt[take]
    return labels


def match_two_step_from_iou(overlaps: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Two-step matching over an explicit (n_gt, n_anchors) IoU table.

    Step 1 is :func:`match_baseline_from_iou` at ``cfg.step1_iou``. Step 2
    tops up each hard ground truth (no anchor at IoU >= step1_iou) with
    its highest-overlap unassigned anchors above ``step2_iou_floor``,
    until it holds ``max_extra_anchors`` anchors in total.
    """
    labels = match_baseline_from_iou(overlaps, cfg.step1_iou)
    n_gt = overlaps.shape[0]
    for g in range(n_gt):
        if np.any(overlaps[g] >= cfg.step1_iou):
            continue  # step 1 could match it; not a hard face
        budget = cfg.max_extra_anchors - int(np.count_nonzero(labels == g))
        if budget <= 0:
            continue
        cand = np.flatnonzero((labels == NEGATIVE) & (overlaps[g] > cfg.step2_iou_floor))
        if cand.size == 0:
            continue
        order = cand[np.argsort(-overlaps[g, cand], kind="stable")]
        labels[order[:budget]] = g
    return labels


def _check_inputs(grid: AnchorGrid, gts: Sequence[Box]) -> np.ndarray:
    if len(grid) == 0:
        raise ValueError("anchor grid is empty")
    return pairwise_iou(boxes_to_array(gts), grid.boxes)


def match_baseline(grid: AnchorGrid, gts: Sequence[Box], iou_thresh: float) -> Assignment:
    """SSD-style reference matcher (best-anchor guarantee + threshold step)."""
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    overlaps = _check_inputs(grid, gts)
    labels = match_baseline_from_iou(overlaps, iou_thresh)
    return _assignment_from_iou(labels, overlaps)


def match_two_step(grid: AnchorGrid, gts: Sequence[Box], cfg: MatchConfig | None = None) -> Assignment:
    """Two-step matcher: baseline at 0.5 plus top-up of hard ground truths."""
    cfg = cfg or MatchConfig()
    overlaps = _check_inputs(grid, gts)
    labels = match_two_step_from_iou(overlaps, cfg)
    return _assignment_from_iou(labels, overlaps)


def _centers_sizes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    w = rows[:, 2] - rows[:, 0]
    h = rows[:, 3] - rows[:, 1]
    cx = rows[:, 0] + 0.5 * w
    cy = rows[:, 1] + 0.5 * h
    return cx, cy, w, h


def encode_targets(assignment: Assignment, grid: AnchorGrid, gts: Sequence[Box]) -> np.ndarray:
    """Regression targets (tx, ty, tw, th) for every positive anchor.

    tx = (gt_cx - a_cx) / a_w, ty likewise, tw = log(gt_w / a_w),
    th = log(gt_h / a_h). Rows for non-positive anchors are zero. The
    encoding inverts exactly under :func:`decode_rows`.
    """
    if assignment.n_anchors != len(grid):
        raise ValueError(
            f"assignment covers {assignment.n_anchors} anchors, grid has {len(grid)}"
        )
    if assignment.labels.max(initial=NEGATIVE) >= len(gts):
        raise ValueError("assignment references a ground truth index out of range")
    targets = np.zeros((len(grid), 4), dtype=np.float64)
    pos = assignment.positive_indices()
    if pos.size == 0:
        return targets
    gt_rows = boxes_to_array(gts)[assignment.labels[pos]]
    acx, acy, aw, ah = _centers_sizes(grid.boxes[pos])
    gcx, gcy, gw, gh = _centers_sizes(gt_rows)
    targets[pos, 0] = (gcx - acx) / aw
    targets[pos, 1] = (gcy - acy) / ah
    targets[pos, 2] = np.log(gw / aw)
    targets[pos, 3] = np.log(gh / ah)
    return targets


def decode_rows(anchor_rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Apply (tx, ty, tw, th) offsets to anchor rows; inverse of the encoding."""
    acx, acy, aw, ah = _centers_sizes(anchor_rows)
    cx = acx + offsets[:, 0] * aw
    cy = acy + offsets[:, 1] * ah
    w = aw * np.exp(offsets[:, 2])
    h = ah * np.exp(offsets[:, 3])
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)
