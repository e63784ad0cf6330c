"""Brute-force reference implementations used to validate the fast paths.

Everything here is written as plainly as possible — explicit loops over
explicit tables — and stays independent of the library internals it
checks.
"""

from __future__ import annotations

import math

import numpy as np

NEG = -1


def iou_xyxy(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def match_baseline_oracle(overlaps: np.ndarray, thresh: float) -> np.ndarray:
    """Enumerate the baseline matching rules over an explicit IoU table."""
    n_gt, n_anchor = overlaps.shape
    labels = np.full(n_anchor, NEG, dtype=np.int64)
    claimed = set()
    # pass 1: each gt (in index order) claims its best positive-IoU anchor
    for g in range(n_gt):
        best_a, best_v = None, 0.0
        for a in range(n_anchor):
            if a in claimed:
                continue
            if overlaps[g, a] > best_v:
                best_a, best_v = a, overlaps[g, a]
        if best_a is not None:
            labels[best_a] = g
            claimed.add(best_a)
    # pass 2: unclaimed anchors above threshold join their best gt
    for a in range(n_anchor):
        if a in claimed:
            continue
        best_g, best_v = None, -1.0
        for g in range(n_gt):
            if overlaps[g, a] > best_v:
                best_g, best_v = g, overlaps[g, a]
        if best_g is not None and best_v >= thresh:
            labels[a] = best_g
    return labels


def match_two_step_oracle(
    overlaps: np.ndarray, thresh: float, max_total: int, floor: float
) -> np.ndarray:
    """Step 1 baseline, then top up hard gts to at most max_total anchors."""
    labels = match_baseline_oracle(overlaps, thresh)
    n_gt, n_anchor = overlaps.shape
    for g in range(n_gt):
        if any(overlaps[g, a] >= thresh for a in range(n_anchor)):
            continue
        have = sum(1 for a in range(n_anchor) if labels[a] == g)
        budget = max_total - have
        candidates = [
            a for a in range(n_anchor) if labels[a] == NEG and overlaps[g, a] > floor
        ]
        candidates.sort(key=lambda a: (-overlaps[g, a], a))
        for a in candidates[:budget]:
            labels[a] = g
    return labels


def nms_oracle(boxes: np.ndarray, scores: np.ndarray, thresh: float) -> list[int]:
    """Quadratic greedy suppression, scanning the whole list every round."""
    remaining = list(range(len(scores)))
    kept = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        kept.append(best)
        survivors = []
        for i in remaining:
            if i == best:
                continue
            if iou_xyxy(boxes[best], boxes[i]) <= thresh:
                survivors.append(i)
        remaining = survivors
    return kept


def match_detections_oracle(dets, gts, ignore, iou_thresh: float):
    """Greedy ranked matching over explicit per-image lists.

    dets: {key: [(box, score), ...]}; gts: {key: [box, ...]};
    ignore: {key: [bool, ...]}. Returns (scores, flags) for the
    non-ignored detections, score-sorted (ties by key then index).
    """
    ranked = []
    for key in dets:
        for j, (box, score) in enumerate(dets[key]):
            ranked.append((-score, key, j, box))
    ranked.sort(key=lambda t: (t[0], t[1], t[2]))

    used = {k: [False] * len(v) for k, v in gts.items()}
    scores, flags = [], []
    for neg_score, key, _, box in ranked:
        best_g, best_v = None, -1.0
        for g, gt_box in enumerate(gts[key]):
            if used[key][g]:
                continue
            v = iou_xyxy(box, gt_box)
            if v > best_v:
                best_g, best_v = g, v
        if best_g is not None and best_v >= iou_thresh:
            used[key][best_g] = True
            if ignore[key][best_g]:
                continue  # neither TP nor FP
            scores.append(-neg_score)
            flags.append(True)
        else:
            scores.append(-neg_score)
            flags.append(False)
    return scores, flags


def average_precision_oracle(flags, n_gt: int) -> float:
    """Direct envelope integration of the prefix PR points."""
    if not flags:
        return 0.0
    points = []
    tp = 0
    for i, f in enumerate(flags, 1):
        tp += int(f)
        points.append((tp / n_gt, tp / i))
    ap = 0.0
    prev_r = 0.0
    for i, (r, _) in enumerate(points):
        p_env = max(p for _, p in points[i:])
        ap += (r - prev_r) * p_env
        prev_r = r
    return ap


def anchor_count_oracle(image_w: int, image_h: int, strides) -> int:
    return sum(math.ceil(image_h / s) * math.ceil(image_w / s) for s in strides)


def conv2d_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Direct quadruple-loop convolution with same padding."""
    c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (wd + 2 * pw - kw) // stride + 1
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((o, h_out, w_out), dtype=x.dtype)
    for oc in range(o):
        for r in range(h_out):
            for col in range(w_out):
                acc = b[oc]
                for ic in range(c):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[oc, ic, i, j] * xp[ic, r * stride + i, col * stride + j]
                out[oc, r, col] = acc
    return out


def upsample2(x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """Nearest-neighbor 2x upsample of (C, H, W), cropped to (h_out, w_out)."""
    up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
    return up[:, :h_out, :w_out]
