"""Central-finite-difference validation of every analytic gradient.

All checks run in float64 (the oracle path) with step 1e-5. The
reported figure is the max relative error, with the denominator floored
at 1 so near-zero gradient entries compare absolutely instead of
dividing by noise. Instances are seeded and therefore reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .assign import Assignment
from .layers import conv2d, conv2d_backward, fuse, upsample2_backward
from .loss import _ce_batch, multitask_loss, smooth_l1
from .network import detection_head
from .trainer import TrainConfig

__all__ = ["finite_diff", "rel_err", "run_all", "TOLERANCE"]

STEP = 1e-5
TOLERANCE = 1e-5


def finite_diff(f: Callable[[], float], x: np.ndarray, h: float = STEP) -> np.ndarray:
    """Central differences of scalar ``f`` w.r.t. every entry of ``x`` (in place)."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_smooth_l1(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    for _ in range(instances):
        x = float(rng.uniform(-3.0, 3.0))
        _, deriv = smooth_l1(x)
        arr = np.array([x], dtype=np.float64)
        fd = finite_diff(lambda: smooth_l1(float(arr[0]))[0], arr)
        worst = max(worst, rel_err(np.array([deriv]), fd))
    return worst


def check_softmax_ce(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 9))
        logits = rng.normal(0.0, 2.0, size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        _, grads = _ce_batch(logits, labels)
        fd = finite_diff(lambda: float(_ce_batch(logits, labels)[0].sum()), logits)
        worst = max(worst, rel_err(grads, fd))
    return worst


def _random_assignment(rng: np.random.Generator, n: int) -> Assignment:
    labels = np.full(n, -1, dtype=np.int64)
    n_pos = int(rng.integers(0, max(2, n // 4)))
    if n_pos:
        pos = rng.choice(n, size=n_pos, replace=False)
        labels[pos] = rng.integers(0, n_pos, size=n_pos)
    n_gt = int(labels.max()) + 1
    matched = tuple(np.flatnonzero(labels == g) for g in range(n_gt))
    return Assignment(labels=labels, matched=matched, best_iou=np.zeros(n))


def check_multitask_loss(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    ratio = TrainConfig().ohem_ratio
    for _ in range(instances):
        n = int(rng.integers(4, 33))
        assignment = _random_assignment(rng, n)
        logits = rng.normal(0.0, 1.0, size=(n, 2))
        offsets = rng.normal(0.0, 0.5, size=(n, 4))
        targets = rng.normal(0.0, 0.5, size=(n, 4))
        lam = float(rng.uniform(1.0, 5.0))

        def total() -> float:
            return multitask_loss(logits, offsets, assignment, targets, lam, ratio).total

        out = multitask_loss(logits, offsets, assignment, targets, lam, ratio)
        worst = max(worst, rel_err(out.grad_logits, finite_diff(total, logits)))
        worst = max(worst, rel_err(out.grad_offsets, finite_diff(total, offsets)))
    return worst


def check_conv2d(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    for _ in range(instances):
        c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        x = rng.normal(0.0, 1.0, size=(c, h, w))
        wt = rng.normal(0.0, 0.5, size=(o, c, k, k))
        b = rng.normal(0.0, 0.5, size=o)
        out, cache = conv2d(x, wt, b, stride=stride)
        proj = rng.normal(0.0, 1.0, size=out.shape)  # scalar readout weights

        def scalar() -> float:
            y, _ = conv2d(x, wt, b, stride=stride)
            return float((y * proj).sum())

        gx, gw, gb = conv2d_backward(proj, cache)
        worst = max(worst, rel_err(gx, finite_diff(scalar, x)))
        worst = max(worst, rel_err(gw, finite_diff(scalar, wt)))
        worst = max(worst, rel_err(gb, finite_diff(scalar, b)))
    return worst


def check_fuse(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    for _ in range(instances):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        current = rng.normal(0.0, 1.0, size=(c, h, w))
        higher = rng.normal(0.0, 1.0, size=(c, -(-h // 2), -(-w // 2)))
        proj = rng.normal(0.0, 1.0, size=current.shape)

        def scalar() -> float:
            return float((fuse(current.copy(), higher) * proj).sum())

        # the current map's gradient passes through unchanged
        g_hi = upsample2_backward(proj, *higher.shape[1:])
        worst = max(worst, rel_err(proj, finite_diff(scalar, current)))
        worst = max(worst, rel_err(g_hi, finite_diff(scalar, higher)))
    return worst


def check_detection_head(rng: np.random.Generator, instances: int) -> float:
    worst = 0.0
    for _ in range(instances):
        ch = 4
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        feature = rng.normal(0.0, 1.0, size=(ch, h, w))
        params: dict[str, np.ndarray] = {}
        for branch, out_ch in (("cls", 2), ("reg", 4)):
            params[f"head0.{branch}0.w"] = rng.normal(0.0, 0.4, size=(ch, ch, 3, 3))
            params[f"head0.{branch}0.b"] = rng.normal(0.0, 0.1, size=ch)
            params[f"head0.{branch}_out.w"] = rng.normal(0.0, 0.4, size=(out_ch, ch, 3, 3))
            params[f"head0.{branch}_out.b"] = rng.normal(0.0, 0.1, size=out_ch)
        cls_map, reg_map, back = detection_head(feature, params, "head0", head_depth=1)
        pc = rng.normal(0.0, 1.0, size=cls_map.shape)
        pr = rng.normal(0.0, 1.0, size=reg_map.shape)

        def scalar() -> float:
            cm, rm, _ = detection_head(feature, params, "head0", head_depth=1)
            return float((cm * pc).sum() + (rm * pr).sum())

        g_feat, grads = back(pc, pr)
        worst = max(worst, rel_err(g_feat, finite_diff(scalar, feature)))
        for name, g in grads.items():
            worst = max(worst, rel_err(g, finite_diff(scalar, params[name])))
    return worst


_CHECKS: dict[str, Callable[[np.random.Generator, int], float]] = {
    "smooth_l1": check_smooth_l1,
    "softmax_ce": check_softmax_ce,
    "multitask_loss": check_multitask_loss,
    "conv2d": check_conv2d,
    "fuse": check_fuse,
    "detection_head": check_detection_head,
}


def run_all(seed: int = 0, instances: int = 100) -> dict[str, float]:
    """Run every gradient check; returns op name -> max relative error."""
    results = {}
    for i, (name, check) in enumerate(_CHECKS.items()):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        results[name] = check(rng, instances)
    return results
