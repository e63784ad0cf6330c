"""Multi-task detection loss with online hard negative mining.

The total loss is ``cls_term + lam * reg_term`` where the classification
term is softmax cross entropy over positives plus the mined hardest
negatives (``ohem_ratio`` negatives per positive), normalized by the
number of anchors actually in the term. Near misses, negatives that
overlap a face at IoU >= :data:`IGNORE_IOU` (0.3) but below the match
threshold, are never mined. The regression term is
smooth L1 summed over the four offset components of the positive
anchors, normalized by the positive count. Training takes ``lam`` and
``ohem_ratio`` from its ``TrainConfig``.

All math follows the dtype of the inputs: feed float64 arrays for the
oracle/gradient-check path, float32 in the training loop. Analytic
gradients for both heads come back in :class:`LossOutput`; anchors that
are negative and unmined contribute exactly zero loss and zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assign import Assignment

__all__ = [
    "LossOutput",
    "smooth_l1",
    "ohem_select",
    "multitask_loss",
    "ZERO_POSITIVE_NEGATIVES",
    "IGNORE_IOU",
]

# Negatives mined when a batch has no positive anchor at all; keeps the
# classifier learning on background-only crops.
ZERO_POSITIVE_NEGATIVES = 16

# Negatives whose best IoU with a face reaches this are near misses: a box
# that still holds most of a face. Mining them as background asks the
# classifier for a score cliff between an anchor and its 4 px neighbour,
# so they are left out of the classification term, like the ignore band
# between the negative and positive thresholds of RPN/RetinaNet matching.
IGNORE_IOU = 0.3


def smooth_l1(x):
    """Smooth L1 value and derivative: 0.5*x^2 inside |x| < 1, |x| - 0.5 outside.

    Accepts scalars or arrays; returns (value, derivative) of the same shape.
    """
    x = np.asarray(x)
    inside = np.abs(x) < 1.0
    value = np.where(inside, 0.5 * x * x, np.abs(x) - 0.5)
    deriv = np.where(inside, x, np.sign(x))
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _ce_batch(logits: np.ndarray, labels01: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise CE values and gradients for (N, 2) logits and 0/1 labels.

    Uses max-subtraction stabilization. Each gradient row is the row's
    softmax minus the one-hot label.
    """
    log_p = _log_softmax(logits)
    n = logits.shape[0]
    values = -log_p[np.arange(n), labels01]
    grads = np.exp(log_p)
    grads[np.arange(n), labels01] -= 1.0
    return values, grads


def ohem_select(cls_losses: np.ndarray, assignment: Assignment, ratio: int) -> np.ndarray:
    """Pick the hardest negative anchors at ``ratio`` negatives per positive.

    Returns the selected negative indices. Negatives whose best IoU with a
    ground truth is :data:`IGNORE_IOU` or more are never picked. With zero
    positives, falls back to the :data:`ZERO_POSITIVE_NEGATIVES` hardest
    negatives. Ties break toward the lowest anchor index.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    neg = assignment.negative_indices()
    neg = neg[assignment.best_iou[neg] < IGNORE_IOU]
    n_pos = assignment.n_positive
    quota = ratio * n_pos if n_pos > 0 else ZERO_POSITIVE_NEGATIVES
    quota = min(quota, neg.size)
    if quota == 0:
        return np.empty(0, dtype=np.int64)
    order = neg[np.argsort(-np.asarray(cls_losses)[neg], kind="stable")]
    return np.sort(order[:quota])


@dataclass
class LossOutput:
    """Loss breakdown plus analytic gradients for both network heads."""

    total: float
    cls_term: float
    reg_term: float
    n_cls: int
    selected_negatives: np.ndarray
    grad_logits: np.ndarray = field(repr=False)  # (N, 2)
    grad_offsets: np.ndarray = field(repr=False)  # (N, 4)


def multitask_loss(
    logits: np.ndarray,
    offsets: np.ndarray,
    assignment: Assignment,
    targets: np.ndarray,
    lam: float,
    ohem_ratio: int,
) -> LossOutput:
    """Classification + box-regression loss over one image's anchors.

    ``logits`` is (N, 2) as (background, face); ``offsets`` and
    ``targets`` are (N, 4). The classification sum runs over positives
    and the mined negatives (near misses are never mined, see
    :func:`ohem_select`) and is divided by that anchor count; the
    regression sum runs over positives (all 4 components, no per-component
    averaging) and is divided by the positive count; without positives
    it is 0.
    """
    logits = np.asarray(logits)
    offsets = np.asarray(offsets)
    targets = np.asarray(targets)
    n = assignment.n_anchors
    if logits.shape != (n, 2) or offsets.shape != (n, 4) or targets.shape != (n, 4):
        raise ValueError(
            f"shape mismatch: logits {logits.shape}, offsets {offsets.shape}, "
            f"targets {targets.shape} for {n} anchors"
        )
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")

    pos = assignment.positive_indices()
    labels01 = (assignment.labels >= 0).astype(np.int64)
    ce_values, ce_grads = _ce_batch(logits, labels01)

    selected = ohem_select(ce_values, assignment, ohem_ratio)
    n_pos = pos.size
    n_cls = n_pos + selected.size
    counted = np.concatenate([pos, selected])

    grad_logits = np.zeros_like(logits)
    cls_term = 0.0
    if n_cls > 0:
        cls_term = float(ce_values[counted].sum() / n_cls)
        grad_logits[counted] = ce_grads[counted] / n_cls

    grad_offsets = np.zeros_like(offsets)
    reg_term = 0.0
    if n_pos > 0:
        diff = offsets[pos] - targets[pos]
        value, deriv = smooth_l1(diff)
        reg_term = float(value.sum() / n_pos)
        grad_offsets[pos] = lam * deriv / n_pos

    total = cls_term + lam * reg_term
    return LossOutput(
        total=float(total),
        cls_term=cls_term,
        reg_term=reg_term,
        n_cls=int(n_cls),
        selected_negatives=selected,
        grad_logits=grad_logits,
        grad_offsets=grad_offsets,
    )
