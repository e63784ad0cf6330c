"""SGD training loop for the toy detector.

Each step: augment the sample, run the two-step (or baseline) matcher,
encode targets, forward, multi-task loss with hard negative mining,
backward, and a momentum-SGD update with L2 weight decay folded into
the gradient.
The learning rate ramps linearly from ``lr / WARMUP_UPDATES`` to ``lr``
over the first :data:`WARMUP_UPDATES` SGD updates, and is divided by
``lr_divisor`` whenever the mean epoch loss fails to improve by at least
1% (relative) for ``plateau_patience`` consecutive epochs.

Everything is deterministic given ``TrainConfig.seed``: epoch shuffles
and per-sample augmentation draw from generator streams derived from
(seed, epoch, index), so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from .assign import MatchConfig, encode_targets, match_baseline, match_two_step
from .data import AugConfig, augment, sample_rng
from .geometry import Box, generate_anchors
from .loss import multitask_loss
from .network import Network, forward_detect

__all__ = [
    "TrainConfig",
    "WARMUP_UPDATES",
    "TrainingDiverged",
    "EpochStats",
    "StepStats",
    "TrainReport",
    "sgd_step",
    "train",
]

# stream tags for per-purpose RNG derivation
_SHUFFLE_STREAM = 0
_AUG_STREAM = 1

# Updates over which the learning rate ramps up to TrainConfig.lr. At the
# default lr this keeps the first 33 updates at or below 1e-3, so a fresh
# net's scores move no faster in its first steps than they did at 1e-3.
WARMUP_UPDATES = 100


@dataclass(frozen=True)
class TrainConfig:
    # At 1e-3, 1,500 updates (18 epochs of 500 toy images at batch 6) end
    # with the fused model still learning the distractor tag.
    lr: float = 3e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 6
    epochs: int = 10
    plateau_patience: int = 3
    lr_divisor: float = 10.0
    seed: int = 0
    matcher: str = "two_step"  # or "baseline", the plain threshold matcher
    lam: float = 4.0  # weight of the box-regression term in the loss
    ohem_ratio: int = 3  # mined hard negatives per positive anchor

    def __post_init__(self) -> None:
        if self.matcher not in ("two_step", "baseline"):
            raise ValueError(f"matcher must be 'two_step' or 'baseline', got {self.matcher!r}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.lr_divisor <= 1:
            raise ValueError(f"lr_divisor must be > 1, got {self.lr_divisor}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step


@dataclass
class EpochStats:
    epoch: int
    mean_total: float
    mean_cls: float
    mean_reg: float
    lr: float
    n_steps: int


@dataclass
class StepStats:
    step: int
    total: float
    cls_term: float
    reg_term: float
    n_pos: int
    n_neg_selected: int


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    seed: int = 0
    stopped_early: bool = False

    def to_csv(self, out: TextIO) -> None:
        out.write("epoch,mean_total,mean_cls,mean_reg,lr,n_steps\n")
        for e in self.epochs:
            out.write(
                f"{e.epoch},{e.mean_total:.9g},{e.mean_cls:.9g},"
                f"{e.mean_reg:.9g},{e.lr:.9g},{e.n_steps}\n"
            )


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """In-place momentum update; decay enters as an L2 gradient term.

    v <- momentum * v + (g + wd * p); p <- p - lr * v. A zero-gradient
    parameter therefore scales by exactly (1 - lr * wd) from rest.
    """
    for k, p in params.items():
        g = grads[k] + weight_decay * p
        v = velocity[k]
        v *= momentum
        v += g
        p -= lr * v


def train(
    net: Network,
    data: Sequence[tuple[np.ndarray, Sequence[Box]]],
    tc: TrainConfig,
    match_cfg: MatchConfig = MatchConfig(),
    aug_cfg: AugConfig | None = AugConfig(),
    step_log: list[StepStats] | None = None,
    epoch_callback: Callable[[int, Network, EpochStats], bool] | None = None,
) -> TrainReport:
    """Train in place on (image, boxes) samples; returns per-epoch stats.

    Every setting comes in a config, and each default is written once,
    on its config's field. ``tc`` holds the schedule, the matcher and the
    loss weights (``lam``, ``ohem_ratio``). Samples are augmented by
    ``aug_cfg`` to the anchor config's image size, which must then be
    square; pass ``None`` to feed samples as-is (their size must then
    match the anchor config). ``epoch_callback`` may return True to stop
    early — e.g. once a validation score is reached. Raises
    :class:`TrainingDiverged` if the loss goes non-finite.
    """
    if not data:
        raise ValueError("training data is empty")
    anchors = net.config.anchors
    if aug_cfg is not None and anchors.image_w != anchors.image_h:
        raise ValueError(
            f"augmentation needs a square anchor config, got {anchors.image_w}x{anchors.image_h}"
        )
    grid = generate_anchors(anchors)
    velocity = {k: np.zeros_like(v) for k, v in net.params.items()}
    report = TrainReport(seed=tc.seed)
    lr = tc.lr
    best = np.inf
    stale = 0
    step = 0
    update = 0

    for epoch in range(tc.epochs):
        order = sample_rng(tc.seed, _SHUFFLE_STREAM, epoch).permutation(len(data))
        totals, clss, regs = [], [], []
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            batch_grads: dict[str, np.ndarray] | None = None
            for idx in batch:
                image, boxes = data[idx]
                if aug_cfg is not None:
                    rng = sample_rng(tc.seed, _AUG_STREAM, epoch, int(idx))
                    image, boxes = augment(image, boxes, aug_cfg, anchors.image_w, rng)
                if tc.matcher == "two_step":
                    assignment = match_two_step(grid, boxes, match_cfg)
                else:
                    assignment = match_baseline(grid, boxes, match_cfg.step1_iou)
                targets = encode_targets(assignment, grid, boxes).astype(np.float32)
                raw, backward = forward_detect(net, image, want_grad=True)
                out = multitask_loss(
                    raw.logits, raw.offsets, assignment, targets, tc.lam, tc.ohem_ratio
                )
                if not np.isfinite(out.total):
                    raise TrainingDiverged(step, out.total)
                grads = backward(out.grad_logits, out.grad_offsets)
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for k in batch_grads:
                        batch_grads[k] += grads[k]
                totals.append(out.total)
                clss.append(out.cls_term)
                regs.append(out.reg_term)
                if step_log is not None:
                    step_log.append(
                        StepStats(
                            step=step,
                            total=out.total,
                            cls_term=out.cls_term,
                            reg_term=out.reg_term,
                            n_pos=assignment.n_positive,
                            n_neg_selected=int(out.selected_negatives.size),
                        )
                    )
                step += 1
            assert batch_grads is not None
            inv = np.float32(1.0 / len(batch))
            for k in batch_grads:
                batch_grads[k] *= inv
            update += 1
            warm = min(1.0, update / WARMUP_UPDATES)
            sgd_step(net.params, batch_grads, velocity, lr * warm, tc.momentum, tc.weight_decay)

        stats = EpochStats(
            epoch=epoch,
            mean_total=float(np.mean(totals)),
            mean_cls=float(np.mean(clss)),
            mean_reg=float(np.mean(regs)),
            lr=lr,
            n_steps=len(totals),
        )
        report.epochs.append(stats)

        # plateau detection on the mean epoch loss (1% relative improvement)
        if stats.mean_total < best * 0.99:
            best = stats.mean_total
            stale = 0
        else:
            stale += 1
            if stale >= tc.plateau_patience:
                lr /= tc.lr_divisor
                stale = 0
        best = min(best, stats.mean_total)

        if epoch_callback is not None and epoch_callback(epoch, net, stats):
            report.stopped_early = True
            break
    return report
