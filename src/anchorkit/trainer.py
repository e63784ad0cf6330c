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

A batch's samples are independent until their gradients are summed, so
each batch runs on the :func:`forkpool.pool` of the :func:`train` call,
one process per usable core, ``min(cores, batch_size)``. Before each
batch the parameters are copied into an anonymous shared mapping that a
worker's net reads in place (the calling process's arrays stay the same
objects), and a worker writes each sample's gradients into that
sample's slot of the mapping. Only loss terms and exceptions travel on
the pipes. The calling process adds the gradients in sample order, the
same float additions as one process makes, so losses, step logs, the
diverged step, errors and weights are bit-identical for any worker
count. Each sample's arithmetic runs with numpy's
overflow and invalid warnings off: the loss's finiteness check reports
a divergence once, in the calling process.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from . import forkpool
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
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if self.lr_divisor <= 1:
            raise ValueError(f"lr_divisor must be > 1, got {self.lr_divisor}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.ohem_ratio < 1:
            raise ValueError(f"ohem_ratio must be >= 1, got {self.ohem_ratio}")


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


def _sample(net, data, grid, tc, match_cfg, aug_cfg, epoch: int, idx: int):
    """One sample's loss terms and parameter gradients; no gradients if its loss is not finite.

    The terms are (total, cls_term, reg_term, n_pos, n_neg_selected).
    """
    image, boxes = data[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        if aug_cfg is not None:
            rng = sample_rng(tc.seed, _AUG_STREAM, epoch, idx)
            image, boxes = augment(image, boxes, aug_cfg, net.config.anchors.image_w, rng)
        if tc.matcher == "two_step":
            assignment = match_two_step(grid, boxes, match_cfg)
        else:
            assignment = match_baseline(grid, boxes, match_cfg.step1_iou)
        targets = encode_targets(assignment, grid, boxes).astype(np.float32)
        raw, backward = forward_detect(net, image, want_grad=True)
        out = multitask_loss(raw.logits, raw.offsets, assignment, targets, tc.lam, tc.ohem_ratio)
        terms = (out.total, out.cls_term, out.reg_term, assignment.n_positive, int(out.selected_negatives.size))
        if not np.isfinite(out.total):
            return terms, None
        return terms, backward(out.grad_logits, out.grad_offsets)


class _Shared:
    """Arrays shaped like ``params`` in an anonymous mapping that forked processes share.

    ``params`` receives the parameters before each batch, ``grads[p]`` a
    worker's gradients of sample ``p``. Sample 0 always runs in the
    calling process, so ``grads[0]`` is ``params``' memory.
    """

    def __init__(self, params: dict[str, np.ndarray], batch_size: int):
        offsets, size = [], 0
        for v in params.values():
            offsets.append(size)
            size += -(-v.nbytes // 64) * 64
        flat = np.frombuffer(mmap.mmap(-1, size * batch_size), np.uint8)
        self.grads = [
            {k: flat[base + o : base + o + v.nbytes].view(v.dtype).reshape(v.shape)
             for (k, v), o in zip(params.items(), offsets)}
            for base in range(0, size * batch_size, size)
        ]
        self.params = self.grads[0]


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
    if aug_cfg is None:
        for i, (image, _) in enumerate(data):
            anchors.check_image(f"sample {i}", image)
    grid = generate_anchors(anchors)
    velocity = {k: np.zeros_like(v) for k, v in net.params.items()}
    report = TrainReport()
    lr = tc.lr
    best = np.inf
    stale = 0
    step = 0
    update = 0
    sample = functools.partial(_sample, net, data, grid, tc, match_cfg, aug_cfg)
    largest = min(tc.batch_size, len(data)) if tc.epochs else 1
    shared = _Shared(net.params, largest)

    def remote(pos: int, item: tuple[int, int]):
        net.params.update(shared.params)  # in a worker only: its net reads the caller's parameters in place
        terms, grads = sample(*item)
        if grads is not None:
            for k, g in grads.items():
                shared.grads[pos][k][...] = g
        return terms, None

    with forkpool.pool(largest, remote, lambda pos, item: sample(*item)) as run:
        for epoch in range(tc.epochs):
            order = sample_rng(tc.seed, _SHUFFLE_STREAM, epoch).permutation(len(data))
            totals, clss, regs = [], [], []
            for start in range(0, len(order), tc.batch_size):
                batch = [(epoch, int(idx)) for idx in order[start : start + tc.batch_size]]
                for k, v in net.params.items():
                    np.copyto(shared.params[k], v)
                batch_grads: dict[str, np.ndarray] | None = None
                for pos, ((total, cls_term, reg_term, n_pos, n_neg), grads) in run(batch):
                    if not np.isfinite(total):
                        raise TrainingDiverged(step, total)
                    if grads is None:  # a worker's sample: its gradients are in its slot
                        grads = shared.grads[pos]
                    if batch_grads is None:
                        batch_grads = grads
                    else:
                        for k in batch_grads:
                            batch_grads[k] += grads[k]
                    totals.append(total)
                    clss.append(cls_term)
                    regs.append(reg_term)
                    if step_log is not None:
                        step_log.append(StepStats(step, total, cls_term, reg_term, n_pos, n_neg))
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
