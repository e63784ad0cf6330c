"""Inference decoding: baseline (decode everything) vs threshold-first.

Both paths softmax every anchor's logits; the baseline then converts
every anchor's offsets to boxes before filtering, while the improved
path first keeps only anchors whose face score exceeds ``score_threshold``
and converts offsets for those alone. With ``report_threshold >=
score_threshold`` the two paths produce identical detections; the
improved one just performs far fewer offset decodes, which
:func:`bench_decode` quantifies. Both stop greedy NMS at ``max_detections``
kept boxes, which bounds the cost when every anchor passes the gate
without changing the output (see :func:`nms_rows`).

``pipeline.detect_images`` takes the gate one level up: its forward
(``forward_detect(gate=...)``) regresses only the map rows that hold
anchors above the decode gate and leaves the other offsets NaN. Such an
output records its gate; :func:`decode_baseline` refuses it, and
:func:`decode_improved` refuses it below that gate.

This is a CPU artifact: the benchmark isolates the offset-decode
workload reduction and deliberately does not model device-to-host
transfer costs.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, TextIO

import numpy as np

from .assign import decode_rows
from .geometry import AnchorConfig, AnchorGrid, Box, generate_anchors
from .network import RawOutput, face_scores

__all__ = [
    "DecodeConfig",
    "Detection",
    "DecodeResult",
    "face_scores",
    "decode_baseline",
    "decode_improved",
    "synth_raw_output",
    "BenchReport",
    "bench_decode",
    "write_detections",
    "read_detections",
]


@dataclass(frozen=True)
class DecodeConfig:
    """Decode-stage thresholds: score gate, NMS overlap, reporting floor."""

    score_threshold: float = 0.1  # keep anchors scoring strictly above this
    nms_threshold: float = 0.3  # suppress boxes overlapping a kept box above this
    report_threshold: float = 0.1
    max_detections: int = 200
    clip_to_image: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.score_threshold <= self.report_threshold < 1.0):
            raise ValueError(
                f"need 0 < score_threshold <= report_threshold < 1, got "
                f"{self.score_threshold} / {self.report_threshold}"
            )
        if not (0.0 < self.nms_threshold < 1.0):
            raise ValueError(f"nms_threshold must be in (0, 1), got {self.nms_threshold}")
        if self.max_detections < 1:
            raise ValueError("max_detections must be >= 1")


@dataclass(frozen=True)
class Detection:
    box: Box
    score: float


@dataclass
class DecodeResult:
    """Final detections plus how many offset rows the path decoded."""

    detections: list[Detection]
    decode_ops: int


# Rows a bounded NMS compares each kept box with before it has to look further.
_NMS_HORIZON = 1024


def nms_rows(boxes: np.ndarray, scores: np.ndarray, thresh: float, limit: int | None = None) -> np.ndarray:
    """Greedy suppression over corner rows; returns kept indices.

    Highest score first, ties toward the lower original index; every box
    overlapping a kept box strictly above ``thresh`` is dropped. ``limit``
    stops the loop once that many boxes are kept. Boxes are kept in score
    order and each depends only on those kept before it, so the result is
    the first ``limit`` of the unbounded one.

    A bounded run usually keeps ``limit`` boxes long before it reaches the
    end of the score order, so it compares each kept box only with the
    later rows among the first ``hi = min(n, _NMS_HORIZON)`` of that order
    instead of with every later row. If the walk reaches ``hi`` with fewer than
    ``limit`` kept, each kept box is replayed once over ``[hi, n)``; from
    then on ``hi = n``, which is the unbounded loop (``limit=None``
    starts there). The output is unchanged: a candidate is examined only
    after every kept box above it has been compared with it, whether in
    that box's round or in the replay, and each comparison is the same
    IEEE expression. Each kept box meets each later row at most once, so
    the work never exceeds the loop without a horizon, and every
    temporary is one row of at most ``n`` elements.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    order = np.lexsort((np.arange(scores.size), -scores))
    n = order.size
    x1, y1, x2, y2 = (boxes[order, k] for k in range(4))
    areas = (x2 - x1) * (y2 - y1)
    alive = np.ones(n, dtype=bool)

    def suppress(p: int, lo: int, hi: int) -> None:
        # IoU of kept box p against rows [lo, hi); zero-area pairs get 0
        r = slice(lo, hi)
        ix = np.minimum(x2[p], x2[r]) - np.maximum(x1[p], x1[r])
        iy = np.minimum(y2[p], y2[r]) - np.maximum(y1[p], y1[r])
        # np.maximum dispatches faster than np.clip; the two can differ only
        # in the sign of a zero, which cannot make iou > thresh true
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        union = areas[p] + areas[r] - inter
        iou = np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0)
        alive[r][iou > thresh] = False

    hi = n if limit is None else min(n, _NMS_HORIZON)
    kept: list[int] = []
    for p in range(n):
        if p == hi:
            for q in kept:
                suppress(q, hi, n)
            hi = n
        if not alive[p]:
            continue
        kept.append(p)
        if len(kept) == limit:
            break
        suppress(p, p + 1, hi)
    return order[kept]


def _finalize(
    boxes: np.ndarray,
    scores: np.ndarray,
    cfg: DecodeConfig,
    image_w: int,
    image_h: int,
) -> list[Detection]:
    # rows stay in anchor order, so NMS breaks score ties toward the lower anchor
    keep = scores >= cfg.report_threshold
    boxes, scores = boxes[keep], scores[keep]
    if cfg.clip_to_image and boxes.size:
        boxes = boxes.copy()
        np.clip(boxes[:, 0::2], 0.0, image_w, out=boxes[:, 0::2])
        np.clip(boxes[:, 1::2], 0.0, image_h, out=boxes[:, 1::2])
        # boxes entirely outside the image collapse to zero extent; drop them
        valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
        boxes, scores = boxes[valid], scores[valid]
    kept = nms_rows(boxes, scores, cfg.nms_threshold, limit=cfg.max_detections)
    return [
        Detection(box=Box(*row), score=score)
        for row, score in zip(boxes[kept].tolist(), scores[kept].tolist())
    ]


def _check_raw(raw: RawOutput, grid: AnchorGrid) -> None:
    if len(raw) != len(grid):
        raise ValueError(f"raw output has {len(raw)} rows, grid has {len(grid)} anchors")


def decode_baseline(raw: RawOutput, grid: AnchorGrid, cfg: DecodeConfig | None = None) -> DecodeResult:
    """Decode every anchor's offsets, then filter, clip, and suppress.

    Needs a dense forward: a gated one (``raw.gate`` set) has NaN offsets
    on the rows it did not regress, so it is refused.
    """
    cfg = cfg or DecodeConfig()
    _check_raw(raw, grid)
    if raw.gate is not None:
        raise ValueError(f"decode_baseline needs a dense forward, got one gated at {raw.gate}")
    scores = face_scores(np.asarray(raw.logits, dtype=np.float64))
    boxes = decode_rows(grid.boxes, np.asarray(raw.offsets, dtype=np.float64))
    dets = _finalize(boxes, scores, cfg, grid.config.image_w, grid.config.image_h)
    return DecodeResult(detections=dets, decode_ops=len(grid))


def decode_improved(raw: RawOutput, grid: AnchorGrid, cfg: DecodeConfig | None = None) -> DecodeResult:
    """Score-gate first, then decode offsets only for the surviving anchors.

    A gated forward (``raw.gate`` set) regressed only the rows holding
    anchors above its gate, so a ``score_threshold`` below that gate is
    refused: it would select anchors whose offsets are NaN.
    """
    cfg = cfg or DecodeConfig()
    _check_raw(raw, grid)
    if raw.gate is not None and raw.gate > cfg.score_threshold:
        raise ValueError(
            f"output gated at {raw.gate} cannot be decoded at score_threshold {cfg.score_threshold}"
        )
    scores = face_scores(np.asarray(raw.logits, dtype=np.float64))
    selected = np.flatnonzero(scores > cfg.score_threshold)
    boxes = decode_rows(
        grid.boxes[selected], np.asarray(raw.offsets, dtype=np.float64)[selected]
    )
    dets = _finalize(boxes, scores[selected], cfg, grid.config.image_w, grid.config.image_h)
    return DecodeResult(detections=dets, decode_ops=int(selected.size))


def _bench_grid(anchor_count: int) -> AnchorGrid:
    cfg = AnchorConfig()
    if cfg.anchor_count() == anchor_count:
        return generate_anchors(cfg)
    # single-layer grid factorized as rows x cols == anchor_count
    cols = max(1, int(math.isqrt(anchor_count)))
    while anchor_count % cols:
        cols -= 1
    rows = anchor_count // cols
    single = AnchorConfig(layers=((4, 16),), image_w=cols * 4, image_h=rows * 4)
    return generate_anchors(single)


def _check_hot_fraction(hot_fraction: float) -> None:
    """Raise ValueError unless ``hot_fraction`` is in [0, 1]; NaN is not."""
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")


# shared target boxes of a synthetic output's hot anchors
_SYNTH_CLUSTERS = 8

# untimed calls of each path before a benchmark's timed repeats
_BENCH_WARMUP = 5


def synth_raw_output(
    grid: AnchorGrid,
    hot_fraction: float,
    seed: int,
    score_threshold: float = 0.1,
) -> RawOutput:
    """Seeded raw output with a controlled fraction of above-threshold anchors.

    Hot anchors score in (0.3, 0.99) and regress exactly onto
    :data:`_SYNTH_CLUSTERS` shared target boxes (so suppression stays cheap
    and output-stable); cold anchors score well below the gate.
    """
    _check_hot_fraction(hot_fraction)
    n = len(grid)
    rng = np.random.default_rng(seed)
    n_hot = int(round(hot_fraction * n))
    hot = rng.choice(n, size=n_hot, replace=False)
    hot.sort()

    probs = rng.uniform(0.002, min(0.05, score_threshold / 2), size=n)
    if n_hot:
        probs[hot] = rng.uniform(max(0.3, score_threshold * 2), 0.99, size=n_hot)
    logits = np.zeros((n, 2), dtype=np.float32)
    logits[:, 1] = np.log(probs / (1.0 - probs))

    offsets = rng.normal(0.0, 0.1, size=(n, 4)).astype(np.float32)
    if n_hot:
        w, h = grid.config.image_w, grid.config.image_h
        side = max(8.0, min(w, h) / 8.0)
        centers_x = rng.uniform(side, max(side + 1.0, w - side), size=_SYNTH_CLUSTERS)
        centers_y = rng.uniform(side, max(side + 1.0, h - side), size=_SYNTH_CLUSTERS)
        which = np.arange(n_hot) % _SYNTH_CLUSTERS
        tx1 = centers_x[which] - side / 2
        ty1 = centers_y[which] - side / 2
        rows = grid.boxes[hot]
        aw = rows[:, 2] - rows[:, 0]
        ah = rows[:, 3] - rows[:, 1]
        acx = rows[:, 0] + aw / 2
        acy = rows[:, 1] + ah / 2
        offsets[hot, 0] = (tx1 + side / 2 - acx) / aw
        offsets[hot, 1] = (ty1 + side / 2 - acy) / ah
        offsets[hot, 2] = np.log(side / aw)
        offsets[hot, 3] = np.log(side / ah)
    return RawOutput(logits=logits, offsets=offsets)


@dataclass
class BenchReport:
    anchors: int
    hot_fraction: float
    baseline_mean_ns: float
    baseline_stddev_ns: float
    improved_mean_ns: float
    improved_stddev_ns: float
    baseline_ops: int
    improved_ops: int
    outputs_equal: bool

    @property
    def speedup(self) -> float:
        return self.baseline_mean_ns / self.improved_mean_ns

    def to_csv(self, out: TextIO) -> None:
        out.write(
            "# decode-stage benchmark: measures the offset-decode workload "
            "reduction only; device-to-host transfer costs are not modeled\n"
        )
        out.write("path,anchors,hot_fraction,mean_ns,stddev_ns,decode_ops\n")
        out.write(
            f"baseline,{self.anchors},{self.hot_fraction:g},"
            f"{self.baseline_mean_ns:.0f},{self.baseline_stddev_ns:.0f},{self.baseline_ops}\n"
        )
        out.write(
            f"improved,{self.anchors},{self.hot_fraction:g},"
            f"{self.improved_mean_ns:.0f},{self.improved_stddev_ns:.0f},{self.improved_ops}\n"
        )


def bench_decode(
    anchor_count: int,
    hot_fraction: float,
    repeats: int = 50,
    seed: int = 0,
    cfg: DecodeConfig | None = None,
) -> BenchReport:
    """Time both decode paths on a seeded synthetic raw output.

    Asserts on every repeat that the two paths agree detection-for-
    detection; timings are wall-clock (perf_counter_ns) after warmup.
    """
    if anchor_count < 1:
        raise ValueError(f"anchor_count must be >= 1, got {anchor_count}")
    _check_hot_fraction(hot_fraction)
    if repeats < 10:
        raise ValueError(f"repeats must be >= 10, got {repeats}")
    cfg = cfg or DecodeConfig()
    grid = _bench_grid(anchor_count)
    raw = synth_raw_output(grid, hot_fraction, seed, score_threshold=cfg.score_threshold)
    paths = (decode_baseline, decode_improved)

    for _ in range(_BENCH_WARMUP):
        for decode in paths:
            decode(raw, grid, cfg)

    ns = np.empty((2, repeats))
    equal = True
    gc_was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for r in range(repeats):
            # alternate measurement order so cache/scheduler drift hits both paths
            results = [None, None]
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                t0 = time.perf_counter_ns()
                results[i] = paths[i](raw, grid, cfg)
                ns[i, r] = time.perf_counter_ns() - t0
            rb, ri = results
            if rb.detections != ri.detections:
                equal = False
    finally:
        if gc_was_on:
            gc.enable()
    return BenchReport(
        anchors=len(grid),
        hot_fraction=hot_fraction,
        baseline_mean_ns=float(ns[0].mean()),
        baseline_stddev_ns=float(ns[0].std()),
        improved_mean_ns=float(ns[1].mean()),
        improved_stddev_ns=float(ns[1].std()),
        baseline_ops=rb.decode_ops,
        improved_ops=ri.decode_ops,
        outputs_equal=equal,
    )


def write_detections(out: TextIO, per_image: Mapping[str, Iterable[Detection]]) -> None:
    """Emit the face-benchmark submission text format.

    Per image: a name line, a count line, then one ``x y w h score`` line
    per detection (6 significant digits).
    """
    for name in per_image:
        dets = list(per_image[name])
        out.write(f"{name}\n{len(dets)}\n")
        for d in dets:
            b = d.box
            out.write(
                f"{b.x1:.6g} {b.y1:.6g} {b.width:.6g} {b.height:.6g} {d.score:.6g}\n"
            )


def read_detections(text: str) -> dict[str, list[Detection]]:
    """Parse the submission text format written by :func:`write_detections`.

    Every fault raises a ``ValueError`` naming its line: a missing, bad or
    negative count, a short block, a field that is not a finite number, a
    box with no area and an image name that appears twice.
    """
    lines = text.splitlines()
    out: dict[str, list[Detection]] = {}
    name_line: dict[str, int] = {}
    i = 0
    while i < len(lines):
        name = lines[i].strip()
        if not name:
            i += 1
            continue
        if name in name_line:
            raise ValueError(f"line {i + 1}: image {name!r} repeats line {name_line[name]}")
        name_line[name] = i + 1
        if i + 1 >= len(lines):
            raise ValueError(f"line {i + 1}: missing detection count for {name!r}")
        try:
            count = int(lines[i + 1])
        except ValueError as e:
            raise ValueError(f"line {i + 2}: bad detection count {lines[i + 1]!r}") from e
        if count < 0:
            raise ValueError(f"line {i + 2}: negative detection count {count}")
        dets = []
        for j in range(count):
            idx = i + 2 + j
            if idx >= len(lines):
                raise ValueError(f"line {idx + 1}: truncated detections for {name!r}")
            parts = lines[idx].split()
            if len(parts) != 5:
                raise ValueError(f"line {idx + 1}: expected 'x y w h score', got {lines[idx]!r}")
            try:
                x, y, w, h, score = (float(v) for v in parts)
            except ValueError as e:
                raise ValueError(f"line {idx + 1}: {e}") from e
            # x + w also catches finite sizes whose far corner overflows
            if not all(math.isfinite(v) for v in (x, y, x + w, y + h, score)):
                raise ValueError(f"line {idx + 1}: non-finite box or score in {lines[idx]!r}")
            try:
                box = Box.from_xywh(x, y, w, h)
            except ValueError as e:
                raise ValueError(f"line {idx + 1}: {e}") from e
            dets.append(Detection(box=box, score=score))
        out[name] = dets
        i += 2 + count
    return out
