"""Boxes, Jaccard overlap, anchor grids, and receptive-field arithmetic.

Everything here is pure and immutable: boxes and configs are frozen
dataclasses, grids are built once and never mutated, so values can be
shared freely across threads.

Coordinate convention: corner boxes ``(x1, y1, x2, y2)`` in continuous
pixel units with ``x2 > x1`` and ``y2 > y1``; area is
``(x2 - x1) * (y2 - y1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "Box",
    "AnchorConfig",
    "LayerLayout",
    "AnchorGrid",
    "LayerSpec",
    "RFInfo",
    "pairwise_iou",
    "boxes_to_array",
    "generate_anchors",
    "receptive_field",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel coordinates, corners ``(x1, y1, x2, y2)``."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(
                f"degenerate box: ({self.x1}, {self.y1}, {self.x2}, {self.y2}) "
                "requires x2 > x1 and y2 > y1"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "Box":
        """Build from top-left corner plus width/height (annotation style)."""
        return cls(x, y, x + w, y + h)


def boxes_to_array(boxes: Iterable[Box]) -> np.ndarray:
    """Stack boxes into an (N, 4) float64 array of corner rows."""
    rows = [b.as_tuple() for b in boxes]
    if not rows:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64)


def _validate_box_rows(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"{name} must have shape (N, 4); got {arr.shape}")
    bad = np.flatnonzero((arr[:, 2] <= arr[:, 0]) | (arr[:, 3] <= arr[:, 1]))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"degenerate box at {name}[{i}]: {tuple(arr[i])}")
    return arr


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix for two (N, 4) / (M, 4) arrays of corner boxes.

    Rows with non-positive width or height are rejected with the offending
    index. Disjoint pairs are exactly 0.
    """
    a = _validate_box_rows(a, "a")
    b = _validate_box_rows(b, "b")
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


_DEFAULT_LAYERS: tuple[tuple[int, int], ...] = (
    (4, 16),
    (8, 32),
    (16, 64),
    (32, 128),
    (64, 256),
    (128, 512),
)


@dataclass(frozen=True)
class AnchorConfig:
    """Per-layer (stride, anchor_size) scheme plus the input image size.

    The stock scheme tiles one square anchor per feature-map cell with sizes
    doubling from 16 to 512 px and ``anchor_size = 4 * stride``.
    """

    layers: tuple[tuple[int, int], ...] = _DEFAULT_LAYERS
    image_w: int = 640
    image_h: int = 640

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("anchor config needs at least one layer")
        strides = [s for s, _ in self.layers]
        if any(s <= 0 for s in strides) or any(sz <= 0 for _, sz in self.layers):
            raise ValueError(f"strides and sizes must be positive: {self.layers}")
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must be strictly increasing: {strides}")
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError(f"image size must be positive: {self.image_w}x{self.image_h}")
        object.__setattr__(self, "layers", tuple((int(s), int(z)) for s, z in self.layers))

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.layers)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(z for _, z in self.layers)

    @classmethod
    def toy(cls, image_w: int = 64, image_h: int = 64) -> "AnchorConfig":
        """Two-layer desk-scale scheme (strides 4 and 8)."""
        return cls(layers=((4, 16), (8, 32)), image_w=image_w, image_h=image_h)

    def layer_dims(self) -> list[tuple[int, int]]:
        """(rows, cols) per layer under ceil division of the image size."""
        return [
            (math.ceil(self.image_h / s), math.ceil(self.image_w / s))
            for s in self.strides
        ]

    def anchor_count(self) -> int:
        return sum(r * c for r, c in self.layer_dims())

    def check_image(self, name: str, image: np.ndarray) -> None:
        """Raise ValueError, naming the image ``name``, unless it has the size the anchors are laid out for."""
        h, w = image.shape[-2:]
        if (h, w) != (self.image_h, self.image_w):
            raise ValueError(f"{name} is {w}x{h}, the net's anchors are laid out for {self.image_w}x{self.image_h}")


@dataclass(frozen=True)
class LayerLayout:
    """Placement of one anchor layer inside the flat grid."""

    start: int
    rows: int
    cols: int
    stride: int
    size: int

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class AnchorGrid:
    """Flat, layer-major / row-major list of square anchors.

    ``boxes`` is an (N, 4) corner array; ``layers`` records where each
    anchor layer starts and its (rows, cols) extent. The anchor for grid
    cell (r, c) of a layer is centered at ``((c + 0.5) * stride,
    (r + 0.5) * stride)``. Anchors are not clipped to the image.
    """

    config: AnchorConfig
    boxes: np.ndarray = field(repr=False)
    layers: tuple[LayerLayout, ...]

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def layer_slice(self, i: int) -> slice:
        layout = self.layers[i]
        return slice(layout.start, layout.start + layout.count)

    def box(self, i: int) -> Box:
        x1, y1, x2, y2 = self.boxes[i]
        return Box(float(x1), float(y1), float(x2), float(y2))

    def to_csv(self, out: TextIO) -> None:
        """Dump as ``layer,row,col,x1,y1,x2,y2`` rows."""
        out.write("layer,row,col,x1,y1,x2,y2\n")
        for li, layout in enumerate(self.layers):
            block = self.boxes[self.layer_slice(li)].reshape(layout.rows, layout.cols, 4)
            for r in range(layout.rows):
                for c in range(layout.cols):
                    x1, y1, x2, y2 = block[r, c]
                    out.write(f"{li},{r},{c},{x1:.9g},{y1:.9g},{x2:.9g},{y2:.9g}\n")


def generate_anchors(cfg: AnchorConfig) -> AnchorGrid:
    """Tile one square anchor per feature-map cell for every layer in cfg.

    Feature-map dims use ceil division, so off-stride image sizes still get
    full coverage; anchors near the border may extend outside the image.
    """
    blocks: list[np.ndarray] = []
    layouts: list[LayerLayout] = []
    start = 0
    for (stride, size), (rows, cols) in zip(cfg.layers, cfg.layer_dims()):
        cy = (np.arange(rows, dtype=np.float64) + 0.5) * stride
        cx = (np.arange(cols, dtype=np.float64) + 0.5) * stride
        gx, gy = np.meshgrid(cx, cy)
        half = size / 2.0
        block = np.stack([gx - half, gy - half, gx + half, gy + half], axis=-1)
        blocks.append(block.reshape(-1, 4))
        layouts.append(LayerLayout(start=start, rows=rows, cols=cols, stride=stride, size=size))
        start += rows * cols
    return AnchorGrid(config=cfg, boxes=np.concatenate(blocks, axis=0), layers=tuple(layouts))


@dataclass(frozen=True)
class LayerSpec:
    """One conv stage for receptive-field accounting: odd kernel, stride >= 1."""

    kernel: int
    stride: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class RFInfo:
    """Receptive-field size and effective stride (jump) after a conv stack."""

    rf_size: int
    jump: int
    trace: tuple[tuple[str, int, int, int, int], ...]  # (name, kernel, stride, rf, jump)


def receptive_field(stack: Sequence[LayerSpec]) -> RFInfo:
    """Accumulate rf/jump through a stack: rf += (k-1)*jump, then jump *= s."""
    if not stack:
        raise ValueError("receptive_field needs a non-empty stack")
    rf, jump = 1, 1
    trace: list[tuple[str, int, int, int, int]] = []
    for i, layer in enumerate(stack):
        rf += (layer.kernel - 1) * jump
        jump *= layer.stride
        trace.append((layer.name or f"layer{i}", layer.kernel, layer.stride, rf, jump))
    return RFInfo(rf_size=rf, jump=jump, trace=tuple(trace))
