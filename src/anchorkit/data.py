"""Data ingestion and synthesis.

Covers the face-benchmark ground-truth text format (filename line, box
count line, then ``x y w h blur expression illumination invalid
occlusion pose`` lines), binary PGM/PPM images, a seeded synthetic
"bright squares on noise" dataset for desk-scale training, and the
training-time augmentation (random square crop, resize, horizontal
flip, brightness jitter).

The pipeline is grayscale: P6 color images are converted to luma at
load time. All randomized operations are pure functions of their seed;
per-sample generator streams are derived from (seed, index) so parallel
and serial generation agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import Box
from .evalkit import GroundTruthSet

__all__ = [
    "FaceAnnotation",
    "AnnotationRecord",
    "parse_widerface_annotations",
    "serialize_widerface_annotations",
    "annotations_to_ground_truth",
    "load_ppm",
    "save_pgm",
    "SynthConfig",
    "synth_dataset",
    "sample_rng",
    "AugConfig",
    "augment",
]


@dataclass(frozen=True)
class FaceAnnotation:
    """One annotated face: top-left xywh box plus the six attribute flags."""

    x: int
    y: int
    w: int
    h: int
    blur: int = 0
    expression: int = 0
    illumination: int = 0
    invalid: int = 0
    occlusion: int = 0
    pose: int = 0

    @property
    def ignore(self) -> bool:
        """Flagged invalid or degenerate; kept but excluded from evaluation."""
        return bool(self.invalid) or self.w <= 0 or self.h <= 0

    def to_line(self) -> str:
        return (
            f"{self.x} {self.y} {self.w} {self.h} {self.blur} {self.expression} "
            f"{self.illumination} {self.invalid} {self.occlusion} {self.pose}"
        )


@dataclass
class AnnotationRecord:
    image_path: str
    faces: list[FaceAnnotation] = field(default_factory=list)


_PLACEHOLDER = "0 0 0 0 0 0 0 0 0 0"


def parse_widerface_annotations(lines: Iterable[str] | str) -> list[AnnotationRecord]:
    """Parse the ground-truth text format into records.

    Zero-count images may carry a single all-zero placeholder box line,
    which is consumed and skipped. Malformed counts, non-numeric box
    fields and an image name that repeats an earlier one raise with the
    offending line number.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows = [line.rstrip("\n") for line in lines]
    records: list[AnnotationRecord] = []
    seen: dict[str, int] = {}
    i = 0
    while i < len(rows):
        name = rows[i].strip()
        if not name:
            i += 1
            continue
        if name in seen:
            raise ValueError(f"line {i + 1}: image {name!r} repeats line {seen[name]}")
        seen[name] = i + 1
        if i + 1 >= len(rows):
            raise ValueError(f"line {i + 2}: missing box count after {name!r}")
        try:
            count = int(rows[i + 1])
        except ValueError as e:
            raise ValueError(f"line {i + 2}: bad box count {rows[i + 1]!r}") from e
        if count < 0:
            raise ValueError(f"line {i + 2}: negative box count {count}")
        i += 2
        faces: list[FaceAnnotation] = []
        if count == 0:
            if i < len(rows) and rows[i].strip() == _PLACEHOLDER:
                i += 1  # placeholder row for empty images
        else:
            for j in range(count):
                if i >= len(rows):
                    raise ValueError(f"line {i + 1}: truncated boxes for {name!r}")
                parts = rows[i].split()
                if len(parts) != 10:
                    raise ValueError(
                        f"line {i + 1}: expected 10 fields, got {len(parts)}: {rows[i]!r}"
                    )
                try:
                    vals = [int(p) for p in parts]
                except ValueError as e:
                    raise ValueError(f"line {i + 1}: non-numeric field in {rows[i]!r}") from e
                faces.append(FaceAnnotation(*vals))
                i += 1
        records.append(AnnotationRecord(image_path=name, faces=faces))
    return records


def serialize_widerface_annotations(records: Sequence[AnnotationRecord]) -> str:
    """Inverse of the parser; empty records get the conventional placeholder row."""
    chunks: list[str] = []
    for rec in records:
        chunks.append(rec.image_path)
        chunks.append(str(len(rec.faces)))
        if rec.faces:
            chunks.extend(face.to_line() for face in rec.faces)
        else:
            chunks.append(_PLACEHOLDER)
    return "\n".join(chunks) + "\n"


def annotations_to_ground_truth(records: Sequence[AnnotationRecord]) -> GroundTruthSet:
    """Convert records to an evaluation ground-truth set.

    Degenerate boxes cannot be represented as Box values; they are padded
    to 1 px and ignore-flagged so counts still line up with the file.
    """
    gts = GroundTruthSet()
    for rec in records:
        boxes, flags = [], []
        for face in rec.faces:
            w = max(face.w, 1)
            h = max(face.h, 1)
            boxes.append(Box.from_xywh(face.x, face.y, w, h))
            flags.append(face.ignore)
        gts.add_image(rec.image_path, boxes, flags)
    return gts


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # whitespace- and comment-aware header tokenizer
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated image header")
    return data[start:pos], pos


def load_ppm(data: bytes) -> np.ndarray:
    """Decode binary P5 (grayscale) or P6 (color) into a (1, H, W) float32 image.

    Values are scaled to [0, 1]; P6 is reduced to luma
    0.299 R + 0.587 G + 0.114 B. Only maxval 255 is supported. A width,
    height or maxval that is not a decimal integer raises a ``ValueError``
    naming the field.
    """
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported image magic {magic!r} (want binary P5/P6)")
    fields = []
    for field_name in ("width", "height", "maxval"):
        tok, pos = _read_token(data, pos)
        if not tok.isdigit():
            raise ValueError(f"image header field {field_name}: expected a decimal integer, got {tok!r}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (want 255)")
    if w <= 0 or h <= 0:
        raise ValueError(f"bad image dimensions {w}x{h}")
    pos += 1  # single whitespace after maxval
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ValueError(f"truncated pixel data: expected {need} bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
    if channels == 1:
        gray = pixels.reshape(h, w)
    else:
        rgb = pixels.reshape(h, w, 3)
        gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return gray.reshape(1, h, w).astype(np.float32)


def save_pgm(image: np.ndarray) -> bytes:
    """Encode a (1, H, W) or (H, W) [0, 1] image as binary P5."""
    if image.ndim == 3:
        image = image[0]
    h, w = image.shape
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + data.tobytes()


@dataclass(frozen=True)
class SynthConfig:
    """Bright-squares-on-noise scene generator settings.

    Faces are axis-aligned bright squares, always strictly brighter than
    the background so every ground truth is recoverable by thresholding.

    Distractors are NOT ground truths: each one is a face-sized bright
    square with a thin bar protruding from one edge. Seen up close the
    body is indistinguishable from a face; the protrusion is the only
    give-away, and it lies at the periphery where a detector with a
    small receptive field never sees it while one with added context
    does. ``distractor_rate`` is the expected number per image; keeping
    it well below one per image leaves them rare enough that a
    context-blind detector stays confidently wrong about them.
    """

    image_size: int = 64
    faces_min: int = 1
    faces_max: int = 3
    face_size_min: int = 12
    face_size_max: int = 28
    noise_amplitude: float = 0.25
    face_contrast: float = 0.6  # face brightness = noise_amplitude + contrast (+/- a little)
    distractor_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.face_size_min < 8:
            raise ValueError(f"face sizes must be >= 8 px, got {self.face_size_min}")
        if self.face_size_min > self.face_size_max:
            raise ValueError(f"face_size_min must be <= face_size_max, got {self.face_size_min} > {self.face_size_max}")
        if self.face_size_max > self.image_size:
            raise ValueError(
                f"faces must fit in the image: {self.face_size_max} > {self.image_size}"
            )
        if not (0 < self.faces_min <= self.faces_max):
            raise ValueError("need 0 < faces_min <= faces_max")
        if self.distractor_rate < 0:
            raise ValueError("distractor_rate must be >= 0")
        if not (0.0 <= self.noise_amplitude < 1.0) or self.face_contrast <= 0.0:
            raise ValueError("need 0 <= noise_amplitude < 1 and face_contrast > 0")


def sample_rng(seed: int, *indices: int) -> np.random.Generator:
    """Independent per-sample stream derived from (seed, indices)."""
    return np.random.default_rng(np.random.SeedSequence((seed, *indices)))


def _place_rect(rng: np.random.Generator, size: int, w: int, h: int) -> tuple[int, int]:
    x = int(rng.integers(0, size - w + 1))
    y = int(rng.integers(0, size - h + 1))
    return x, y


# distractor tag geometry (pixels): protruding bar thickness; length is side/2
_TAG_THICKNESS = 4


def _rects_intersect(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _place_distractor(
    rng: np.random.Generator, size: int, side: int, blocked: list[tuple[int, int, int, int]]
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]] | None:
    """Find (square, protruding tag bar) placements avoiding blocked rects.

    The tag sticks straight out from the middle of one edge, so rescales
    and flips keep it attached to its square. A zoom-in crop does not: it
    can keep most of the square while cutting the tag short or leaving it
    out, and the square, still background, then looks like a face. (Over 3
    epochs of seed-42 training crops at ratio 0.3-1.0, 106 views kept at
    least half of a distractor's square; 20 of them cut the tag and 4
    dropped it.) The default augmentation does not crop.
    """
    length = max(6, side // 2)
    for _ in range(50):
        edge = int(rng.integers(0, 4))  # tag points left/right/up/down
        x = int(rng.integers(0, size - side + 1))
        y = int(rng.integers(0, size - side + 1))
        square = (x, y, x + side, y + side)
        mid_y = y + (side - _TAG_THICKNESS) // 2
        mid_x = x + (side - _TAG_THICKNESS) // 2
        if edge == 0:
            tag = (x - length, mid_y, x, mid_y + _TAG_THICKNESS)
        elif edge == 1:
            tag = (x + side, mid_y, x + side + length, mid_y + _TAG_THICKNESS)
        elif edge == 2:
            tag = (mid_x, y - length, mid_x + _TAG_THICKNESS, y)
        else:
            tag = (mid_x, y + side, mid_x + _TAG_THICKNESS, y + side + length)
        if tag[0] < 0 or tag[1] < 0 or tag[2] > size or tag[3] > size:
            continue
        zone = (
            min(square[0], tag[0]) - 1,
            min(square[1], tag[1]) - 1,
            max(square[2], tag[2]) + 1,
            max(square[3], tag[3]) + 1,
        )
        if any(_rects_intersect(zone, b) for b in blocked):
            continue
        return square, tag
    return None


def synth_dataset(
    cfg: SynthConfig, n_images: int, seed: int
) -> tuple[list[np.ndarray], GroundTruthSet]:
    """Generate seeded synthetic images and their ground truths.

    Image key i is ``{i:06d}.pgm``. Faces never extend outside the image.
    Tagged distractor squares avoid the faces entirely (tag included) so
    their label is unambiguous; they are not recorded as ground truths.
    """
    images: list[np.ndarray] = []
    gts = GroundTruthSet()
    size = cfg.image_size
    for i in range(n_images):
        rng = sample_rng(seed, i)

        # faces stay clear of each other: adjoining bright squares would merge
        # into protrusion-like shapes and blur the face/distractor boundary
        n_faces = int(rng.integers(cfg.faces_min, cfg.faces_max + 1))
        boxes: list[Box] = []
        for _ in range(n_faces):
            side = int(rng.integers(cfg.face_size_min, cfg.face_size_max + 1))
            for _attempt in range(50):
                x, y = _place_rect(rng, size, side, side)
                candidate = Box.from_xywh(x, y, side, side)
                zone = (int(candidate.x1) - 4, int(candidate.y1) - 4,
                        int(candidate.x2) + 4, int(candidate.y2) + 4)
                if all(
                    not _rects_intersect(zone, (int(b.x1), int(b.y1), int(b.x2), int(b.y2)))
                    for b in boxes
                ):
                    boxes.append(candidate)
                    break

        blocked = [
            (int(b.x1) - 2, int(b.y1) - 2, int(b.x2) + 2, int(b.y2) + 2) for b in boxes
        ]
        whole, frac = divmod(cfg.distractor_rate, 1.0)
        n_distract = int(whole) + (1 if rng.random() < frac else 0)
        distractors: list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]] = []
        for _ in range(n_distract):
            lo = min(cfg.face_size_min + 6, cfg.face_size_max)
            hi = min(lo + 4, cfg.face_size_max)
            side = int(rng.integers(lo, hi + 1))
            placed = _place_distractor(rng, size, side, blocked)
            if placed is None:
                continue
            square, tag = placed
            distractors.append((square, tag))
            blocked.append(
                (min(square[0], tag[0]), min(square[1], tag[1]),
                 max(square[2], tag[2]), max(square[3], tag[3]))
            )

        img = rng.uniform(0.0, cfg.noise_amplitude, size=(size, size)).astype(np.float32)
        for square, tag in distractors:
            level = min(cfg.noise_amplitude + cfg.face_contrast * float(rng.uniform(0.9, 1.0)), 1.0)
            img[square[1] : square[3], square[0] : square[2]] = level
            img[tag[1] : tag[3], tag[0] : tag[2]] = level
        for b in boxes:
            level = min(cfg.noise_amplitude + cfg.face_contrast * float(rng.uniform(0.9, 1.0)), 1.0)
            img[int(b.y1) : int(b.y2), int(b.x1) : int(b.x2)] = level

        images.append(img.reshape(1, size, size))
        gts.add_image(f"{i:06d}.pgm", boxes)
    return images, gts



@dataclass(frozen=True)
class AugConfig:
    """Training augmentation: square crop, resize, flip, brightness jitter.

    The crop is off by default (``crop_ratio_min`` 1.0 keeps the whole
    square image). A zoom-in crop of ratio r scales faces by 1/r: at 0.3
    the 12-28 px synthetic faces grow to 93 px, far past the 16/32 px toy
    anchors, which reach IoU 0.5 only up to about 45 px. Those views teach
    nothing about the scales that detection sees, and the 16 px anchors
    inside such a face (IoU < 0.3) are background to the hard-negative
    mine, so a uniformly bright window, which is how a 16-22 px square
    looks at stride 4, is taught as background too. Such crops also cut
    the tag off distractors (see :func:`_place_distractor`).
    """

    crop_ratio_min: float = 1.0
    crop_ratio_max: float = 1.0
    hflip_prob: float = 0.5
    brightness_jitter: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.crop_ratio_min <= self.crop_ratio_max <= 1.0):
            raise ValueError(
                f"crop ratios must satisfy 0 < min <= max <= 1: "
                f"{self.crop_ratio_min}..{self.crop_ratio_max}"
            )
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError(f"hflip_prob must be in [0, 1], got {self.hflip_prob}")
        if self.brightness_jitter < 0:
            raise ValueError(f"brightness_jitter must be >= 0, got {self.brightness_jitter}")


# A crop drops a box that keeps less than this share of its area.
_MIN_BOX_RETAINED = 0.5


def _crop_boxes(boxes: Sequence[Box], x0: float, y0: float, side: float) -> list[Box]:
    out = []
    for b in boxes:
        nx1, ny1 = max(b.x1 - x0, 0.0), max(b.y1 - y0, 0.0)
        nx2, ny2 = min(b.x2 - x0, side), min(b.y2 - y0, side)
        if nx2 <= nx1 or ny2 <= ny1:
            continue
        if (nx2 - nx1) * (ny2 - ny1) < _MIN_BOX_RETAINED * b.area:
            continue
        out.append(Box(nx1, ny1, nx2, ny2))
    return out


def _nearest_resize(patch: np.ndarray, out_size: int) -> np.ndarray:
    _, h, w = patch.shape
    ys = (np.arange(out_size) * h) // out_size
    xs = (np.arange(out_size) * w) // out_size
    return patch[:, ys][:, :, xs]


def augment(
    image: np.ndarray,
    gts: Sequence[Box],
    cfg: AugConfig,
    size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[Box]]:
    """Random square crop + resize + flip + brightness jitter.

    Crop side is ratio * min(H, W) at a uniform position; boxes are
    translated, clipped, and dropped when less than half their area
    survives. Crops that lose every box (on images that had any) are
    retried up to 50 times before falling back to the full centered
    square. Output is ``(size, size)``.
    """
    if size <= 0:
        raise ValueError(f"output size must be positive, got {size}")
    _, h, w = image.shape
    short = min(h, w)
    for _attempt in range(50):
        ratio = float(rng.uniform(cfg.crop_ratio_min, cfg.crop_ratio_max))
        side = max(1, int(round(ratio * short)))
        x0 = int(rng.integers(0, w - side + 1))
        y0 = int(rng.integers(0, h - side + 1))
        boxes = _crop_boxes(gts, x0, y0, side)
        if boxes or not gts:
            break
    else:
        side = short
        x0, y0 = (w - side) // 2, (h - side) // 2
        boxes = _crop_boxes(gts, x0, y0, side)

    patch = image[:, y0 : y0 + side, x0 : x0 + side]
    out = _nearest_resize(patch, size).astype(np.float32)
    scale = size / side
    boxes = [Box(b.x1 * scale, b.y1 * scale, b.x2 * scale, b.y2 * scale) for b in boxes]

    if cfg.hflip_prob > 0 and rng.random() < cfg.hflip_prob:
        out = out[:, :, ::-1].copy()
        boxes = [Box(size - b.x2, b.y1, size - b.x1, b.y2) for b in boxes]

    if cfg.brightness_jitter > 0:
        delta = float(rng.uniform(-cfg.brightness_jitter, cfg.brightness_jitter))
        out = np.clip(out + delta, 0.0, 1.0)
    return out, boxes
