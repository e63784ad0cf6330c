"""A small from-scratch conv detector: backbone, fusion, split heads.

The backbone is a plain stack of 3x3 conv stages (ReLU after every
conv; a stage's stride sits on its last conv). Selected stages ("taps")
feed the detection layers: each tap is projected to a common channel
count by a 1x1 conv, optionally fused with the 2x-upsampled projection
of its successor tap (one hop only, not a full pyramid), and finally
read by a classification branch (2 filters) and a regression branch
(4 filters).

Per-layer head maps are flattened row-major and concatenated
layer-major, so row i of the output aligns with anchor i of
``generate_anchors`` for the matching anchor config.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable

import numpy as np

from .geometry import AnchorConfig, LayerSpec
from .layers import Workspace, conv2d, conv2d_backward, fuse, upsample2_backward

__all__ = [
    "StageSpec",
    "NetConfig",
    "Network",
    "RawOutput",
    "build_network",
    "detection_head",
    "face_scores",
    "forward_detect",
    "save_weights",
    "load_weights",
    "tap_conv_stacks",
]

# Images are grayscale: one input channel.
_IN_CHANNELS = 1


@dataclass(frozen=True)
class StageSpec:
    n_convs: int
    channels: int
    stride: int

    def __post_init__(self) -> None:
        if self.n_convs < 1 or self.channels < 1 or self.stride < 1:
            raise ValueError(f"bad stage spec: {self}")


@dataclass(frozen=True)
class RawOutput:
    """Per-anchor head outputs: (N, 2) logits as (background, face), (N, 4) offsets.

    ``gate`` is the score threshold of a gated forward (see
    :func:`forward_detect`): offsets are then finite only on map rows that
    hold an anchor scoring above it, and NaN elsewhere.
    """

    logits: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    gate: float | None = None

    def __post_init__(self) -> None:
        n = self.logits.shape[0]
        if self.logits.shape != (n, 2) or self.offsets.shape != (n, 4):
            raise ValueError(
                f"raw output shapes must be (N, 2)/(N, 4), got "
                f"{self.logits.shape}/{self.offsets.shape}"
            )

    def __len__(self) -> int:
        return int(self.logits.shape[0])


@dataclass(frozen=True)
class NetConfig:
    """Detector topology tied to an anchor config.

    ``taps`` are backbone stage indices whose cumulative stride must
    equal the matching anchor layer's stride. ``head_depth=0`` drops
    the per-branch conv trunks and applies the terminal 2/4-filter convs
    directly to the (projected, fused) feature map — the shared-head
    baseline used for ablations.
    """

    stages: tuple[StageSpec, ...]
    taps: tuple[int, ...]
    anchors: AnchorConfig
    head_channels: int = 64
    head_depth: int = 2
    fusion: bool = True

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("net config needs at least one stage")
        if any(b <= a for a, b in zip(self.taps, self.taps[1:])):
            raise ValueError(f"taps must be strictly increasing: {self.taps}")
        if len(self.taps) != len(self.anchors.layers):
            raise ValueError(
                f"{len(self.taps)} taps vs {len(self.anchors.layers)} anchor layers"
            )
        if self.taps and (self.taps[0] < 0 or self.taps[-1] >= len(self.stages)):
            raise ValueError(f"tap index out of range: {self.taps}")
        strides = self.cumulative_strides()
        for ti, si in enumerate(self.taps):
            want = self.anchors.strides[ti]
            if strides[si] != want:
                raise ValueError(
                    f"tap {ti} (stage {si}) has cumulative stride {strides[si]}, "
                    f"anchor layer expects {want}"
                )
        if self.head_depth < 0 or self.head_channels < 1:
            raise ValueError("head_depth must be >= 0 and head_channels >= 1")

    def cumulative_strides(self) -> list[int]:
        acc, out = 1, []
        for st in self.stages:
            acc *= st.stride
            out.append(acc)
        return out

    @classmethod
    def toy(cls, image_w: int = 64, image_h: int = 64, **heads: Any) -> "NetConfig":
        """Two-tap desk-scale detector (strides 4 and 8).

        ``heads`` sets other fields, such as ``fusion`` or ``head_depth``;
        the rest keep their defaults.
        """
        return cls(
            stages=(
                StageSpec(1, 8, 1),
                StageSpec(1, 16, 2),
                StageSpec(2, 32, 2),
                StageSpec(2, 64, 2),
            ),
            taps=(2, 3),
            anchors=AnchorConfig.toy(image_w, image_h),
            **heads,
        )


@dataclass
class Network:
    """A detector's topology and weights.

    ``work`` holds the buffers an inference forward reuses from image to
    image, so a Network runs one :func:`forward_detect` at a time.
    """

    config: NetConfig
    params: dict[str, np.ndarray] = field(repr=False)
    work: Workspace = field(default_factory=Workspace, init=False, repr=False, compare=False)

    def astype(self, dtype) -> "Network":
        return Network(
            config=self.config,
            params={k: v.astype(dtype) for k, v in self.params.items()},
        )


def _he_conv(rng: np.random.Generator, out_ch: int, in_ch: int, k: int) -> np.ndarray:
    std = np.sqrt(2.0 / (in_ch * k * k))
    return rng.normal(0.0, std, size=(out_ch, in_ch, k, k)).astype(np.float32)


def _head_param_specs(cfg: NetConfig, prefix: str) -> list[tuple[str, int, int, int]]:
    # (name, out_ch, in_ch, kernel) in creation order
    specs = []
    for branch, out_ch in (("cls", 2), ("reg", 4)):
        for d in range(cfg.head_depth):
            specs.append((f"{prefix}.{branch}{d}", cfg.head_channels, cfg.head_channels, 3))
        specs.append((f"{prefix}.{branch}_out", out_ch, cfg.head_channels, 3))
    return specs


def build_network(cfg: NetConfig, seed: int = 0) -> Network:
    """Deterministically initialize all parameters (He fan-in, zero biases)."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}

    def add_conv(name: str, out_ch: int, in_ch: int, k: int) -> None:
        params[f"{name}.w"] = _he_conv(rng, out_ch, in_ch, k)
        params[f"{name}.b"] = np.zeros(out_ch, dtype=np.float32)

    in_ch = _IN_CHANNELS
    for si, stage in enumerate(cfg.stages):
        for ci in range(stage.n_convs):
            add_conv(f"stage{si}.conv{ci}", stage.channels, in_ch, 3)
            in_ch = stage.channels
    for ti, si in enumerate(cfg.taps):
        add_conv(f"proj{ti}", cfg.head_channels, cfg.stages[si].channels, 1)
    for ti in range(len(cfg.taps)):
        for name, out_ch, tap_in, k in _head_param_specs(cfg, f"head{ti}"):
            add_conv(name, out_ch, tap_in, k)
    return Network(config=cfg, params=params)


def face_scores(logits: np.ndarray) -> np.ndarray:
    """Softmax face-class probability per anchor, max-subtraction stabilized.

    Works column by column on the (N, 2) logits: numpy's reductions along
    a length-2 axis cost far more than the element-wise ops they stand
    for, and the per-element arithmetic (same max, same subtraction,
    two-term sum) is unchanged, so the result is bit-identical.
    """
    bg, face = logits[:, 0], logits[:, 1]
    m = np.maximum(bg, face)
    e_bg = np.exp(bg - m)
    e_face = np.exp(face - m)
    return e_face / (e_bg + e_face)


def _row_spans(rows: np.ndarray, halo: int, height: int) -> list[tuple[int, int]]:
    """Merged half-open intervals covering each of ``rows`` widened by ``halo``."""
    spans: list[tuple[int, int]] = []
    for y in rows.tolist():
        lo, hi = max(0, y - halo), min(height, y + halo + 1)
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    return spans


def _branch(
    x: np.ndarray,
    params: dict[str, np.ndarray],
    prefix: str,
    branch: str,
    head_depth: int,
    rows: np.ndarray | None = None,
    work: Workspace | None = None,
):
    """One head branch: ``head_depth`` trunk convs with ReLU, then the terminal conv.

    Returns ``(map, caches)``; with ``work`` (inference) the convs run in
    its buffers and their caches are None, and each trunk conv writes its
    output straight into the zero-framed phase plane its successor reads
    (``conv2d``'s ``frame``), alternating between the buffers ``chain0``
    and ``chain1``, so that the successor fills no planes. ``rows`` (sorted
    map rows) restricts the branch to what those rows of its output read:
    each conv computes them widened by the (k - 1) // 2 halo of every conv
    after it. The map's other rows are then not defined.
    """
    names = [f"{prefix}.{branch}{d}" for d in range(head_depth)]
    names.append(f"{prefix}.{branch}_out")
    caches = []
    framed = None
    for i, name in enumerate(names):
        spans = None
        if rows is not None:
            halo = sum((params[f"{later}.w"].shape[2] - 1) // 2 for later in names[i + 1 :])
            spans = _row_spans(rows, halo, x.shape[1])
        w, b = params[f"{name}.w"], params[f"{name}.b"]
        trunk = i + 1 < len(names)
        frame = work is not None and trunk
        slot = f"chain{i % 2}" if frame else branch
        x, cc = conv2d(x, w, b, rows=spans, relu=trunk, work=work, slot=slot, framed=framed, frame=frame)
        framed = slot if frame else None
        caches.append((name, cc))
    return x, caches


def _head_backward(cls_caches: list, reg_caches: list) -> Callable:
    def backward(grad_cls: np.ndarray, grad_reg: np.ndarray):
        grads: dict[str, np.ndarray] = {}
        grad_feature = None
        for g, caches in ((grad_cls, cls_caches), (grad_reg, reg_caches)):
            for name, cc in reversed(caches):
                g, gw, gb = conv2d_backward(g, cc)
                grads[f"{name}.w"] = gw
                grads[f"{name}.b"] = gb
            grad_feature = g if grad_feature is None else grad_feature + g
        return grad_feature, grads

    return backward


def detection_head(
    feature: np.ndarray,
    params: dict[str, np.ndarray],
    prefix: str = "head0",
    head_depth: int = 2,
):
    """Run both detection branches on one feature map.

    Returns ``(cls_map, reg_map, backward)`` where the maps are
    (2, H, W) and (4, H, W) and ``backward(grad_cls, grad_reg)`` yields
    ``(grad_feature, grads)`` with parameter gradients keyed like
    ``params``. ReLU follows every conv except the terminals.
    """
    cls_map, cls_caches = _branch(feature, params, prefix, "cls", head_depth)
    reg_map, reg_caches = _branch(feature, params, prefix, "reg", head_depth)
    return cls_map, reg_map, _head_backward(cls_caches, reg_caches)


def _map_rows(m: np.ndarray) -> np.ndarray:
    """Row-major flatten of a (C, H, W) head map to (H*W, C) anchor rows, always a copy.

    A reshape alone returns a view of a one-row or one-column map, which
    would still be the work buffer that the next tap's convs overwrite.
    """
    return np.array(np.moveaxis(m, 0, 2), order="C").reshape(-1, m.shape[0])


def _gated_rows(logits: np.ndarray, gate: float, h: int, w: int) -> np.ndarray:
    """Map rows holding an anchor whose face score exceeds ``gate``, in order.

    The score is ``decode_improved``'s float64 expression, so the rows
    hold every anchor it can select at a threshold of ``gate`` or above.
    """
    passed = face_scores(logits.astype(np.float64)) > gate
    return np.flatnonzero(passed.reshape(h, w).any(axis=1))


def _unflatten(grad_rows: np.ndarray, h: int, w: int) -> np.ndarray:
    return np.moveaxis(grad_rows.reshape(h, w, -1), 2, 0)


def forward_detect(
    net: Network,
    image: np.ndarray,
    want_grad: bool = False,
    gate: float | None = None,
) -> RawOutput | tuple[RawOutput, Callable]:
    """Full forward pass; optionally also return a backward closure.

    The closure maps (grad_logits, grad_offsets) — laid out like the
    RawOutput rows — to a dict of parameter gradients. Only then are conv
    caches and ReLU masks kept. Without ``want_grad``, every conv runs in
    ``net.work``'s buffers, which the next image reuses, and keeps nothing
    for a backward, so a steady detection loop allocates no maps. Both
    paths compute the same bits.

    ``gate`` (inference only) runs threshold-first inside the network:
    after a tap's classification branch it scores the tap's anchors as
    ``decode_improved`` does, and the tap's regression branch computes
    only the map rows that hold an anchor scoring above ``gate``, plus the
    halo rows its earlier convs need. Those rows' offsets are bit-identical
    to the dense forward's; every other row's offsets are NaN, and the
    returned output carries ``gate`` so that decode can refuse to read them.
    When the gated rows cover a map, its branch runs dense.

    The forward sets no thread count: it runs at the caller's BLAS count
    and conv-thread share. Inside a :func:`forkpool.pool` those are the
    pool's budget; a direct call outside a pool keeps the caller's own
    BLAS count.
    """
    cfg, params = net.config, net.params
    if image.ndim != 3 or image.shape[0] != _IN_CHANNELS:
        raise ValueError(f"image must be ({_IN_CHANNELS}, H, W), got {image.shape}")
    if want_grad and gate is not None:
        raise ValueError("a gated forward has no backward pass")

    # Without a backward, every conv runs in the net's work buffers. A conv
    # may write the buffer its input is in, so the backbone needs one, and
    # each tap is projected before the next stage overwrites it.
    work = None if want_grad else net.work

    # Backbone, with the 1x1 projections of the taps to the head channel count
    n_taps = len(cfg.taps)
    x = image
    bb_caches: list[list] = []
    feats: list[np.ndarray] = []
    proj_caches: list[tuple] = []
    for si, stage in enumerate(cfg.stages):
        stage_caches = []
        for ci in range(stage.n_convs):
            stride = stage.stride if ci == stage.n_convs - 1 else 1
            name = f"stage{si}.conv{ci}"
            x, cc = conv2d(
                x, params[f"{name}.w"], params[f"{name}.b"], stride=stride, relu=True, work=work, slot="backbone"
            )
            stage_caches.append((name, cc))
        bb_caches.append(stage_caches)
        if si in cfg.taps:
            name = f"proj{len(feats)}"
            z, cc = conv2d(x, params[f"{name}.w"], params[f"{name}.b"], relu=True, work=work, slot=name)
            feats.append(z)
            proj_caches.append((name, cc))
    proj_shapes = [z.shape for z in feats]

    # One-hop fusion: each tap except the deepest absorbs its successor's
    # projection, which is not yet fused when taken in ascending order. The
    # sum goes into the projection in place; a backward needs only the
    # projection's ReLU mask, taken at conv time.
    if cfg.fusion:
        for ti in range(n_taps - 1):
            fuse(feats[ti], feats[ti + 1], work=work)

    # Detection heads, per tap: classification, the gate, then regression
    head_backs = []
    logit_rows, offset_rows, dims = [], [], []
    for ti in range(n_taps):
        prefix = f"head{ti}"
        cls_map, cls_caches = _branch(feats[ti], params, prefix, "cls", cfg.head_depth, work=work)
        h, w = cls_map.shape[1:]
        logit_rows.append(_map_rows(cls_map))
        rows = None if gate is None else _gated_rows(logit_rows[-1], gate, h, w)
        reg_map, reg_caches = _branch(feats[ti], params, prefix, "reg", cfg.head_depth, rows=rows, work=work)
        offset_rows.append(_map_rows(reg_map))
        if rows is not None:
            regressed = np.zeros(h, dtype=bool)
            regressed[rows] = True
            offset_rows[-1].reshape(h, w, -1)[~regressed] = np.nan
        dims.append((h, w))
        if want_grad:
            head_backs.append(_head_backward(cls_caches, reg_caches))

    raw = RawOutput(
        logits=np.concatenate(logit_rows, axis=0),
        offsets=np.concatenate(offset_rows, axis=0),
        gate=gate,
    )
    if not want_grad:
        return raw

    def backward(grad_logits: np.ndarray, grad_offsets: np.ndarray) -> dict[str, np.ndarray]:
        grads = {k: np.zeros_like(v) for k, v in params.items()}

        # Heads, per tap
        feat_grads = []
        start = 0
        for ti in range(n_taps):
            h, w = dims[ti]
            stop = start + h * w
            gf, head_grads = head_backs[ti](
                _unflatten(grad_logits[start:stop], h, w),
                _unflatten(grad_offsets[start:stop], h, w),
            )
            for k, v in head_grads.items():
                grads[k] += v
            feat_grads.append(gf)
            start = stop

        # Fusion: identity into the current tap, window-sum into the successor
        proj_grads = list(feat_grads)
        if cfg.fusion:
            for ti in range(n_taps - 1):
                hi = proj_shapes[ti + 1]
                proj_grads[ti + 1] = proj_grads[ti + 1] + upsample2_backward(
                    feat_grads[ti], hi[1], hi[2]
                )

        # Projections back into their backbone stages
        stage_grads: dict[int, np.ndarray] = {}
        for ti, si in enumerate(cfg.taps):
            name, cc = proj_caches[ti]
            gx, gw, gb = conv2d_backward(proj_grads[ti], cc)
            grads[f"{name}.w"] += gw
            grads[f"{name}.b"] += gb
            stage_grads[si] = stage_grads.get(si, 0) + gx

        # Backbone chain, deepest stage first; stages past the deepest tap
        # get no gradient. The image's gradient is not computed.
        running: np.ndarray | None = None
        for si in range(len(cfg.stages) - 1, -1, -1):
            g = stage_grads.get(si)
            if running is not None:
                g = running if g is None else g + running
            if g is None:
                continue
            for name, cc in reversed(bb_caches[si]):
                g, gw, gb = conv2d_backward(g, cc, input_grad=name != "stage0.conv0")
                grads[f"{name}.w"] += gw
                grads[f"{name}.b"] += gb
            running = g
        return grads

    return raw, backward


def tap_conv_stacks(cfg: NetConfig) -> list[list[LayerSpec]]:
    """Conv stacks (for receptive-field analysis) from the input to each head output.

    Each stack holds the backbone convs up to and including the tap's
    stage, that tap's 1x1 projection, then the 3x3 convs of one head
    branch: ``head_depth`` trunk convs and the terminal conv. Fusion is
    not in the stack: it adds the successor tap's projection, upsampled,
    just before this tap's head convs.
    """
    stacks = []
    for ti, si in enumerate(cfg.taps):
        stack: list[LayerSpec] = []
        for sj in range(si + 1):
            stage = cfg.stages[sj]
            for ci in range(stage.n_convs):
                stride = stage.stride if ci == stage.n_convs - 1 else 1
                stack.append(LayerSpec(kernel=3, stride=stride, name=f"stage{sj}.conv{ci}"))
        stack.append(LayerSpec(kernel=1, stride=1, name=f"proj{ti}"))
        stack += [LayerSpec(kernel=3, stride=1, name=f"head{ti}.cls{d}") for d in range(cfg.head_depth)]
        stack.append(LayerSpec(kernel=3, stride=1, name=f"head{ti}.cls_out"))
        stacks.append(stack)
    return stacks


_MAGIC = b"ANKT"
_VERSION = 1


def save_weights(params: dict[str, np.ndarray], out: BinaryIO) -> None:
    """Write the little-endian tensor container: magic, version, tensors."""
    out.write(_MAGIC)
    out.write(struct.pack("<II", _VERSION, len(params)))
    for name, arr in params.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        raw = name.encode("utf-8")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
        out.write(struct.pack("<I", data.ndim))
        out.write(struct.pack(f"<{data.ndim}I", *data.shape))
        out.write(data.tobytes())


def _read_exact(src: BinaryIO, n: int, what: str) -> bytes:
    # Read in bounded chunks, so a corrupt length costs no more memory
    # than the file holds.
    parts, got = [], 0
    while got < n:
        chunk = src.read(min(n - got, 1 << 20))
        if not chunk:
            break
        parts.append(chunk)
        got += len(chunk)
    if got < n:
        raise ValueError(f"weights file ends inside {what}: {got} of {n} bytes")
    return b"".join(parts)


def load_weights(src: BinaryIO) -> dict[str, np.ndarray]:
    """Read back a container written by :func:`save_weights`.

    A short read, a repeated tensor name or bytes after the last tensor
    raise ``ValueError`` naming the field or tensor.
    """
    magic = src.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    version, count = struct.unpack("<II", _read_exact(src, 8, "the header"))
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    params: dict[str, np.ndarray] = {}
    for ti in range(count):
        what = f"tensor {ti}"
        (name_len,) = struct.unpack("<I", _read_exact(src, 4, f"the name length of {what}"))
        try:
            name = _read_exact(src, name_len, f"the name of {what}").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"the name of {what} is not UTF-8") from e
        if name in params:
            raise ValueError(f"tensor {ti} is named {name!r}, as tensor {list(params).index(name)} is")
        what = f"tensor {ti} ({name!r})"
        (rank,) = struct.unpack("<I", _read_exact(src, 4, f"the rank of {what}"))
        dims = struct.unpack(f"<{rank}I", _read_exact(src, 4 * rank, f"the shape of {what}"))
        data = _read_exact(src, 4 * math.prod(dims), f"the data of {what}")
        params[name] = np.frombuffer(data, dtype="<f4").reshape(dims).astype(np.float32)
    if src.read(1):
        raise ValueError(f"weights file has bytes after its last tensor ({count} declared)")
    return params
