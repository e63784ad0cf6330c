"""From-scratch conv-net primitives: conv2d (with fused ReLU) and 2x upsample-add fusion.

Tensors are single-image (C, H, W) float arrays; weights are
(out_ch, in_ch, kh, kw). Convolutions always use "same" padding
(k - 1) // 2, so the output is ceil(in / stride) per spatial axis and
lines up with the ceil-division anchor layout.

conv2d reads its input through phase planes instead of a 9x im2col
buffer. It pads the input once and splits it into stride**2 phase
planes, each a contiguous (C, hq*wq) array, where phase (a, b) holds the
padded pixels at rows a, a + s, ... and columns b, b + s, .... Tap (i, j)
of the kernel then reads phase (i % s, j % s) from flat offset
(i // s) * wq + j // s: a column slice of the plane that BLAS takes
without a copy. The output is computed on an (h_out, wq) grid of
n = h_out * wq columns; its wq - w_out right-hand columns wrap into the
next row, so forward cuts them and backward feeds them a zero gradient.

The grid is computed in column blocks. A block is
``_BLOCK_BYTES // (itemsize * (C + 2 * O))`` columns, rounded down to a
multiple of ``_BAND_ALIGN`` (16), so that its input slice, its partial
sum and its output slice stay in L2 (2 MiB per core on the Xeon it was
tuned on). Block edges sit at multiples of the block width counted from
grid column 0. Inputs with at least ``_STACK_BELOW_CHANNELS`` (16)
channels run one GEMM per tap into the block, ``W[:, :, i, j] @ slice``,
and sum them there. Thinner inputs (the 1-channel stem, the 8-channel
stride-2 conv) stack one block's tap slices into a (C*kh*kw, block)
operand and run a single GEMM: per tap their product has K = C, and each
tap's partial sum costs more memory traffic than copying the thin input
(on the 640x640 net, per-tap GEMMs for these two convs made detection
about 90 ms per image slower). With ``relu=True`` the epilogue of each
block, the bias add and ReLU, runs while the block is still in cache, so
a ReLU costs no pass of its own over the map; it is the only ReLU the
network runs, in training too. A sweep of 256 KiB to 4 MiB on the
640x640 net (2-core AVX-512 Xeon, 1 BLAS thread, in-process rotation)
gave median sparse-detection image times of 340/317/307/305/300 ms and
dense ones of 523/494/478/467/477 ms: 256 KiB is slower, 1-4 MiB are
alike, and ``_BLOCK_BYTES`` is 1 MiB.

The backward is per tap for every conv: ``grad_w[:, :, i, j] = g @
slice.T`` and ``W[:, :, i, j].T @ g`` is added into the gradient plane at
the same slice, which is then split back into pixels. A fused ReLU's
mask, ``output > 0`` (exactly ``pre-activation > 0``), is recorded with
the cache.

The summation order differs from one im2col GEMM, so results are not
bit-identical to it: float64 outputs match the loop oracle within 1e-12
(about 1e-13 at 64 channels), and on the 640x640 net's convs float32
outputs (up to about 7 in magnitude) differ from im2col by at most
about 4e-6. Reruns are byte-identical.

Blocking does not change a bit, by measurement rather than by
construction: OpenBLAS's sgemm (SkylakeX kernels, 0.3.31) gives a column
slice of a product the full product's bits when the slice starts and
ends on multiples of 16 columns. On a 160x160 map with C = 64, slices
with unaligned start and length differed from the full product in 10 of
24 draws at O = 4 and 5 of 24 at O = 64, and aligned ones in none. A
grid whose length is not a multiple of 16 ends on a partial 16, and a
slice ending there differed whenever it was narrow (every width up to
232 columns at O = C = 64; 20x20 map, 440 columns, cut into 336 + 104).
Such grids therefore run as one block, which is the unblocked product.
On the 640x640 net they are taps 3-5 (440, 120 and 35 columns) and the
80 -> 40 stride-2 conv (1,640 columns), all under one block anyway.

A gated detection forward asks conv2d for some output rows only
(``rows``). Each row interval becomes a range of grid columns, rounded
outward to multiples of 16 columns, cut at the same block edges as the
full grid, and only the input rows those columns read are copied into
the phase planes. Requested rows are then the full output's bits, on
the rule above; grids whose length is not a multiple of 16 run whole,
as does a request covering the whole grid.

An inference forward passes a :class:`Workspace`: conv2d then takes its
phase planes, block scratch and output from the workspace's named
buffers, which the next image reuses, and returns no cache. Without the
reuse, each 640x640 image mapped and faulted its largest maps afresh
(about 6,700 minor page faults and 25 ms of system time per sparse
image, against 80-240 and about 1 ms for the unblocked convs); with it,
a steady detection loop takes none.

Forward functions return a cache consumed by the matching backward
function; conv2d's cache holds the weights second. All ops follow the
dtype of their inputs (float32 for training, float64 for gradient
checks).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Workspace",
    "conv2d",
    "conv2d_backward",
    "upsample2",
    "upsample2_backward",
    "fuse",
    "fuse_backward",
]

# Below this many input channels a per-tap GEMM has K = C, too thin for
# BLAS; those convs stack the tap slices into one GEMM instead.
_STACK_BELOW_CHANNELS = 16

# Column blocks and the row bands of a banded conv start and end on
# multiples of this many grid columns, where OpenBLAS's sgemm gives the
# full product's bits.
_BAND_ALIGN = 16

# A conv sums its tap GEMMs over column blocks whose input, partial-sum and
# output slices take about this many bytes, so they stay in L2.
_BLOCK_BYTES = 1 << 20


def _layout(h: int, wd: int, kh: int, kw: int, s: int):
    """Output size, phase-plane size and the (phase, offset) of each tap."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out = (h + 2 * ph - kh) // s + 1
    w_out = (wd + 2 * pw - kw) // s + 1
    hq, wq = -(-(h + 2 * ph) // s), -(-(wd + 2 * pw) // s)
    taps = [((i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    return h_out, w_out, hq, wq, taps


def _phase_blocks(h: int, wd: int, kh: int, kw: int, s: int):
    """Yield (phase, plane rows, plane cols, pixel rows, pixel cols) slices."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    for a in range(s):
        y0 = (a - ph) % s
        ny = len(range(y0, h, s))
        r0 = (y0 + ph) // s
        for b in range(s):
            x0 = (b - pw) % s
            nx = len(range(x0, wd, s))
            c0 = (x0 + pw) // s
            yield a * s + b, slice(r0, r0 + ny), slice(c0, c0 + nx), slice(y0, None, s), slice(x0, None, s)


def _grid(planes: np.ndarray, s: int, hq: int, wq: int) -> np.ndarray:
    # (s*s, C, hq*wq + tail) -> (s*s, C, hq, wq) view; the tail lets the
    # last output row's wrapped columns read past the plane.
    return planes[:, :, : hq * wq].reshape(s * s, planes.shape[1], hq, wq)


def _column_spans(rows: list[tuple[int, int]], wq: int, n: int) -> list[tuple[int, int]] | None:
    """Grid column ranges covering the output-row intervals ``rows``.

    Each interval becomes a range of the flattened (h_out, wq) grid,
    rounded outward to multiples of ``_BAND_ALIGN`` columns; overlapping
    ranges merge. Returns None, meaning "run the whole grid", when the
    ranges cover it or when ``n`` is not a multiple of ``_BAND_ALIGN``.
    """
    if n % _BAND_ALIGN:
        return None
    spans: list[tuple[int, int]] = []
    for lo, hi in rows:
        c0 = lo * wq // _BAND_ALIGN * _BAND_ALIGN
        c1 = min(n, -(-hi * wq // _BAND_ALIGN) * _BAND_ALIGN)
        if spans and c0 <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(c1, spans[-1][1]))
        else:
            spans.append((c0, c1))
    return None if spans == [(0, n)] else spans


class Workspace:
    """Named buffers that conv2d reuses from call to call instead of allocating.

    Each name holds one flat buffer, regrown when a request does not fit.
    Taking a name hands out its buffer again, so a caller takes a name only
    once nothing it read from that name earlier is still needed. Not
    thread-safe.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised ``shape`` array backed by buffer ``name``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _empty(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    return np.empty(shape, dtype)


def _block_width(c: int, o: int, itemsize: int) -> int:
    """Grid columns per block: its input, partial-sum and output slices fill ``_BLOCK_BYTES``."""
    cols = _BLOCK_BYTES // (itemsize * (c + 2 * o)) // _BAND_ALIGN * _BAND_ALIGN
    return max(cols, _BAND_ALIGN)


def _taps_product(planes: np.ndarray, w: np.ndarray, b: np.ndarray, taps, spans, out: np.ndarray, relu: bool, take):
    """Write the conv into columns ``spans`` of ``out`` (O, n), block by block.

    Blocks are cut at multiples of the block width counted from grid column
    0. Each block's tap GEMMs are summed, its bias added and, with ``relu``,
    its negatives zeroed while its slices are still in cache.
    """
    o, c, kh, kw = w.shape
    n = out.shape[1]
    width = n if n % _BAND_ALIGN else min(_block_width(c, o, out.itemsize), n)
    stack = c < _STACK_BELOW_CHANNELS
    if stack:
        w_mat = w.transpose(0, 2, 3, 1).reshape(o, -1)
        scratch = take("scratch", (kh * kw * c * width,), planes.dtype)
    else:
        w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
        scratch = take("scratch", (o * width,), out.dtype)
    bias = b[:, None]
    for c0, c1 in spans:
        for k0 in range(c0 - c0 % width, c1, width):
            lo, hi = max(k0, c0), min(k0 + width, c1)
            block = out[:, lo:hi]
            if stack:
                stacked = scratch[: kh * kw * c * (hi - lo)].reshape(kh * kw, c, hi - lo)
                for t, (p, off) in enumerate(taps):
                    stacked[t] = planes[p, :, off + lo : off + hi]
                np.matmul(w_mat, stacked.reshape(-1, hi - lo), out=block)
            else:
                part = scratch[: o * (hi - lo)].reshape(o, hi - lo)
                (p, off), rest = taps[0], taps[1:]
                np.matmul(w_taps[0], planes[p, :, off + lo : off + hi], out=block)
                for t, (p, off) in enumerate(rest, 1):
                    np.matmul(w_taps[t], planes[p, :, off + lo : off + hi], out=part)
                    block += part
            block += bias
            if relu:
                np.maximum(block, 0.0, out=block)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    rows=None,
    relu: bool = False,
    work: Workspace | None = None,
    slot: str = "out",
):
    """Same-padded convolution, optionally followed by ReLU; returns (output, cache).

    x: (C, H, W); w: (O, C, kh, kw) with odd kernels; b: (O,).
    Output: (O, ceil(H/stride), ceil(W/stride)).

    The grid is computed in cache-sized column blocks, and each block's
    bias add and, with ``relu=True``, its ReLU run while the block is in
    cache (see the module docstring). The cache then records the mask
    ``output > 0`` for :func:`conv2d_backward`.

    ``rows``, a sorted list of disjoint half-open output-row intervals
    ``(lo, hi)``, asks for those rows only. Their values are bit-identical
    to the full output's; the other rows are not defined, and the cache is
    then not fit for :func:`conv2d_backward`.

    ``work`` (inference) supplies the phase planes, the block scratch and
    the output, which is its buffer ``slot`` and so holds only until
    ``slot`` is taken again. ``x`` may lie in ``slot``: it is copied into
    the phase planes before the output is written. No cache is made: the
    second value is None.
    """
    c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weights expect {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernels must be odd, got {kh}x{kw}")
    take = _empty if work is None else work.take
    s = stride
    h_out, w_out, hq, wq, taps = _layout(h, wd, kh, kw, s)
    n = h_out * wq
    spans = None if rows is None else _column_spans(rows, wq, n)
    # plane rows the computed columns read: a band [c0, c1) reaches up to
    # the furthest tap's offset past c1 - 1
    reach = (kh - 1) // s * wq + (kw - 1) // s
    plane_rows = [(0, hq)] if spans is None else [
        (c0 // wq, min(hq, (c1 - 1 + reach) // wq + 1)) for c0, c1 in spans
    ]
    planes = take("planes", (s * s, c, hq * wq + (kw - 1) // s), x.dtype)
    planes[:, :, hq * wq :] = 0
    grid = _grid(planes, s, hq, wq)
    for p, prows, cols, ys, xs in _phase_blocks(h, wd, kh, kw, s):
        # zero the padding around the pixels; rows outside plane_rows are never read
        g = grid[p]
        g[:, : prows.start] = 0
        g[:, prows.stop :] = 0
        g[:, :, : cols.start] = 0
        g[:, :, cols.stop :] = 0
        for r0, r1 in plane_rows:
            lo, hi = max(r0, prows.start), min(r1, prows.stop)
            if lo < hi:
                y = ys.start + (lo - prows.start) * s
                g[:, lo:hi, cols] = x[:, y : y + (hi - lo - 1) * s + 1 : s, xs]

    out = take(slot, (o, n), np.result_type(x, w))
    _taps_product(planes, w, b, taps, [(0, n)] if spans is None else spans, out, relu, take)
    out = out.reshape(o, h_out, wq)[:, :, :w_out]
    if work is not None:
        return out, None
    return out, (x.shape, w, planes, stride, out > 0.0 if relu else None)


def conv2d_backward(grad_out: np.ndarray, cache, input_grad: bool = True):
    """Gradients of conv2d (and its ReLU, if fused) w.r.t. input, weights, and bias.

    ``input_grad=False`` skips the input gradient and returns None for it.
    """
    (c, h, wd), w, planes, s, mask = cache
    if mask is not None:
        grad_out = grad_out * mask
    o, _, kh, kw = w.shape
    h_out, w_out, hq, wq, taps = _layout(h, wd, kh, kw, s)
    n = h_out * wq
    g = np.zeros((o, h_out, wq), dtype=grad_out.dtype)
    g[:, :, :w_out] = grad_out
    g = g.reshape(o, n)

    grad_b = g.sum(axis=1)
    grad_taps = np.empty((kh * kw, o, c), dtype=grad_out.dtype)
    for t, (p, off) in enumerate(taps):
        np.matmul(g, planes[p, :, off : off + n].T, out=grad_taps[t])
    grad_w = grad_taps.transpose(1, 2, 0).reshape(w.shape)
    if not input_grad:
        return None, grad_w, grad_b

    w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
    grad_planes = np.zeros(planes.shape, dtype=grad_out.dtype)
    for t, (p, off) in enumerate(taps):
        grad_planes[p, :, off : off + n] += w_taps[t].T @ g
    grid = _grid(grad_planes, s, hq, wq)
    grad_x = np.empty((c, h, wd), dtype=grad_out.dtype)
    for p, rows, cols, ys, xs in _phase_blocks(h, wd, kh, kw, s):
        grad_x[:, ys, xs] = grid[p, :, rows, cols]
    return grad_x, grad_w, grad_b


def upsample2(x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """Nearest-neighbor 2x upsample of (C, H, W), cropped to (h_out, w_out)."""
    up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
    return up[:, :h_out, :w_out]


def upsample2_backward(grad_out: np.ndarray, h_in: int, w_in: int) -> np.ndarray:
    """Adjoint of upsample2: sum each 2x2 window back onto the source cell."""
    c, h_out, w_out = grad_out.shape
    full = np.zeros((c, 2 * h_in, 2 * w_in), dtype=grad_out.dtype)
    full[:, :h_out, :w_out] = grad_out
    return full.reshape(c, h_in, 2, w_in, 2).sum(axis=(2, 4))


def fuse(current: np.ndarray, higher: np.ndarray) -> np.ndarray:
    """Element-wise add of the 2x-upsampled deeper map into the current map.

    ``higher`` must be the ceil-half spatial size of ``current`` with the
    same channel count (project channels first).
    """
    if current.shape[0] != higher.shape[0]:
        raise ValueError(
            f"fuse: channel mismatch {current.shape[0]} vs {higher.shape[0]}; "
            "run the 1x1 projection first"
        )
    _, h, w = current.shape
    if higher.shape[1] != -(-h // 2) or higher.shape[2] != -(-w // 2):
        raise ValueError(
            f"fuse: higher map {higher.shape[1:]} is not ceil-half of current {current.shape[1:]}"
        )
    return current + upsample2(higher, h, w)


def fuse_backward(grad_out: np.ndarray, higher_shape: tuple[int, int, int]):
    """Split the upstream gradient: identity to current, window-sum to higher."""
    _, h_in, w_in = higher_shape
    return grad_out, upsample2_backward(grad_out, h_in, w_in)
