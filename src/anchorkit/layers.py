"""From-scratch conv-net primitives: conv2d, relu, and 2x upsample-add fusion.

Tensors are single-image (C, H, W) float arrays; weights are
(out_ch, in_ch, kh, kw). Convolutions always use "same" padding
(k - 1) // 2, so the output is ceil(in / stride) per spatial axis and
lines up with the ceil-division anchor layout.

conv2d reads its input through phase planes instead of a 9x im2col
buffer. It pads the input once and splits it into stride**2 phase planes, each a contiguous (C, hq*wq) array, where
phase (a, b) holds the padded pixels at rows a, a + s, ... and columns
b, b + s, .... Tap (i, j) of the kernel then reads phase (i % s, j % s)
from flat offset (i // s) * wq + j // s: a column slice of the plane
that BLAS takes without a copy. The output is computed on an
(h_out, wq) grid; its wq - w_out right-hand columns wrap into the next
row, so forward cuts them and backward feeds them a zero gradient.

Inputs with at least ``_STACK_BELOW_CHANNELS`` (16) channels run one
GEMM per tap, ``W[:, :, i, j] @ slice``, accumulated, and copy nothing.
Thinner inputs (the 1-channel stem, the 8-channel stride-2 conv) do
copy: they stack the tap slices into one (C*kh*kw, n) operand, an
im2col of at most 135 rows, and run a single GEMM. Per tap their
product has K = C, and each tap's (O, n) partial sum costs more memory
traffic than the copy of the thin input; on the 640x640 net, per-tap
GEMMs for these two convs made detection about 90 ms per image slower
(2.57 -> 2.10 images/s, median of ten runs each). The backward is per
tap for every conv: ``grad_w[:, :, i, j] = g @ slice.T`` and
``W[:, :, i, j].T @ g`` is added into the gradient plane at the same
slice, which is then split back into pixels.

The summation order differs from one im2col GEMM, so results are not
bit-identical to it: float64 outputs match the loop oracle within 1e-12
(about 1e-13 at 64 channels), and on the 640x640 net's convs float32
outputs (up to about 7 in magnitude) differ from im2col by at most
about 4e-6. Reruns are byte-identical.

A gated detection forward asks conv2d for some output rows only
(``rows``). Each row interval becomes a range of grid columns, rounded
outward to multiples of ``_BAND_ALIGN`` (16) columns, and the same per-tap
GEMMs run on those column slices; only the input rows they read are
copied into the phase planes. The requested rows must be bit-identical to
the full output, and OpenBLAS's sgemm (Haswell kernels, 0.3.31) gives a
column slice of a product the full product's bits only on that grid: on a
160x160 map with C = 64, bands with unaligned start and length differed
from the full product in 10 of 24 draws at O = 4 and 5 of 24 at O = 64,
and aligned bands in none. A grid whose length h_out * wq is not a
multiple of 16 ends on a partial block, and there a band that ends at the
grid's end differed in 4 of 12 draws (20x20 map, O = 64); such grids run
whole. On the 640x640 net that is taps 3-5 (grids of 440, 120 and 35
columns). A request covering the whole grid takes the unbanded path.

Forward functions return a cache consumed by the matching backward
function; conv2d's cache holds the weights second. All ops follow the
dtype of their inputs (float32 for training, float64 for gradient
checks).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv2d",
    "conv2d_backward",
    "relu",
    "relu_backward",
    "upsample2",
    "upsample2_backward",
    "fuse",
    "fuse_backward",
]

# Below this many input channels a per-tap GEMM has K = C, too thin for
# BLAS; those convs stack the tap slices into one GEMM instead.
_STACK_BELOW_CHANNELS = 16

# Row bands of a banded conv start and end on multiples of this many grid
# columns, where OpenBLAS's sgemm gives the full product's bits.
_BAND_ALIGN = 16


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


def _taps_product(planes: np.ndarray, w: np.ndarray, taps, c0: int, c1: int) -> np.ndarray:
    """(O, c1 - c0) block of the conv GEMMs over grid columns [c0, c1)."""
    o, c, kh, kw = w.shape
    if c < _STACK_BELOW_CHANNELS:
        stacked = np.stack([planes[p, :, off + c0 : off + c1] for p, off in taps])
        return w.transpose(0, 2, 3, 1).reshape(o, -1) @ stacked.reshape(-1, c1 - c0)
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
    (p, off), rest = taps[0], taps[1:]
    out = w_taps[0] @ planes[p, :, off + c0 : off + c1]
    part = np.empty_like(out)
    for t, (p, off) in enumerate(rest, 1):
        np.matmul(w_taps[t], planes[p, :, off + c0 : off + c1], out=part)
        out += part
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, rows=None):
    """Same-padded convolution; returns (output, cache).

    x: (C, H, W); w: (O, C, kh, kw) with odd kernels; b: (O,).
    Output: (O, ceil(H/stride), ceil(W/stride)).

    ``rows``, a sorted list of disjoint half-open output-row intervals
    ``(lo, hi)``, asks for those rows only (see the module docstring).
    Their values are bit-identical to the full output's; the other rows
    are not defined, and the cache is then not fit for
    :func:`conv2d_backward`.
    """
    c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weights expect {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernels must be odd, got {kh}x{kw}")
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
    planes = np.zeros((s * s, c, hq * wq + (kw - 1) // s), dtype=x.dtype)
    grid = _grid(planes, s, hq, wq)
    for p, prows, cols, ys, xs in _phase_blocks(h, wd, kh, kw, s):
        for r0, r1 in plane_rows:
            lo, hi = max(r0, prows.start), min(r1, prows.stop)
            if lo < hi:
                y = ys.start + (lo - prows.start) * s
                grid[p, :, lo:hi, cols] = x[:, y : y + (hi - lo - 1) * s + 1 : s, xs]

    if spans is None:
        out = _taps_product(planes, w, taps, 0, n)
        out += b[:, None]
    else:
        out = np.zeros((o, n), dtype=np.result_type(x, w))
        for c0, c1 in spans:
            band = _taps_product(planes, w, taps, c0, c1)
            band += b[:, None]
            out[:, c0:c1] = band
    out = out.reshape(o, h_out, wq)[:, :, :w_out]
    return out, (x.shape, w, planes, stride)


def conv2d_backward(grad_out: np.ndarray, cache):
    """Gradients of conv2d w.r.t. input, weights, and bias."""
    (c, h, wd), w, planes, s = cache
    o, _, kh, kw = w.shape
    h_out, w_out, hq, wq, taps = _layout(h, wd, kh, kw, s)
    n = h_out * wq
    g = np.zeros((o, h_out, wq), dtype=grad_out.dtype)
    g[:, :, :w_out] = grad_out
    g = g.reshape(o, n)

    grad_b = g.sum(axis=1)
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
    grad_taps = np.empty((kh * kw, o, c), dtype=grad_out.dtype)
    grad_planes = np.zeros(planes.shape, dtype=grad_out.dtype)
    for t, (p, off) in enumerate(taps):
        np.matmul(g, planes[p, :, off : off + n].T, out=grad_taps[t])
        grad_planes[p, :, off : off + n] += w_taps[t].T @ g
    grad_w = grad_taps.transpose(1, 2, 0).reshape(w.shape)

    grid = _grid(grad_planes, s, hq, wq)
    grad_x = np.empty((c, h, wd), dtype=grad_out.dtype)
    for p, rows, cols, ys, xs in _phase_blocks(h, wd, kh, kw, s):
        grad_x[:, ys, xs] = grid[p, :, rows, cols]
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray):
    out = np.maximum(x, 0.0)
    return out, out > 0.0


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


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
