"""From-scratch conv-net primitives: conv2d (with fused ReLU) and 2x upsample-add fusion.

Tensors are single-image (C, H, W) arrays; weights are (out_ch, in_ch,
kh, kw). Convolutions use "same" padding (k - 1) // 2, so the output is
ceil(in / stride) per axis, as the anchor layout expects. Every op keeps
its inputs' dtype (float32 in training, float64 in gradient checks).

Phase planes. conv2d pads its input once into stride**2 contiguous
(C, hq*wq) phase planes: phase (a, b) holds the padded pixels at rows
a, a + s, ... and columns b, b + s, .... Tap (i, j) reads phase
(i % s, j % s) at flat offset (i // s) * wq + j // s, a column slice BLAS
takes without a copy, so no im2col buffer is built. The output is an
(h_out, wq) grid of n = h_out * wq columns whose wq - w_out right-hand
columns wrap into the next row: forward cuts them, backward zeroes them.

Blocks, and bits by construction. The grid is computed in column blocks
of ``_BLOCK_BYTES // (itemsize * (C + 2 * O))`` columns, so a block's
input slice, partial sum and tile fit in L2 together. A longer grid is
cut into that many blocks, rounded up to a multiple of the usable cores
so threads get equal shares, of equal widths from grid column 0. A
column's bits come from its block's calls alone: GEMMs of fixed widths
at fixed offsets, then adds, bias and ReLU in a fixed order. The blocks
depend on the conv's shape and the core count only, so the bits do not
depend on the thread count, on which thread runs a block, or on whether
other blocks run. The BLAS need only repeat a call's bits and compute
each output column from its own operand column. Another core count, or
another summation order such as one im2col GEMM, moves the last bits.

The tile. Each block is summed in a contiguous (O, width) tile from its
run's scratch: the first tap's GEMM goes into the tile, each later one
into a partial sum added to it, then the bias, and the tile is written
out once, through ReLU or as a copy. Output rows lie a grid row apart,
so adds there would stream through memory; in the tile the adds, bias
and ReLU stay in cache, and ReLU takes no pass of its own. Inputs with
fewer than ``_STACK_BELOW_CHANNELS`` channels stack a block's tap slices
into one (C*kh*kw, width) operand for a single GEMM, since a per-tap
product would have K = C, too thin for BLAS, and its partial sums would
move more memory than copying the thin input.

Thread share. A grid of several blocks runs on this process's share of
the usable cores (``os.sched_getaffinity``), the cores divided by
``_processes``, which a running ``forkpool`` pool sets so that processes
x threads stays within the cores. The blocks split into contiguous runs,
one per thread, the first on the calling thread; the plane fill splits
by channels. Each run's scratch is taken before dispatch, so only the
calling thread touches a :class:`Workspace`. numpy releases the GIL in
GEMMs and copies. A forked child drops the pool whose threads it lacks.

Banded rows. ``rows`` asks for some output rows only (a gated forward):
conv2d runs whole the blocks holding a column of them and fills only the
plane rows those read, so the rows have the full output's bits.

Chained planes. In a chain of 3x3 stride-1 inference convs, a conv
writes its grid into the plane its successor reads, which then fills
nothing. That plane holds pixel (y, x) at (y + 1) * wq + x + 1: grid
column y * wq + x shifted by wq + 1. Zeroing the top frame, each row's
two wrapped columns (right pad of its row, left pad of the next) and the
bottom row with the tail leaves the plane a fill makes. A banded
producer writes only its blocks; its successor's rows read only rows it
was asked for, as a branch widens each conv's rows by the later halos.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

__all__ = [
    "Workspace",
    "conv2d",
    "conv2d_backward",
    "upsample2_backward",
    "fuse",
]

# Below this many input channels a per-tap GEMM has K = C, too thin for
# BLAS; those convs stack the tap slices into one GEMM instead.
_STACK_BELOW_CHANNELS = 16

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
    return max(1, _BLOCK_BYTES // (itemsize * (c + 2 * o)))


# Processes that share this process's cores. A forkpool pool sets it
# while it runs, so that processes x conv threads stays within the cores.
_processes = 1


def _cores() -> int:
    """The cores this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _workers() -> int:
    """Threads a conv of several blocks runs on: this process's share of the cores."""
    return max(1, _cores() // _processes)


def _blocks(n: int, c: int, o: int, itemsize: int) -> list[tuple[int, int]]:
    """The column blocks ``(lo, hi)`` an n-column grid is computed in (see the module docstring)."""
    count = -(-n // _block_width(c, o, itemsize))
    if count > 1:
        count = -(-count // _cores()) * _cores()
    width = -(-n // count)
    return [(lo, min(lo + width, n)) for lo in range(0, n, width)]


def _touched(blocks: list[tuple[int, int]], rows, wq: int) -> list[tuple[int, int]]:
    """The blocks holding a column of the output-row intervals ``rows``, in order; all for None."""
    if rows is None:
        return blocks
    width = blocks[0][1]
    picked = {k for lo, hi in rows for k in range(lo * wq // width, -(-hi * wq // width))}
    return [blocks[k] for k in sorted(picked)]


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The module's thread pool, created on first use; it starts threads only as runs need them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(thread_name_prefix="anchorkit-conv")
        return _pool


def _drop_pool() -> None:
    # A forked child has none of its parent's threads, and a pool whose
    # threads are gone never runs what it is given: the child's first
    # parallel conv builds a new one.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _split(fn, parts) -> None:
    """Run ``fn(part)`` for every part: the first on the calling thread, the others on the pool."""
    pool = _executor()
    futures = [pool.submit(fn, part) for part in parts[1:]]
    try:
        fn(parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _split_channels(fn, c: int, parts: int) -> None:
    """Run ``fn(chans)`` over ``parts`` contiguous slices of ``c`` channels, split as :func:`_split` does."""
    if parts > 1:
        _split(lambda k: fn(slice(k * c // parts, (k + 1) * c // parts)), range(parts))
    else:
        fn(slice(None))


def _fill_planes(planes: np.ndarray, x: np.ndarray, s: int, hq: int, wq: int, kh: int, kw: int, plane_rows, chans: slice):
    """Copy channels ``chans`` of ``x`` into the phase planes and zero their padding.

    Plane rows outside ``plane_rows`` are never read, so they are left as they are.
    """
    _, h, wd = x.shape
    planes[:, chans, hq * wq :] = 0
    grid = _grid(planes, s, hq, wq)
    for p, prows, cols, ys, xs in _phase_blocks(h, wd, kh, kw, s):
        g = grid[p, chans]
        g[:, : prows.start] = 0
        g[:, prows.stop :] = 0
        g[:, :, : cols.start] = 0
        g[:, :, cols.stop :] = 0
        for r0, r1 in plane_rows:
            lo, hi = max(r0, prows.start), min(r1, prows.stop)
            if lo < hi:
                y = ys.start + (lo - prows.start) * s
                g[:, lo:hi, cols] = x[chans, y : y + (hi - lo - 1) * s + 1 : s, xs]


def _run_blocks(blocks, scratch: np.ndarray, planes: np.ndarray, weights: np.ndarray, bias: np.ndarray, taps, out: np.ndarray, relu: bool):
    """Write the conv into columns [lo, hi) of ``out`` for each (lo, hi) of ``blocks``.

    ``weights`` is (O, kh*kw*C) for stacked taps, (kh*kw, O, C) per tap.
    ``scratch`` holds the tile, then the stacked taps or the partial sum.
    """
    o = out.shape[0]
    for lo, hi in blocks:
        m = hi - lo
        tile, rest = scratch[: o * m].reshape(o, m), scratch[o * m :]
        if weights.ndim == 2:
            stacked = rest[: weights.shape[1] * m].reshape(len(taps), -1, m)
            for t, (p, off) in enumerate(taps):
                stacked[t] = planes[p, :, off + lo : off + hi]
            np.matmul(weights, stacked.reshape(-1, m), out=tile)
        else:
            part = rest[: o * m].reshape(o, m)
            (p, off), later = taps[0], taps[1:]
            np.matmul(weights[0], planes[p, :, off + lo : off + hi], out=tile)
            for t, (p, off) in enumerate(later, 1):
                np.matmul(weights[t], planes[p, :, off + lo : off + hi], out=part)
                tile += part
        tile += bias
        if relu:
            np.maximum(tile, 0.0, out=out[:, lo:hi])
        else:
            out[:, lo:hi] = tile


def _taps_product(planes: np.ndarray, w: np.ndarray, b: np.ndarray, taps, blocks, out: np.ndarray, relu: bool, take, workers: int):
    """Write the conv into the column blocks ``blocks`` of ``out`` (O, n), one run per worker."""
    o, c, kh, kw = w.shape
    width = max((hi - lo for lo, hi in blocks), default=0)
    if c < _STACK_BELOW_CHANNELS:
        weights = w.transpose(0, 2, 3, 1).reshape(o, -1)
        size = (o + kh * kw * c) * width
    else:
        weights = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
        size = 2 * o * width
    runs = min(workers, len(blocks))
    bias = b[:, None]
    if runs <= 1:
        _run_blocks(blocks, take("scratch", (size,), out.dtype), planes, weights, bias, taps, out, relu)
        return
    scratch = [take(f"scratch{k}" if k else "scratch", (size,), out.dtype) for k in range(runs)]
    m = len(blocks)
    _split(
        lambda k: _run_blocks(blocks[k * m // runs : (k + 1) * m // runs], scratch[k], planes, weights, bias, taps, out, relu),
        range(runs),
    )


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    rows=None,
    relu: bool = False,
    work: Workspace | None = None,
    slot: str = "out",
    framed: str | None = None,
    frame: bool = False,
):
    """Same-padded convolution, optionally followed by ReLU; returns (output, cache).

    x: (C, H, W); w: (O, C, kh, kw) with odd kernels; b: (O,).
    Output: (O, ceil(H/stride), ceil(W/stride)). With ``relu=True`` the
    cache records the mask ``output > 0`` for :func:`conv2d_backward`.

    ``rows``, sorted disjoint half-open output-row intervals, asks for
    those rows only; the other rows are undefined and the cache is not fit
    for a backward.

    ``work`` (inference) supplies the phase planes, scratch and output,
    which is its buffer ``slot`` and holds only until ``slot`` is taken
    again. ``x`` may lie in ``slot``. The second value is then None.

    Chained planes (``work``, 3x3 stride-1 only): ``frame=True`` writes the
    output into buffer ``slot`` as the zero-framed plane its successor
    reads and returns a view into it; ``framed`` names the buffer such a
    conv wrote ``x`` into, which is read in place. They must differ.
    """
    c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weights expect {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernels must be odd, got {kh}x{kw}")
    if (frame or framed is not None) and (work is None or stride != 1 or (kh, kw) != (3, 3)):
        raise ValueError("conv2d: chained planes need a Workspace and a 3x3 stride-1 conv")
    if framed is not None and framed == slot:
        raise ValueError(f"conv2d: buffer {slot!r} cannot hold both the input plane and the output")
    take = _empty if work is None else work.take
    s = stride
    h_out, w_out, hq, wq, taps = _layout(h, wd, kh, kw, s)
    n = h_out * wq
    dtype = np.result_type(x, w)
    partition = _blocks(n, c, o, dtype.itemsize)
    blocks = _touched(partition, rows, wq)
    workers = _workers() if len(partition) > 1 else 1
    # plane rows a banded conv's blocks read: block [lo, hi) reaches up to
    # the furthest tap's offset past hi - 1 (adjacent blocks share a few)
    reach = (kh - 1) // s * wq + (kw - 1) // s
    plane_rows = [(0, hq)] if len(blocks) == len(partition) else [
        (lo // wq, min(hq, (hi - 1 + reach) // wq + 1)) for lo, hi in blocks
    ]
    plane_shape = (s * s, c, hq * wq + (kw - 1) // s)
    planes = take("planes" if framed is None else framed, plane_shape, x.dtype)
    if framed is None:
        _split_channels(lambda chans: _fill_planes(planes, x, s, hq, wq, kh, kw, plane_rows, chans), c, min(workers, c))

    if frame:
        # the same-size successor's plane: its pixel (y, x) sits at
        # (y + 1) * wq + x + 1, which is grid column y * wq + x plus wq + 1
        plane = take(slot, (1, o, hq * wq + 2), dtype)[0]
        out = plane[:, wq + 1 : wq + 1 + n]
    else:
        out = take(slot, (o, n), dtype)
    _taps_product(planes, w, b, taps, blocks, out, relu, take, workers)
    out = out.reshape(o, h_out, wq)
    if frame:
        # the top frame, then each row's two wrapped columns, which land on
        # the right pad of its row and the left pad of the next, and the
        # bottom row with the tail
        plane[:, : wq + 1] = 0
        out[:, :, w_out:] = 0
        plane[:, wq + 1 + n :] = 0
    out = out[:, :, :w_out]
    if work is not None:
        return out, None
    return out, (x.shape, w, planes, stride, out > 0.0 if relu else None)


def conv2d_backward(grad_out: np.ndarray, cache, input_grad: bool = True):
    """Gradients of conv2d (and its ReLU, if fused) w.r.t. input, weights, and bias.

    Per tap: ``grad_w[:, :, i, j] = g @ slice.T``, and ``W[:, :, i, j].T @
    g`` is added into the gradient plane at that slice. ``input_grad=False``
    skips the input gradient and returns None for it.
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


def upsample2_backward(grad_out: np.ndarray, h_in: int, w_in: int) -> np.ndarray:
    """Adjoint of the nearest-neighbor 2x upsample: sum each 2x2 window back onto the source cell."""
    c, h_out, w_out = grad_out.shape
    full = np.zeros((c, 2 * h_in, 2 * w_in), dtype=grad_out.dtype)
    full[:, :h_out, :w_out] = grad_out
    return full.reshape(c, h_in, 2, w_in, 2).sum(axis=(2, 4))


def fuse(current: np.ndarray, higher: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Add the 2x-upsampled deeper map into ``current`` in place and return ``current``.

    ``higher`` must be the ceil-half spatial size of ``current`` with the
    same channel count (project channels first). It is copied once with
    every column doubled, and the copy is added to the even and the odd
    rows of ``current``: two adds over whole rows instead of four over
    every other element, each element the single addition of
    ``current + upsample(higher)``. A map over one cache block is split by
    channels across the conv threads. ``work`` holds the doubled copy.
    """
    if current.shape[0] != higher.shape[0]:
        raise ValueError(
            f"fuse: channel mismatch {current.shape[0]} vs {higher.shape[0]}; "
            "run the 1x1 projection first"
        )
    c, h, w = current.shape
    _, hh, wh = higher.shape
    if hh != -(-h // 2) or wh != -(-w // 2):
        raise ValueError(
            f"fuse: higher map {higher.shape[1:]} is not ceil-half of current {current.shape[1:]}"
        )
    wide = (_empty if work is None else work.take)("fuse", (c, hh, 2 * wh), higher.dtype)

    def add(chans: slice) -> None:
        doubled = wide[chans]
        doubled[:, :, 0::2] = higher[chans]
        doubled[:, :, 1::2] = higher[chans]
        for a in range(2):
            dst = current[chans, a::2]
            dst += doubled[:, : dst.shape[1], :w]

    _split_channels(add, c, min(_workers(), c) if current.nbytes > _BLOCK_BYTES else 1)
    return current
