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

The grid is computed in column blocks fixed by the conv's shape and the
number of usable cores (``_blocks``). A cache block is
``_BLOCK_BYTES // (itemsize * (C + 2 * O))`` columns, rounded down to a
multiple of ``_ALIGN`` (16), so that its input slice, its partial sum
and its output slice stay in L2 (2 MiB per core on the Xeon it was tuned
on). A grid of one cache block is one block. A longer grid is cut into
ceil(n / cache block) blocks, that count rounded up to a multiple of the
usable cores (below), of equal widths rounded up to 16 columns and
counted from grid column 0: an 80x80 map at 64 -> 64 channels on 2 cores
runs as 6 blocks of 1,104 columns rather than 5 of 1,360, the last one
short, and a 40x40 map as 848 + 832 rather than 1,360 + 320. Timed alone
at 2 workers, the equal widths took 29.2 / 7.8 / 2.7 ms for
160/80/40-pixel maps against 30.1 / 8.5 / 3.5 ms (faster in 8, 10 and 12
of 12 rotated rounds). The rounding to 16 columns is for speed alone,
and the evidence is mixed: in-process on sparse 640x640 detection,
unaligned equal widths were slower in 5 of 5 pairs in one session (219
against 202 ms per image) and faster in 10 of 16 rounds in another (137
against 140 ms). Inputs with at least
``_STACK_BELOW_CHANNELS`` (16) channels run one GEMM per tap into the
block, ``W[:, :, i, j] @ slice``, and sum them there. Thinner inputs (the 1-channel stem, the 8-channel
stride-2 conv) stack one block's tap slices into a (C*kh*kw, block)
operand and run a single GEMM: per tap their product has K = C, and each
tap's partial sum costs more memory traffic than copying the thin input
(on the 640x640 net, per-tap GEMMs for these two convs made detection
about 90 ms per image slower). With ``relu=True`` the epilogue of each
block, the bias add and ReLU, runs while the block is still in cache, so
a ReLU costs no pass of its own over the map; it is the only ReLU the
network runs, in training too.

A block that is not contiguous in the output is summed in a contiguous
(O, width) tile taken from its run's scratch: the first tap's GEMM
goes into the tile, each later tap's into a partial sum that is then
added to the tile, the bias is added there, and the tile is written to
the output once, through ReLU or as a plain copy. The output's rows lie
n * itemsize bytes apart (103,680 B on a 160x160 map), and an add over a
block of such rows cost about 4x the same add in a contiguous, cached
tile: 56 against 15 us per 64 x 1,296 float32 add (2-core Xeon, median
of 10 rotated placements). That is the blocking argument of Goto and van
de Geijn (2008). The GEMMs, the order of the adds and the bias add are
the same, so the bits are too. A block that is the whole grid of a
contiguous output sums in the output: every toy conv in training, and
every toy conv but the head trunk convs in inference, whose output is a
chained plane (below).

A sweep of 256 KiB to 4 MiB on the
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

An output column's bits come from its block's calls alone: GEMMs of
fixed widths at fixed column offsets, then the adds, bias add and ReLU
in a fixed order. So they cannot depend on the worker count, on which
worker runs the block, or on whether other blocks run at all (a banded
conv, below): reproducibility by a fixed order of operations (Demmel and
Nguyen 2013), which asks of the BLAS only that a call repeat its bits
and compute each output column from its own operand column. A blocked
grid need not match one unblocked GEMM to the bit, nor a machine with
another core count, whose block edges differ.

A grid of several blocks runs on one worker thread per usable core,
``len(os.sched_getaffinity(0))`` (``os.cpu_count()`` where there is no
affinity mask). Its blocks are split into contiguous runs, one per
worker; the calling thread runs the first, a lazily created module-level
``ThreadPoolExecutor`` the others, and the phase-plane fill is split the
same way by input channels. The process's CPU affinity mask (``taskset``)
is the only control; there is no option, environment variable or BLAS
setting. While a ``forkpool`` pool runs (training's or detection's,
one process or more), each of its processes takes an equal share of
those cores (``_processes``), while the blocks stay those of all the usable
cores, so the bits are the same in a pool as outside it. Blocks write
disjoint output columns. Every run has its own block scratch, which the
calling thread takes before it dispatches, so a :class:`Workspace` is
still touched by the calling thread alone. A grid of one block, every conv of
the toy net among them, runs inline and submits nothing. numpy releases
the GIL inside the GEMMs and the copies, so the workers overlap. They
are no BLAS thread setting in disguise: a 160x160 64 -> 64 conv took
48.4 ms at 1 BLAS thread and 1 worker, 32.4 ms at 1 BLAS thread and 2
workers, 40.6 ms at 2 BLAS threads and 1 worker and 46.7 ms at 2 and 2
(2-core shared Xeon, medians of 10 rotated rounds): OpenBLAS's own
threads gain less on these small GEMMs, and on top of the workers they
oversubscribe the cores. A forked child drops the pool it inherited,
whose threads do not exist in it, and builds a new one on first use.

A gated detection forward asks conv2d for some output rows only
(``rows``). conv2d computes the blocks that hold a column of those rows,
whole (``_touched``), and copies into the phase planes only the input
rows those blocks read. Requested rows are then the full output's bits
by the argument above; a request that touches every block is the full
conv.

An inference forward passes a :class:`Workspace`: conv2d then takes its
phase planes, block scratch and output from the workspace's named
buffers, which the next image reuses, and returns no cache.

In a chain of 3x3 stride-1 convs on one map (the head branches), an
inference conv writes its grid straight into the phase plane its
successor reads, and the successor fills no planes. That plane holds
pixel (y, x) at flat offset (y + 1) * wq + x + 1, which is grid column
y * wq + x shifted by wq + 1, so the grid goes in at offset wq + 1. Three
zeroings after the write make it the plane a fill would have made: the
top frame (offsets below wq + 1), each grid row's two wrapped columns
(they land on the right pad of their row and the left pad of the next),
and the bottom row with the tail. Everything else is grid column for
grid column the values the successor's fill would have copied, so its
bits are the same. A banded producer writes only its blocks. The
successor's requested rows read only rows the producer was asked for,
since a branch widens each conv's rows by the halo of the convs after
it; its blocks' other columns may read unwritten plane, which reaches
only outputs outside the requested rows. Without the
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

# Block widths are rounded up to a multiple of this many grid columns, for
# speed only (see the module docstring for the mixed timings).
_ALIGN = 16

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
    cols = _BLOCK_BYTES // (itemsize * (c + 2 * o)) // _ALIGN * _ALIGN
    return max(cols, _ALIGN)


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
    """The column blocks ``(lo, hi)`` an n-column grid is computed in.

    A grid of one cache block is one block. A longer one is cut into
    ceil(n / cache block) blocks, rounded up to a multiple of the usable
    cores, of equal widths rounded up to ``_ALIGN`` columns; the last block
    is shorter. The blocks depend on the conv's shape and the cores alone,
    not on the worker count, so every block is the same GEMM calls however
    the blocks are run.
    """
    count = -(-n // _block_width(c, o, itemsize))
    if count > 1:
        count = -(-count // _cores()) * _cores()
    width = -(-n // (count * _ALIGN)) * _ALIGN
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

    ``weights`` is (O, kh*kw*C) for stacked taps, (kh*kw, O, C) for one
    GEMM per tap. A block that is not contiguous in ``out`` is summed in a
    contiguous (O, hi - lo) tile at the head of ``scratch``: the first tap's
    GEMM goes into the tile, every later one into a partial sum that is then
    added to it, the bias is added there too, and the tile is written to
    ``out`` once, through ReLU with ``relu``. A contiguous block (the whole
    grid of an ``out`` that is itself contiguous) sums in ``out``.
    """
    o = out.shape[0]
    for lo, hi in blocks:
        m = hi - lo
        block = out[:, lo:hi]
        if block.flags.c_contiguous:
            tile, rest = block, scratch
        else:
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
            np.maximum(tile, 0.0, out=block)
        elif tile is not block:
            block[...] = tile


def _taps_product(planes: np.ndarray, w: np.ndarray, b: np.ndarray, taps, blocks, out: np.ndarray, relu: bool, take, workers: int):
    """Write the conv into the column blocks ``blocks`` of ``out`` (O, n).

    The blocks are split into contiguous runs, one per worker; the calling
    thread runs the first. Every run has its own block scratch, taken here,
    so that only the calling thread touches ``take``'s workspace. A run's
    scratch holds a block's (O, width) tile, unless the only block is
    contiguous in ``out``, and after it the stacked taps or the partial sum.
    """
    o, c, kh, kw = w.shape
    width = max((hi - lo for lo, hi in blocks), default=0)
    lone = len(blocks) == 1 and out[:, slice(*blocks[0])].flags.c_contiguous
    size = 0 if lone else o * width
    if c < _STACK_BELOW_CHANNELS:
        weights = w.transpose(0, 2, 3, 1).reshape(o, -1)
        size += kh * kw * c * width
    else:
        weights = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
        size += o * width
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
    Output: (O, ceil(H/stride), ceil(W/stride)).

    The grid is computed in cache-sized column blocks, each summed in a
    contiguous tile whose bias add and, with ``relu=True``, ReLU run while
    it is in cache, before it is written out once (see the module
    docstring). A grid of several blocks, and its phase-plane fill, are
    split across one worker thread per usable core; the blocks, and so
    the output's bits, do not depend on the split. The cache then records
    the mask ``output > 0`` for :func:`conv2d_backward`.

    ``rows``, a sorted list of disjoint half-open output-row intervals
    ``(lo, hi)``, asks for those rows only: the blocks holding them run
    whole, so their values are bit-identical to the full output's. The
    other rows are not defined, and the cache is then not fit for
    :func:`conv2d_backward`.

    ``work`` (inference) supplies the phase planes, the block scratch and
    the output, which is its buffer ``slot`` and so holds only until
    ``slot`` is taken again. ``x`` may lie in ``slot``: it is copied into
    the phase planes before the output is written. No cache is made: the
    second value is None.

    Chained planes (with ``work``, 3x3 stride-1 convs only): ``frame=True``
    writes the output grid into buffer ``slot`` at offset wq + 1 of a
    zero-framed phase plane, the one a 3x3 stride-1 conv on the output
    reads, and zeroes the frame and the grid's wrapped columns there; the
    returned map is a view into it. ``framed`` names the buffer such a conv
    wrote ``x`` into: the fill is skipped and the plane read in place. A
    conv's ``framed`` and ``slot`` must differ.
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
    if framed is not None:
        planes = take(framed, plane_shape, x.dtype)
    else:
        planes = take("planes", plane_shape, x.dtype)
        fill = (planes, x, s, hq, wq, kh, kw, plane_rows)
        if workers > 1 and c > 1:
            parts = min(workers, c)
            _split(lambda k: _fill_planes(*fill, slice(k * c // parts, (k + 1) * c // parts)), range(parts))
        else:
            _fill_planes(*fill, slice(None))

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


def upsample2_backward(grad_out: np.ndarray, h_in: int, w_in: int) -> np.ndarray:
    """Adjoint of the nearest-neighbor 2x upsample: sum each 2x2 window back onto the source cell."""
    c, h_out, w_out = grad_out.shape
    full = np.zeros((c, 2 * h_in, 2 * w_in), dtype=grad_out.dtype)
    full[:, :h_out, :w_out] = grad_out
    return full.reshape(c, h_in, 2, w_in, 2).sum(axis=(2, 4))


def fuse(current: np.ndarray, higher: np.ndarray, out: np.ndarray | None = None, work: Workspace | None = None) -> np.ndarray:
    """Element-wise add of the 2x-upsampled deeper map into the current map.

    ``higher`` must be the ceil-half spatial size of ``current`` with the
    same channel count (project channels first). ``higher`` is copied once
    with every column doubled, and that copy is added to the even and to
    the odd rows of ``current``: two adds over whole rows rather than four
    over every other element. No upsampled map is built, and every element
    is the same single addition as ``current + upsample(higher)``. A map
    larger than one cache block is split by channels across the conv
    workers. In a sparse 640x640 forward (2 workers, 1 BLAS thread) the
    fuses took 3.4 ms per image, against 7.7 ms for four strided phase
    adds, 4.6 ms for those split by channels and 5.2 ms for the doubled
    copy unsplit. ``out`` (which may be ``current`` itself) receives the
    result; by default it is a new array. ``work`` (inference) holds the
    doubled copy in its buffer ``fuse``.
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
    if out is None:
        out = np.empty(current.shape, np.result_type(current, higher))
    wide = (_empty if work is None else work.take)("fuse", (c, hh, 2 * wh), higher.dtype)

    def add(chans: slice) -> None:
        doubled = wide[chans]
        doubled[:, :, 0::2] = higher[chans]
        doubled[:, :, 1::2] = higher[chans]
        for a in range(2):
            dst = out[chans, a::2]
            np.add(current[chans, a::2], doubled[:, : dst.shape[1], :w], out=dst)

    parts = min(_workers(), c)
    if parts > 1 and out.nbytes > _BLOCK_BYTES:
        _split(lambda k: add(slice(k * c // parts, (k + 1) * c // parts)), range(parts))
    else:
        add(slice(None))
    return out
