"""From-scratch conv-net primitives: conv2d (with fused ReLU) and 2x upsample-add fusion.

Tensors are single-image (C, H, W) arrays; weights are (out_ch, in_ch,
kh, kw). Convolutions use "same" padding (k - 1) // 2, so the output is
ceil(in / stride) per axis, as the anchor layout expects. Every op keeps
its inputs' dtype (float32 in training, float64 in gradient checks); a
conv of mixed inputs computes in ``result_type(x, w)``, its planes filled
in it and its weights cast to it, so every GEMM takes one dtype.

Phase planes. conv2d pads its input once into stride**2 contiguous
(C, hq*wq) phase planes: phase (a, b) holds the padded pixels at rows
a, a + s, ... and columns b, b + s, .... Tap (i, j) reads phase
(i % s, j % s) at flat offset (i // s) * wq + j // s, a column slice BLAS
takes without a copy, so no im2col buffer is built. The output is an
(h_out, wq) grid of n = h_out * wq columns whose wq - w_out right-hand
columns wrap into the next row: forward cuts them, backward zeroes them.

Blocks, and bits by construction. The grid is computed in column blocks
of ``_BLOCK_BYTES // (itemsize * (K + O))`` columns, so a block's GEMM
operand (K = C rows per tap, C*kh*kw stacked) and its tile fit in L2
together. A longer grid is cut into that many blocks, rounded up to a
multiple of the usable cores so threads get equal shares, of equal
widths from grid column 0. A column's bits come from its block's calls
alone: GEMMs of fixed widths at fixed offsets, then bias and ReLU in a
fixed order. The blocks depend on the conv's shape and the core count
only, so the bits do not depend on the thread count, on which thread
runs a block, or on whether other blocks run. The BLAS need only repeat
a call's bits and compute each output column from its own operand
column. Another core count, or another summation order such as one
im2col GEMM, moves the last bits.

The tile. Each block is summed in a contiguous (O, width) tile from its
run's scratch: the first tap's GEMM writes the tile (beta = 0, which
never reads it), each later one adds its product into it inside the GEMM
(C := W X + C, beta = 1), then the bias, and the tile is written out
once, through ReLU or as a copy. Output rows lie a grid row apart, so
adds there would stream through memory; in the tile the bias and ReLU
stay in cache, and ReLU takes no pass of its own. Inputs with fewer than
``_STACK_BELOW_CHANNELS`` channels stack a block's tap slices into one
(C*kh*kw, width) operand for a single GEMM, since a per-tap product
would have K = C, too thin for BLAS.

The GEMM. :func:`_gemm` calls numpy's bundled OpenBLAS through ctypes
for the beta = 1 that numpy's matmul lacks; a beta = 0 product is
np.matmul's, the same GEMM call. OpenBLAS sums a product over K and then
adds it to C, so with alpha = 1 a call has the bits of np.matmul into a
buffer and an add, as long as K fits in one of OpenBLAS's K blocks; past
that it adds each block's product into C in turn. Products with K over
``_FOREIGN_MAX_K`` (a third of SkylakeX's smaller block; every conv of the
stock nets has K <= 64) therefore take that numpy path. It also runs
where numpy ships no OpenBLAS, and in the tests as the reference.

Thread share. A grid of several blocks runs on this process's share of
the usable cores (``os.sched_getaffinity``), the cores divided by
``_processes``, which a running ``forkpool`` pool sets so that processes
x threads stays within the cores. The blocks split into contiguous runs,
one per thread, the first on the calling thread; the plane fill splits
by channels. Each run's scratch is taken before dispatch, so only the
calling thread touches a :class:`Workspace`. numpy and ctypes release
the GIL in GEMMs and copies. A forked child drops the pool whose threads
it lacks.

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

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

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

# A conv sums its tap GEMMs over column blocks whose GEMM operand and tile
# take about this many bytes, so they stay in L2.
_BLOCK_BYTES = 1 << 20


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as ``(get_threads, set_threads, gemms)``, or None if there is none.

    ``gemms`` maps float32 and float64 to ``(gemm, real, index)``: the
    library's CBLAS GEMM and the ctypes types of its scalars and its
    integers (64-bit where the symbols end in ``64_``). The GEMM declares
    no argument types, which saves converting every argument on every
    call; it is called with ctypes values of those types only.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            index = ctypes.c_int64 if suffix else ctypes.c_int
            gemms = {}
            for dtype, real, name in ((np.float32, ctypes.c_float, "s"), (np.float64, ctypes.c_double, "d")):
                gemm = getattr(lib, f"{prefix}cblas_{name}gemm{suffix}", None)
                if gemm is not None:
                    gemm.restype = None
                    gemms[np.dtype(dtype)] = gemm, real, index
            return get, put, gemms
    return None


_ROW_MAJOR, _NO_TRANS, _TRANS = (ctypes.c_int(v) for v in (101, 111, 112))  # CBLAS enum values


# OpenBLAS sums K in blocks of a few hundred (448 in float32 and 384 in
# float64 on SkylakeX) and adds each block into C; a product of longer K
# than this runs in numpy, whose single add after the GEMM has other bits.
_FOREIGN_MAX_K = 128


def _address(x: np.ndarray) -> int:
    """The address of a C-contiguous array's first element."""
    # ctypes reads a writable buffer's address in a third of the time ``x.ctypes`` takes
    return ctypes.addressof(ctypes.c_char.from_buffer(x)) if x.flags.writeable else x.ctypes.data


def _gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int, calls, trans_a: bool = False) -> None:
    """``C := op(A[t]) @ B + beta * C`` for the t-th ``(B row, B column, C row, C column, beta)`` of ``calls``.

    The calls run in order. ``a`` stacks one matrix per call, op(A[t])
    m x k: A[t] itself, or its transpose with ``trans_a``. B and C are the
    k x n and m x n windows of the 2-D arrays ``b`` and ``c`` whose
    top-left elements sit at the call's rows and columns. beta is 0.0,
    which never reads C, or 1.0, which adds the product into C.

    A beta = 0 call is np.matmul into C, which calls the same GEMM at a
    lower cost per call. A beta = 1 call is one GEMM in numpy's bundled
    OpenBLAS when m, n, k > 1 (numpy's matmul calls GEMM only then),
    k <= ``_FOREIGN_MAX_K``, and the three arrays share a float32 or
    float64 dtype, are C-contiguous and hold the call's operands.
    Otherwise np.matmul computes the product into a buffer that is then
    added to C. Each way gives the same bits (see the module docstring).
    """
    rows, cols = a.shape[1:]
    m, k = (cols, rows) if trans_a else (rows, cols)
    gemm = None
    if min(m, n, k) > 1 and k <= _FOREIGN_MAX_K and any(call[4] for call in calls):
        blas = _openblas()
        if (
            blas is not None
            and a.dtype == b.dtype == c.dtype
            and (a.ndim, b.ndim, c.ndim) == (3, 2, 2) and len(calls) <= len(a)
            and a.flags.c_contiguous and b.flags.c_contiguous and c.flags.c_contiguous
        ):
            gemm = blas[2].get(c.dtype)
    if gemm is not None:
        gemm, real, index = gemm
        (lda, ldb, ldc), item = (a.shape[2], b.shape[1], c.shape[1]), c.itemsize
        pa, pb, pc, step = _address(a), _address(b), _address(c), m * k * item
        # CBLAS order, transA, transB, M, N, K and alpha; then A, lda, B, ldb, beta, C, ldc
        head = (_ROW_MAJOR, _TRANS if trans_a else _NO_TRANS, _NO_TRANS, index(m), index(n), index(k), real(1.0))
        c_lda, c_ldb, c_ldc, c_beta = index(lda), index(ldb), index(ldc), real(1.0)
        # the last row and column where each call's B and C windows may start
        rb_end, cb_end, rc_end, cc_end = b.shape[0] - k, ldb - n, c.shape[0] - m, ldc - n
    part = None  # the products added to C on the numpy path
    for t, (rb, cb, rc, cc, beta) in enumerate(calls):
        if (
            beta and gemm is not None
            and 0 <= rb <= rb_end and 0 <= cb <= cb_end and 0 <= rc <= rc_end and 0 <= cc <= cc_end
        ):
            gemm(*head, ctypes.c_void_p(pa + t * step), c_lda, ctypes.c_void_p(pb + (rb * ldb + cb) * item), c_ldb,
                 c_beta, ctypes.c_void_p(pc + (rc * ldc + cc) * item), c_ldc)
            continue
        op_a = a[t].T if trans_a else a[t]
        out = c[rc : rc + m, cc : cc + n]
        if beta:
            if part is None:
                part = np.empty((m, n), np.result_type(a, b))
            np.matmul(op_a, b[rb : rb + k, cb : cb + n], out=part)
            out += part
        else:
            np.matmul(op_a, b[rb : rb + k, cb : cb + n], out=out)


@functools.cache  # a net has few conv shapes, and every conv call asks for its layout
def _layout(h: int, wd: int, kh: int, kw: int, s: int):
    """Output size, phase-plane size and the (phase, offset) of each tap."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out = (h + 2 * ph - kh) // s + 1
    w_out = (wd + 2 * pw - kw) // s + 1
    hq, wq = -(-(h + 2 * ph) // s), -(-(wd + 2 * pw) // s)
    taps = tuple(((i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw))
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


def _block_width(k: int, o: int, itemsize: int) -> int:
    """Grid columns per block: its GEMM operand (k rows: the input channels, or kh*kw
    times them for stacked taps) and its tile (o rows) fill ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (itemsize * (k + o)))


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


def _blocks(n: int, k: int, o: int, itemsize: int) -> list[tuple[int, int]]:
    """The column blocks ``(lo, hi)`` an n-column grid is computed in (see the module docstring)."""
    count = -(-n // _block_width(k, o, itemsize))
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


def _run_blocks(blocks, scratch: np.ndarray, planes: np.ndarray, weights: np.ndarray, stack: bool, bias: np.ndarray, taps, out: np.ndarray, relu: bool):
    """Write the conv into columns [lo, hi) of ``out`` for each (lo, hi) of ``blocks``.

    ``planes`` is (s*s*C, plane length) and each tap (its first plane
    row, its column offset). ``weights`` is (1, O, kh*kw*C) for stacked
    taps (``stack``), (kh*kw, O, C) per tap. ``scratch`` holds the tile,
    then the stacked taps.
    """
    o = out.shape[0]
    for lo, hi in blocks:
        m = hi - lo
        tile = scratch[: o * m].reshape(o, m)
        if stack:
            c = weights.shape[2] // len(taps)
            stacked = scratch[o * m : o * m + weights.shape[2] * m].reshape(len(taps), c, m)
            for t, (row, off) in enumerate(taps):
                stacked[t] = planes[row : row + c, off + lo : off + hi]
            _gemm(weights, stacked.reshape(-1, m), tile, m, [(0, 0, 0, 0, 0.0)])
        else:
            # the first tap writes the tile, each later one adds into it
            calls = [(row, off + lo, 0, 0, 1.0 if t else 0.0) for t, (row, off) in enumerate(taps)]
            _gemm(weights, planes, tile, m, calls)
        tile += bias
        if relu:
            np.maximum(tile, 0.0, out=out[:, lo:hi])
        else:
            out[:, lo:hi] = tile


def _taps_product(planes: np.ndarray, w: np.ndarray, b: np.ndarray, stack: bool, taps, blocks, out: np.ndarray, relu: bool, take, workers: int):
    """Write the conv into the column blocks ``blocks`` of ``out`` (O, n), one run per worker."""
    o, c, kh, kw = w.shape
    width = max((hi - lo for lo, hi in blocks), default=0)
    if stack:
        weights = w.transpose(0, 2, 3, 1).reshape(1, o, -1)
        size = (o + kh * kw * c) * width
    else:
        weights = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
        size = o * width
    taps = [(p * c, off) for p, off in taps]
    planes = planes.reshape(-1, planes.shape[2])
    runs = min(workers, len(blocks))
    bias = b[:, None]
    if runs <= 1:
        _run_blocks(blocks, take("scratch", (size,), out.dtype), planes, weights, stack, bias, taps, out, relu)
        return
    scratch = [take(f"scratch{k}" if k else "scratch", (size,), out.dtype) for k in range(runs)]
    m = len(blocks)
    _split(
        lambda k: _run_blocks(blocks[k * m // runs : (k + 1) * m // runs], scratch[k], planes, weights, stack, bias, taps, out, relu),
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
    # one dtype for every GEMM: the planes are filled in it, the weights cast to it
    dtype = np.result_type(x, w)
    if framed is not None and x.dtype != dtype:
        raise ValueError(f"conv2d: a chained plane holds {x.dtype}, the conv computes in {dtype}")
    if w.dtype != dtype:
        w = w.astype(dtype)
    take = _empty if work is None else work.take
    s = stride
    h_out, w_out, hq, wq, taps = _layout(h, wd, kh, kw, s)
    n = h_out * wq
    stack = c < _STACK_BELOW_CHANNELS
    partition = _blocks(n, kh * kw * c if stack else c, o, dtype.itemsize)
    blocks = _touched(partition, rows, wq)
    workers = _workers() if len(partition) > 1 else 1
    # plane rows a banded conv's blocks read: block [lo, hi) reaches up to
    # the furthest tap's offset past hi - 1 (adjacent blocks share a few)
    reach = (kh - 1) // s * wq + (kw - 1) // s
    plane_rows = [(0, hq)] if len(blocks) == len(partition) else [
        (lo // wq, min(hq, (hi - 1 + reach) // wq + 1)) for lo, hi in blocks
    ]
    plane_shape = (s * s, c, hq * wq + (kw - 1) // s)
    planes = take("planes" if framed is None else framed, plane_shape, dtype)
    if framed is None:
        _split_channels(lambda chans: _fill_planes(planes, x, s, hq, wq, kh, kw, plane_rows, chans), c, min(workers, c))

    if frame:
        # the same-size successor's plane: its pixel (y, x) sits at
        # (y + 1) * wq + x + 1, which is grid column y * wq + x plus wq + 1
        plane = take(slot, (1, o, hq * wq + 2), dtype)[0]
        out = plane[:, wq + 1 : wq + 1 + n]
    else:
        out = take(slot, (o, n), dtype)
    _taps_product(planes, w, b, stack, taps, blocks, out, relu, take, workers)
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

    Per tap: ``grad_w[:, :, i, j] = g @ slice.T``, and the GEMM adds
    ``W[:, :, i, j].T @ g`` straight into the zeroed gradient planes at that
    slice (beta = 1, the plane length as C's row stride), with no
    temporary. ``input_grad=False`` skips the input gradient and returns
    None for it.
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
    calls = [(0, 0, p * c, off, 1.0) for p, off in taps]
    _gemm(w_taps, g, grad_planes.reshape(-1, planes.shape[2]), n, calls, trans_a=True)
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
