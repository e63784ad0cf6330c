import os
import signal
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorkit import layers
from anchorkit.gradcheck import check_conv2d, check_fuse, finite_diff, rel_err
from anchorkit.layers import (
    Workspace,
    conv2d,
    conv2d_backward,
    fuse,
    upsample2_backward,
)

from oracles import conv2d_oracle, upsample2


class TestConv2d:
    def test_identity_1x1(self):
        x = np.random.default_rng(0).normal(size=(3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out, _ = conv2d(x, w, np.zeros(3))
        np.testing.assert_allclose(out, x)

    def test_ones_kernel_sums(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out, _ = conv2d(x, w, np.zeros(1))
        assert out[0, 1, 1] == 9.0
        for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[0, r, c] == 4.0

    @pytest.mark.parametrize(
        "h,w,stride",
        [(5, 5, 1), (5, 5, 2), (6, 4, 2), (7, 3, 2), (4, 4, 1), (1, 1, 1), (1, 1, 2), (2, 3, 1), (2, 3, 2)],
    )
    def test_matches_loop_oracle(self, h, w, stride):
        # 2 and 3 input channels stack the taps into one GEMM, 17 runs one
        # GEMM per tap.
        rng = np.random.default_rng(h * 100 + w * 10 + stride)
        for c in (2, 3, 17):
            for k in (1, 3):
                x = rng.normal(size=(c, h, w))
                wt = rng.normal(size=(3, c, k, k))
                b = rng.normal(size=3)
                out, _ = conv2d(x, wt, b, stride=stride)
                np.testing.assert_allclose(out, conv2d_oracle(x, wt, b, stride), atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_per_tap_grouping(self, stride):
        # check_conv2d draws 1-3 input channels; 17 takes the per-tap GEMMs.
        rng = np.random.default_rng(30 + stride)
        x = rng.normal(size=(17, 5, 4))
        wt = rng.normal(0.0, 0.5, size=(3, 17, 3, 3))
        b = rng.normal(0.0, 0.5, size=3)
        out, cache = conv2d(x, wt, b, stride=stride)
        proj = rng.normal(size=out.shape)

        def scalar() -> float:
            return float((conv2d(x, wt, b, stride=stride)[0] * proj).sum())

        gx, gw, gb = conv2d_backward(proj, cache)
        assert rel_err(gx, finite_diff(scalar, x)) < 1e-6
        assert rel_err(gw, finite_diff(scalar, wt)) < 1e-6
        assert rel_err(gb, finite_diff(scalar, b)) < 1e-6

    @pytest.mark.parametrize("c,stride", [(8, 2), (64, 1)])
    def test_float32_reruns_byte_identical(self, c, stride):
        rng = np.random.default_rng(c)
        x = rng.normal(size=(c, 21, 19)).astype(np.float32)
        wt = rng.normal(size=(16, c, 3, 3)).astype(np.float32)
        b = rng.normal(size=16).astype(np.float32)
        runs = []
        for _ in range(2):
            out, cache = conv2d(x, wt, b, stride=stride)
            grads = conv2d_backward(np.ones_like(out), cache)
            runs.append([out.tobytes()] + [g.tobytes() for g in grads])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("size,stride", [(5, 1), (5, 2), (8, 2), (9, 2)])
    def test_ceil_output_dims(self, size, stride):
        x = np.zeros((1, size, size))
        w = np.zeros((1, 1, 3, 3))
        out, _ = conv2d(x, w, np.zeros(1), stride=stride)
        assert out.shape == (1, -(-size // stride), -(-size // stride))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_bands_bit_equal_full(self, data):
        # Requested rows run as whole blocks of the full grid's partition,
        # so they are exact for grids of any length, in one block or cut
        # into blocks of 16-64 columns. Both groupings (3 stacks its taps,
        # 17 and 64 do not).
        c = data.draw(st.sampled_from([3, 17, 64]), "channels")
        o = data.draw(st.sampled_from([2, 4, 64]), "filters")
        stride = data.draw(st.sampled_from([1, 1, 2]), "stride")
        h = data.draw(st.integers(1, 40), "height")
        if data.draw(st.booleans(), "whole 16-column blocks"):
            # wq = 16 k, so every grid length h_out * wq is a multiple of 16
            wd = stride * 16 * data.draw(st.integers(1, 2)) - 2
        else:
            wd = data.draw(st.integers(1, 40), "width")
        h_out, _, _, wq, _ = layers._layout(h, wd, 3, 3, stride)
        cuts = sorted(data.draw(st.sets(st.integers(0, h_out), min_size=1, max_size=6), "cuts"))
        if data.draw(st.booleans(), "touch top"):
            cuts = [0] + [v for v in cuts if v > 0]
        if data.draw(st.booleans(), "touch bottom"):
            cuts = [v for v in cuts if v < h_out] + [h_out]
        rows = [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi]

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        x = rng.normal(size=(c, h, wd)).astype(np.float32)
        w = rng.normal(size=(o, c, 3, 3)).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32)
        block = data.draw(st.sampled_from([None, 16, 32, 64]), "block width")
        size = layers._BLOCK_BYTES if block is None else block * 4 * (c + 2 * o)
        with mock.patch.object(layers, "_BLOCK_BYTES", size):
            full, _ = conv2d(x, w, b, stride=stride)
            banded, _ = conv2d(x, w, b, stride=stride, rows=rows)
        assert banded.shape == full.shape
        for lo, hi in rows:
            np.testing.assert_array_equal(banded[:, lo:hi], full[:, lo:hi])

    def test_grid_off_16_columns_bands_exact(self):
        # A 20x20 map's grid has 440 columns, ending on a partial 16. Its
        # bands equal the full conv whether the grid is one block or cut
        # into 220 + 220 columns.
        rng = np.random.default_rng(20)
        for lo in range(0, 20, 2):
            x = rng.normal(size=(64, 20, 20)).astype(np.float32)
            w = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
            b = rng.normal(size=64).astype(np.float32)
            for size in (layers._BLOCK_BYTES, 336 * 4 * (64 + 2 * 64)):
                with mock.patch.object(layers, "_BLOCK_BYTES", size), \
                        mock.patch.object(layers, "_cores", lambda: 2):
                    full, _ = conv2d(x, w, b)
                    banded, _ = conv2d(x, w, b, rows=[(lo, 20)])
                np.testing.assert_array_equal(banded[:, lo:], full[:, lo:])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_gradients(self):
        rng = np.random.default_rng(21)
        assert check_conv2d(rng, 10) < 1e-6

    def test_dtype_follows_input(self):
        x32 = np.zeros((1, 4, 4), dtype=np.float32)
        out, _ = conv2d(x32, np.zeros((1, 1, 3, 3), dtype=np.float32), np.zeros(1, dtype=np.float32))
        assert out.dtype == np.float32


# Memory conv2d allocates holds NaN, so a conv that reads a value it did not
# write shows it in its output or, through 0 * NaN, in its gradients.
def nan_empty(name, shape, dtype):
    return np.full(shape, np.nan, dtype)


def poisoned_workspace(sizes: dict[str, int]) -> Workspace:
    """A Workspace whose float32 buffers hold ``sizes[name]`` NaNs each."""
    work = Workspace()
    for name, size in sizes.items():
        work.take(name, (size,), np.float32)[:] = np.nan
    return work


class TestRelu:
    # ReLU runs only inside conv2d(..., relu=True); a 1x1 identity conv
    # exposes it element by element.
    def identity(self, values):
        x = np.array(values).reshape(len(values), 1, 1)
        return x, np.eye(len(values)).reshape(len(values), len(values), 1, 1), np.zeros(len(values))

    def test_forward_and_mask(self):
        x, w, b = self.identity([-1.0, 0.0, 2.0])
        out, cache = conv2d(x, w, b, relu=True)
        np.testing.assert_allclose(out.ravel(), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(cache[-1].ravel(), [False, False, True])

    def test_backward(self):
        x, w, b = self.identity([-1.0, 3.0])
        _, cache = conv2d(x, w, b, relu=True)
        gx, _, gb = conv2d_backward(np.full((2, 1, 1), 5.0), cache)
        np.testing.assert_allclose(gx.ravel(), [0.0, 5.0])
        np.testing.assert_allclose(gb, [0.0, 5.0])


# Blocked and unblocked float32 grids agree within this many units in the
# last place of the map's largest magnitude.
ULPS = 4


class _WidthDependentGemm:
    """numpy, except that ``matmul`` rounds a float64 product to the output
    dtype and then moves some columns up one ulp, chosen by the call's width
    and each column's place in the call: a GEMM whose bits change whenever a
    column is computed in a differently cut call."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b, out):
        m = b.shape[-1]
        # a banded chained conv's blocks also read plane columns its
        # producer did not write, which may hold any bits
        with np.errstate(over="ignore", invalid="ignore"):
            prod = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(out.dtype)
        nudged = (np.arange(m) * 7 + m) % 3 == 0
        prod[:, nudged] = np.nextafter(prod[:, nudged], np.inf)
        out[...] = prod
        return out


class TestFixedCalls:
    """Every column comes from the same GEMM calls however the conv is run,
    so a GEMM whose bits depend on how a call is cut changes no output."""

    @pytest.mark.parametrize("c,stride,wd", [(3, 1, 29), (17, 1, 30), (17, 2, 29), (64, 1, 29)])
    def test_width_dependent_gemm(self, c, stride, wd):
        rng = np.random.default_rng(c + stride + wd)
        o = 4
        x = rng.normal(size=(c, 23, wd)).astype(np.float32)
        w = rng.normal(size=(o, c, 3, 3)).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32)
        # the successor of a chained plane, a 3x3 stride-1 conv on the output
        w2 = rng.normal(size=(4, o, 3, 3)).astype(np.float32)
        b2 = rng.normal(size=4).astype(np.float32)
        h_out = -(-23 // stride)
        rows = [(2, 5), (11, 12), (h_out - 1, h_out)]
        wide = [(max(0, lo - 1), min(h_out, hi + 1)) for lo, hi in rows]

        def convs():
            """The conv computed every way: full, banded, in a Workspace and chained."""
            got = {"full": conv2d(x, w, b, stride=stride, relu=True)[0]}
            got["banded"] = conv2d(x, w, b, stride=stride, rows=rows, relu=True)[0]
            work = Workspace()
            got["work"] = conv2d(x, w, b, stride=stride, relu=True, work=work)[0].copy()
            got["work banded"] = conv2d(x, w, b, stride=stride, rows=rows, relu=True, work=work)[0].copy()
            if stride == 1:
                framed = conv2d(x, w, b, relu=True, work=work, slot="chain0", frame=True)[0]
                got["framed"] = framed.copy()
                got["chained"] = conv2d(framed, w2, b2, work=work, framed="chain0")[0].copy()
                framed = conv2d(x, w, b, rows=wide, relu=True, work=work, slot="chain1", frame=True)[0]
                got["chained banded"] = conv2d(framed, w2, b2, rows=rows, work=work, framed="chain1")[0].copy()
            return got

        # 112-column cache blocks for the conv, 96-672 for its successor
        with mock.patch.object(layers, "np", _WidthDependentGemm()), \
                mock.patch.object(layers, "_BLOCK_BYTES", 112 * 4 * (c + 2 * o)), \
                mock.patch.object(layers, "_cores", lambda: 4):
            with mock.patch.object(layers, "_workers", lambda: 1):
                want = conv2d(x, w, b, stride=stride, relu=True)[0]
                successor = conv2d(want, w2, b2)[0]
            runs = {}
            for workers in (1, 2, 3, 4):
                with mock.patch.object(layers, "_workers", lambda: workers):
                    runs[f"{workers} workers"] = convs()
            with mock.patch.object(layers, "_processes", 2):
                runs["2 processes"] = convs()
        differ = []
        for run, got in runs.items():
            for name, out in got.items():
                ref = successor if name.startswith("chained") else want
                if "banded" in name:
                    out, ref = (np.concatenate([m[:, lo:hi] for lo, hi in rows], axis=1) for m in (out, ref))
                if not np.array_equal(out, ref):
                    differ.append(f"{name} at {run}")
        assert not differ


class TestColumnBlocks:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_block_edges(self, data):
        # _BLOCK_BYTES is shrunk so that cache blocks are 16-64 columns wide
        # and the grid spans at least 3 of them; the blocked runs allocate
        # NaN. At 1, 2 and 3 workers every output equals the blocked one at
        # 1 worker, with and without ReLU, full and banded, in a
        # NaN-poisoned Workspace too, and a stride-1 output written as the
        # framed plane of a successor conv gives that conv the bits of a
        # filled plane. Blocked and unblocked float32 grids are different
        # GEMM calls, which need not agree to the bit: they must agree
        # within ``ULPS`` units in the last place of the map's largest
        # magnitude (at most 1.1 seen in 400 draws on OpenBLAS 0.3.31).
        c = data.draw(st.sampled_from([3, 17, 64]), "channels")
        o = data.draw(st.sampled_from([2, 4, 64]), "filters")
        stride = data.draw(st.sampled_from([1, 2]), "stride")
        relu = data.draw(st.booleans(), "relu")
        width = 16 * data.draw(st.integers(1, 4), "block width / 16")
        if data.draw(st.booleans(), "whole 16-column blocks"):
            wd = stride * 16 * data.draw(st.integers(1, 2)) - 2  # wq = 16 k
        else:
            wd = data.draw(st.integers(1, 40), "width")
        _, _, _, wq, _ = layers._layout(1, wd, 3, 3, stride)
        h_min = -(-3 * width // wq) * stride
        h = data.draw(st.integers(h_min, h_min + 8), "height")
        h_out, _, hq, wq, _ = layers._layout(h, wd, 3, 3, stride)
        n = h_out * wq
        assert n >= 3 * width

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        x = rng.normal(size=(c, h, wd))
        w = rng.normal(size=(o, c, 3, 3))
        b = rng.normal(size=o)
        x32, w32, b32 = x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
        # the successor of a chained plane: a 3x3 stride-1 conv on the output
        w2 = rng.normal(size=(4, o, 3, 3)).astype(np.float32)
        b2 = rng.normal(size=4).astype(np.float32)

        def run(x, w, b, **kw):
            return conv2d(x, w, b, stride=stride, **kw)[0]

        unblocked = run(x32, w32, b32)
        g = rng.normal(size=unblocked.shape).astype(np.float32)
        with mock.patch.object(layers, "_BLOCK_BYTES", width * 4 * (c + 2 * o)), \
                mock.patch.object(layers, "_empty", nan_empty):
            assert layers._block_width(c, o, 4) == width
            with mock.patch.object(layers, "_BLOCK_BYTES", width * 8 * (c + 2 * o)):
                # the loop oracle is slow: check one output channel of the float64 conv
                oc = data.draw(st.integers(0, o - 1), "checked channel")
                want = conv2d_oracle(x, w[oc : oc + 1], b[oc : oc + 1], stride)
                np.testing.assert_allclose(run(x, w, b)[oc : oc + 1], want, atol=1e-12)
            with mock.patch.object(layers, "_workers", lambda: 1):
                blocked = run(x32, w32, b32)
                act = np.maximum(blocked, 0.0) if relu else blocked
                successor = conv2d(act, w2, b2)[0]
                want_grads = conv2d_backward(g, conv2d(x32, w32, b32, stride=stride, relu=True)[1])
            np.testing.assert_allclose(blocked, unblocked, rtol=0, atol=ULPS * np.spacing(np.abs(unblocked).max()))
            # a block edge inside the grid, and the output rows around it
            blocks = layers._blocks(n, c, o, 4)
            edge = data.draw(st.sampled_from([lo for lo, _ in blocks[1:]]), "block edge")
            rows = [((edge - 1) // wq, edge // wq + 1)]
            for workers in (1, 2, 3):
                with mock.patch.object(layers, "_workers", lambda: workers), \
                        mock.patch.object(layers, "_split", wraps=layers._split) as split:
                    full = run(x32, w32, b32)
                    assert split.called == (workers > 1)
                    fused, cache = conv2d(x32, w32, b32, stride=stride, relu=True)
                    grads = conv2d_backward(g, cache)
                    banded = run(x32, w32, b32, rows=rows, relu=relu)
                    scratch = 9 * (c + o + 4) * n  # covers the conv and its successor
                    plane = o * (hq * wq + 2)  # a stride-1 output's framed plane
                    sizes = {"planes": stride**2 * c * (hq * wq + 2 // stride), "scratch": scratch,
                             "scratch1": scratch, "scratch2": scratch, "out": max(o, 4) * n,
                             "chain0": plane, "chain1": plane}
                    work = poisoned_workspace(sizes)
                    # copies: the next call takes "out" again
                    in_work = run(x32, w32, b32, relu=relu, work=work).copy()
                    banded_in_work = run(x32, w32, b32, rows=rows, relu=relu, work=work).copy()
                    if stride == 1:
                        # the successor's rows read one more row on each side
                        wide = [(max(0, lo - 1), min(h_out, hi + 1)) for lo, hi in rows]
                        framed, framed_band = (
                            run(x32, w32, b32, rows=r, relu=relu, work=work, slot=slot, frame=True)
                            for r, slot in ((None, "chain0"), (wide, "chain1"))
                        )
                        chained = conv2d(framed, w2, b2, work=work, framed="chain0")[0].copy()
                        chained_band = conv2d(framed_band, w2, b2, rows=rows, work=work, framed="chain1")[0]
                    # every buffer the convs took was a poisoned one, not regrown
                    assert {k: v.size for k, v in work._buffers.items()} == sizes
                np.testing.assert_array_equal(full, blocked)
                np.testing.assert_array_equal(fused, np.maximum(full, 0.0))
                np.testing.assert_array_equal(in_work, act)
                for got, want in zip(grads, want_grads):
                    np.testing.assert_array_equal(got, want)
                for lo, hi in rows:
                    np.testing.assert_array_equal(banded[:, lo:hi], act[:, lo:hi])
                    np.testing.assert_array_equal(banded_in_work[:, lo:hi], act[:, lo:hi])
                if stride == 1:
                    np.testing.assert_array_equal(framed, act)
                    np.testing.assert_array_equal(chained, successor)
                    for lo, hi in rows:
                        np.testing.assert_array_equal(chained_band[:, lo:hi], successor[:, lo:hi])

    def test_blocks(self):
        # float32 64 -> 64 convs: 1,365-column cache blocks become equal
        # widths in a multiple of the usable cores; the last block is short
        def widths(n: int, cores: int) -> list[int]:
            with mock.patch.object(layers, "_cores", lambda: cores):
                blocks = layers._blocks(n, 64, 64, 4)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            return [hi - lo for lo, hi in blocks]

        assert widths(160 * 162, 2) == [1296] * 20
        assert widths(80 * 82, 2) == [1094] * 5 + [1090]  # 6 blocks, not 5
        assert widths(40 * 42, 2) == [840, 840]  # not 1,365 + 315
        assert widths(41 * 40, 2) == [820, 820]
        assert widths(1365, 2) == [1365]  # one cache block
        assert widths(1366, 2) == [683, 683]
        assert widths(20 * 22, 2) == [440]
        assert widths(80 * 82, 1) == [1312] * 5
        assert widths(80 * 82, 3) == [1094] * 5 + [1090]
        # the partition follows the cores, not the workers or the processes sharing them
        with mock.patch.object(layers, "_cores", lambda: 2):
            want = layers._blocks(80 * 82, 64, 64, 4)
            for workers in (1, 3):
                with mock.patch.object(layers, "_workers", lambda: workers):
                    assert layers._blocks(80 * 82, 64, 64, 4) == want
            with mock.patch.object(layers, "_processes", 2):
                assert layers._workers() == 1
                assert layers._blocks(80 * 82, 64, 64, 4) == want

    def test_touched(self):
        # an 8-row grid of 10 columns in blocks of 16
        blocks = [(k, min(k + 16, 80)) for k in range(0, 80, 16)]
        # rows 1-2 and 5 are columns [10, 30) and [50, 60): blocks 0, 1 and 3
        assert layers._touched(blocks, [(1, 3), (5, 6)], 10) == [(0, 16), (16, 32), (48, 64)]
        # rows 1 and 3 are [10, 20) and [30, 40), which share block 1
        assert layers._touched(blocks, [(1, 2), (3, 4)], 10) == [(0, 16), (16, 32), (32, 48)]
        assert layers._touched(blocks, [(7, 8)], 10) == [(64, 80)]
        assert layers._touched(blocks, [], 10) == []
        assert layers._touched(blocks, [(0, 1), (2, 8)], 10) == blocks
        assert layers._touched(blocks, None, 10) is blocks
        # an 88-column grid in 48 + 40: row 1 of 11 columns is [11, 22)
        assert layers._touched([(0, 48), (48, 88)], [(1, 2)], 11) == [(0, 48)]

    def test_more_workers_than_cores(self):
        # More workers than usable cores and a GIL switch every microsecond:
        # a block written twice or not at all would change the output.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, 48, 48)).astype(np.float32)
        w = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
        b = rng.normal(size=64).astype(np.float32)
        # a fuse over more than one cache block splits its channels too
        cur = rng.normal(size=(64, 96, 96)).astype(np.float32)
        hi = rng.normal(size=(64, 48, 48)).astype(np.float32)
        with mock.patch.object(layers, "_workers", lambda: 1):
            want, _ = conv2d(x, w, b, relu=True)
            want_fused = fuse(cur.copy(), hi)
        workers = min(2 * layers._workers() + 1, 8)
        got, fused = [], []

        def work():
            for _ in range(5):
                got.append(conv2d(x, w, b, relu=True)[0])
                fused.append(fuse(cur.copy(), hi))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(layers, "_workers", lambda: workers):
                thread = threading.Thread(target=work)
                thread.start()
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not thread.is_alive()
        assert len(got) == len(fused) == 5
        for out in got:
            np.testing.assert_array_equal(out, want)
        for out in fused:
            np.testing.assert_array_equal(out, want_fused)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self):
        # The parent's pool threads do not exist in a forked child; a conv
        # there must build a new pool rather than wait on the old one.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(64, 80, 80)).astype(np.float32)
        w = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
        b = np.zeros(64, dtype=np.float32)
        with mock.patch.object(layers, "_workers", lambda: 2):
            want, _ = conv2d(x, w, b, relu=True)
            assert layers._pool is not None
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    got, _ = conv2d(x, w, b, relu=True)
                    status = 0 if np.array_equal(got, want) else 2
                finally:
                    os._exit(status)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's conv did not finish within 30 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_block_width(self):
        # 1 MiB of float32 over C + 2 O rows, at least one column
        assert layers._block_width(64, 64, 4) == (1 << 20) // (4 * 192) == 1365
        assert layers._block_width(1, 8, 4) == 15420
        assert layers._block_width(4096, 4096, 8) == 10
        assert layers._block_width(1 << 16, 1 << 16, 8) == 1

    def test_input_gradient_skipped(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(17, 9, 8)).astype(np.float32)
        w = rng.normal(size=(5, 17, 3, 3)).astype(np.float32)
        out, cache = conv2d(x, w, np.zeros(5, dtype=np.float32), stride=2, relu=True)
        g = rng.normal(size=out.shape).astype(np.float32)
        gx, gw, gb = conv2d_backward(g, cache)
        none, gw_only, gb_only = conv2d_backward(g, cache, input_grad=False)
        assert gx.shape == x.shape and none is None
        np.testing.assert_array_equal(gw_only, gw)
        np.testing.assert_array_equal(gb_only, gb)


class TestUpsampleFuse:
    def test_upsample_blocks(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        up = upsample2(x, 4, 4)
        np.testing.assert_allclose(up[0, :2, :2], 0.0)
        np.testing.assert_allclose(up[0, 2:, 2:], 3.0)

    def test_upsample_crops_odd_dims(self):
        x = np.ones((1, 2, 2))
        assert upsample2(x, 3, 3).shape == (1, 3, 3)

    def test_fuse_zero_higher_is_identity(self):
        rng = np.random.default_rng(1)
        cur = rng.normal(size=(2, 4, 4))
        np.testing.assert_allclose(fuse(cur.copy(), np.zeros((2, 2, 2))), cur)

    @pytest.mark.parametrize("h, w", [(4, 4), (5, 3), (3, 5), (1, 1), (7, 8)])
    def test_fuse_bits_and_out(self, h, w):
        # the same single addition as current + upsample2(higher), written
        # into current, which is returned
        rng = np.random.default_rng(h * 10 + w)
        cur = rng.normal(size=(3, h, w)).astype(np.float32)
        hi = rng.normal(size=(3, -(-h // 2), -(-w // 2))).astype(np.float32)
        want = cur + upsample2(hi, h, w)
        fused = cur.copy()
        assert fuse(fused, hi) is fused
        np.testing.assert_array_equal(fused, want)
        # split by channels across 1-3 workers (any map is over the block
        # size here), with the doubled copy in a NaN-poisoned Workspace
        for workers in (1, 2, 3):
            with mock.patch.object(layers, "_workers", lambda: workers), \
                    mock.patch.object(layers, "_BLOCK_BYTES", 0), \
                    mock.patch.object(layers, "_split", wraps=layers._split) as split:
                work = poisoned_workspace({"fuse": 3 * -(-h // 2) * 2 * -(-w // 2)})
                np.testing.assert_array_equal(fuse(cur.copy(), hi, work=work), want)
            assert split.called == (workers > 1)

    def test_fuse_value_blocks(self):
        cur = np.zeros((1, 4, 4))
        hi = np.full((1, 2, 2), 7.0)
        out = fuse(cur, hi)
        np.testing.assert_allclose(out, 7.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="projection"):
            fuse(np.zeros((2, 4, 4)), np.zeros((3, 2, 2)))

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ceil-half"):
            fuse(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)))

    def test_upsample_backward_is_adjoint(self):
        # <upsample(x), y> == <x, upsample_backward(y)> for random x, y
        rng = np.random.default_rng(2)
        for h, w in ((4, 4), (5, 3), (3, 5)):
            hh, ww = -(-h // 2), -(-w // 2)
            x = rng.normal(size=(2, hh, ww))
            y = rng.normal(size=(2, h, w))
            lhs = float((upsample2(x, h, w) * y).sum())
            rhs = float((x * upsample2_backward(y, hh, ww)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_fuse_gradients(self):
        rng = np.random.default_rng(22)
        assert check_fuse(rng, 10) < 1e-6
