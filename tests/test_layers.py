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
    fuse_backward,
    upsample2,
    upsample2_backward,
)

from oracles import conv2d_oracle


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
        # A band is exact only where its columns start and end on the
        # 16-column grid; grids whose length is not a multiple of 16 run
        # whole. Both groupings (3 stacks its taps, 17 and 64 do not).
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
        full, _ = conv2d(x, w, b, stride=stride)
        banded, _ = conv2d(x, w, b, stride=stride, rows=rows)
        assert banded.shape == full.shape
        for lo, hi in rows:
            np.testing.assert_array_equal(banded[:, lo:hi], full[:, lo:hi])

    def test_grid_off_16_columns_runs_whole(self):
        # A 20x20 map's grid has 440 columns. Banded, its last block is
        # partial, and a band ending there differed from the full product
        # in about a third of draws; such a grid must run whole. Cut into
        # column blocks of 336 + 104, its last block differed too.
        rng = np.random.default_rng(20)
        for lo in range(0, 20, 2):
            x = rng.normal(size=(64, 20, 20)).astype(np.float32)
            w = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
            b = rng.normal(size=64).astype(np.float32)
            full, _ = conv2d(x, w, b)
            banded, _ = conv2d(x, w, b, rows=[(lo, 20)])
            np.testing.assert_array_equal(banded[:, lo:], full[:, lo:])
            with mock.patch.object(layers, "_BLOCK_BYTES", 336 * 4 * (64 + 2 * 64)):
                np.testing.assert_array_equal(conv2d(x, w, b)[0], full)

    def test_column_spans(self):
        # rows 1-2 and 5 of an 8-row grid of 10 columns: columns [10, 30)
        # and [50, 60), rounded out to [0, 32) and [48, 64)
        assert layers._column_spans([(1, 3), (5, 6)], 10, 80) == [(0, 32), (48, 64)]
        # rows 1 and 3 round out to overlapping column ranges, which merge
        assert layers._column_spans([(1, 2), (3, 4)], 10, 80) == [(0, 48)]
        assert layers._column_spans([], 10, 80) == []
        # bands covering the grid, or a grid whose length is no multiple of 16, run whole
        assert layers._column_spans([(0, 1), (2, 8)], 10, 80) is None
        assert layers._column_spans([(1, 2)], 11, 88) is None

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


class TestColumnBlocks:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_block_edges(self, data):
        # _BLOCK_BYTES is shrunk so that cache blocks are 16-64 columns wide
        # and the grid spans at least 3 of them; the blocked runs allocate
        # NaN. At 1, 2 and 3 workers every output equals the unblocked one.
        c = data.draw(st.sampled_from([3, 17, 64]), "channels")
        o = data.draw(st.sampled_from([2, 4, 64]), "filters")
        stride = data.draw(st.sampled_from([1, 2]), "stride")
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

        def run(x, w, b, **kw):
            return conv2d(x, w, b, stride=stride, **kw)[0]

        unblocked = run(x32, w32, b32)
        g = rng.normal(size=unblocked.shape).astype(np.float32)
        want_grads = conv2d_backward(g, conv2d(x32, w32, b32, stride=stride, relu=True)[1])
        with mock.patch.object(layers, "_BLOCK_BYTES", width * 4 * (c + 2 * o)), \
                mock.patch.object(layers, "_empty", nan_empty):
            assert layers._block_width(c, o, 4) == width
            with mock.patch.object(layers, "_BLOCK_BYTES", width * 8 * (c + 2 * o)):
                # the loop oracle is slow: check one output channel of the float64 conv
                oc = data.draw(st.integers(0, o - 1), "checked channel")
                want = conv2d_oracle(x, w[oc : oc + 1], b[oc : oc + 1], stride)
                np.testing.assert_allclose(run(x, w, b)[oc : oc + 1], want, atol=1e-12)
            for workers in (1, 2, 3):
                with mock.patch.object(layers, "_workers", lambda: workers), \
                        mock.patch.object(layers, "_split", wraps=layers._split) as split:
                    block, _ = layers._block_plan(n, c, o, 4)
                    # a block edge inside the grid, and the output rows around it
                    step = block if block < n else width
                    edge = step * data.draw(st.integers(1, (n - 1) // step), f"edge at {workers} workers")
                    rows = [((edge - 1) // wq, edge // wq + 1)]
                    full = run(x32, w32, b32)
                    assert split.called == (workers > 1 and n % 16 == 0)
                    fused, cache = conv2d(x32, w32, b32, stride=stride, relu=True)
                    grads = conv2d_backward(g, cache)
                    banded = run(x32, w32, b32, rows=rows)
                    scratch = 9 * c * n + o * n
                    sizes = {"planes": stride**2 * c * (hq * wq + 1), "scratch": scratch,
                             "scratch1": scratch, "scratch2": scratch, "out": o * n}
                    work = poisoned_workspace(sizes)
                    in_work = run(x32, w32, b32, relu=True, work=work).copy()  # the next call takes "out" again
                    banded_in_work = run(x32, w32, b32, rows=rows, work=work)
                np.testing.assert_array_equal(full, unblocked)
                np.testing.assert_array_equal(fused, np.maximum(full, 0.0))
                np.testing.assert_array_equal(in_work, fused)
                for got, want in zip(grads, want_grads):
                    np.testing.assert_array_equal(got, want)
                for lo, hi in rows:
                    np.testing.assert_array_equal(banded[:, lo:hi], full[:, lo:hi])
                    np.testing.assert_array_equal(banded_in_work[:, lo:hi], full[:, lo:hi])

    def test_block_plan(self):
        # float32 64 -> 64 convs: 1,360-column cache blocks become equal
        # widths, rounded up to 16, in a multiple of the worker count
        with mock.patch.object(layers, "_workers", lambda: 2):
            assert layers._block_plan(160 * 162, 64, 64, 4) == (1296, 2)  # 20 blocks
            assert layers._block_plan(80 * 82, 64, 64, 4) == (1104, 2)  # 6 blocks, not 5
            assert layers._block_plan(40 * 42, 64, 64, 4) == (848, 2)  # 848 + 832, not 1,360 + 320
            assert layers._block_plan(1360, 64, 64, 4) == (1360, 1)  # one block, inline
            assert layers._block_plan(20 * 22, 64, 64, 4) == (440, 1)
        with mock.patch.object(layers, "_workers", lambda: 1):
            assert layers._block_plan(80 * 82, 64, 64, 4) == (1312, 1)
        with mock.patch.object(layers, "_workers", lambda: 3):
            assert layers._block_plan(80 * 82, 64, 64, 4) == (1104, 3)

    def test_more_workers_than_cores(self):
        # More workers than usable cores and a GIL switch every microsecond:
        # a block written twice or not at all would change the output.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, 48, 48)).astype(np.float32)
        w = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
        b = rng.normal(size=64).astype(np.float32)
        with mock.patch.object(layers, "_workers", lambda: 1):
            want, _ = conv2d(x, w, b, relu=True)
        workers = min(2 * layers._workers() + 1, 8)
        got = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(layers, "_workers", lambda: workers):
                thread = threading.Thread(target=lambda: got.extend(conv2d(x, w, b, relu=True)[0] for _ in range(5)))
                thread.start()
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not thread.is_alive()
        assert len(got) == 5
        for out in got:
            np.testing.assert_array_equal(out, want)

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
        # 1 MiB of float32 over C + 2 O rows, rounded down to 16 columns
        assert layers._block_width(64, 64, 4) == (1 << 20) // (4 * 192) // 16 * 16 == 1360
        assert layers._block_width(1, 8, 4) == 15408
        assert layers._block_width(4096, 4096, 8) == 16

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
        np.testing.assert_allclose(fuse(cur, np.zeros((2, 2, 2))), cur)

    @pytest.mark.parametrize("h, w", [(4, 4), (5, 3), (3, 5), (1, 1), (7, 8)])
    def test_fuse_bits_and_out(self, h, w):
        # the same single addition as current + upsample2(higher), into a new
        # array by default (current is left as it was) or into ``out``
        rng = np.random.default_rng(h * 10 + w)
        cur = rng.normal(size=(3, h, w)).astype(np.float32)
        hi = rng.normal(size=(3, -(-h // 2), -(-w // 2))).astype(np.float32)
        want = cur + upsample2(hi, h, w)
        kept = cur.copy()
        np.testing.assert_array_equal(fuse(cur, hi), want)
        np.testing.assert_array_equal(cur, kept)
        assert fuse(cur, hi, out=cur) is cur
        np.testing.assert_array_equal(cur, want)

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
