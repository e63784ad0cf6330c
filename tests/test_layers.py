import numpy as np
import pytest

from anchorkit.gradcheck import check_conv2d, check_fuse, finite_diff, rel_err
from anchorkit.layers import (
    conv2d,
    conv2d_backward,
    fuse,
    fuse_backward,
    relu,
    relu_backward,
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


class TestRelu:
    def test_forward_and_mask(self):
        out, mask = relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_backward(self):
        _, mask = relu(np.array([-1.0, 3.0]))
        np.testing.assert_allclose(relu_backward(np.array([5.0, 5.0]), mask), [0.0, 5.0])


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
