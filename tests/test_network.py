import contextlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from anchorkit import forkpool, layers
from anchorkit.decode import DecodeConfig, decode_baseline, decode_improved
from anchorkit.data import SynthConfig, synth_dataset
from anchorkit.geometry import AnchorConfig, generate_anchors, receptive_field
from anchorkit.gradcheck import check_detection_head, finite_diff, rel_err
from anchorkit.network import (
    NetConfig,
    Network,
    StageSpec,
    build_network,
    detection_head,
    face_scores,
    flatten_maps,
    forward_detect,
    load_weights,
    parameter_count,
    save_weights,
    tap_conv_stacks,
)
from anchorkit.pipeline import detect_images


def toy_net(seed=0, **kwargs):
    return build_network(NetConfig.toy(**kwargs), seed=seed)


GATE = DecodeConfig().score_threshold


def make_sparse(net, image, share):
    """Shift every head's face bias so about ``share`` of ``image``'s anchors pass the gate."""
    raw = forward_detect(net, image)
    margin = (raw.logits[:, 1] - raw.logits[:, 0]).astype(np.float64)
    shift = np.log(GATE / (1 - GATE)) - float(np.quantile(margin, 1 - share))
    for ti in range(len(net.config.taps)):
        net.params[f"head{ti}.cls_out.b"] += np.float32([-shift / 2, shift / 2])


@pytest.fixture(scope="module")
def net640():
    """The stock six-layer 640x640 net with about 0.5% of anchors gated, and three images."""
    toy = NetConfig.toy()
    cfg = NetConfig(
        stages=toy.stages + tuple(StageSpec(2, 64, 2) for _ in range(4)),
        taps=(2, 3, 4, 5, 6, 7),
        anchors=AnchorConfig(),
    )
    net = build_network(cfg, seed=0)
    images, _ = synth_dataset(SynthConfig(image_size=640), 3, seed=5)
    make_sparse(net, images[0], 0.005)
    return net, images


@contextlib.contextmanager
def blas_threads(n):
    """Run the body with numpy's OpenBLAS at ``n`` threads, restoring the count after."""
    if forkpool.blas_threads() is None:
        pytest.skip("numpy's BLAS is no bundled OpenBLAS whose thread count can be read and set")
    get, set_ = forkpool.blas_threads()
    old = get()
    set_(n)
    try:
        yield
    finally:
        set_(old)


def assert_gated_matches_dense(gated, dense, gate):
    """Same logits; every anchor above the gate regressed bit for bit; the rest NaN or exact."""
    assert gated.gate == gate and dense.gate is None
    np.testing.assert_array_equal(gated.logits, dense.logits)
    regressed = np.isfinite(gated.offsets).all(axis=1)
    assert np.isnan(gated.offsets[~regressed]).all()
    assert regressed[face_scores(dense.logits.astype(np.float64)) > gate].all()
    np.testing.assert_array_equal(gated.offsets[regressed], dense.offsets[regressed])
    return regressed


class TestNetConfig:
    def test_toy_validates(self):
        cfg = NetConfig.toy()
        assert cfg.cumulative_strides() == [1, 2, 4, 8]

    def test_tap_stride_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cumulative stride"):
            NetConfig(
                stages=(StageSpec(1, 8, 1), StageSpec(1, 16, 2)),
                taps=(0, 1),
                anchors=AnchorConfig.toy(),
            )

    def test_taps_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            NetConfig(
                stages=(StageSpec(1, 8, 4), StageSpec(1, 16, 2)),
                taps=(1, 1),
                anchors=AnchorConfig.toy(),
            )


class TestBuildNetwork:
    def test_same_seed_bit_identical(self):
        a, b = toy_net(seed=3), toy_net(seed=3)
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        a, b = toy_net(seed=3), toy_net(seed=4)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_fusion_flag_preserves_parameter_set(self):
        on, off = toy_net(fusion=True), toy_net(fusion=False)
        assert on.params.keys() == off.params.keys()
        assert parameter_count(on) == parameter_count(off)

    def test_split_heads_have_two_branches(self):
        net = toy_net()
        assert "head0.cls0.w" in net.params
        assert "head0.reg0.w" in net.params
        assert "head0.cls_out.w" in net.params
        assert net.params["head0.cls_out.w"].shape[0] == 2
        assert net.params["head0.reg_out.w"].shape[0] == 4

    def test_shared_heads_have_terminals_only(self):
        net = toy_net(head_depth=0)
        assert "head0.cls0.w" not in net.params
        assert "head0.cls_out.w" in net.params


class TestForwardDetect:
    def test_row_count_matches_anchor_count(self):
        net = toy_net(seed=1)
        img = np.random.default_rng(0).random((1, 64, 64), dtype=np.float32)
        raw = forward_detect(net, img)
        assert len(raw) == net.config.anchors.anchor_count() == 320

    @pytest.mark.parametrize("size", [40, 52, 60])
    def test_row_count_odd_sizes(self, size):
        cfg = NetConfig.toy(size, size)
        net = build_network(cfg, seed=1)
        img = np.random.default_rng(0).random((1, size, size), dtype=np.float32)
        raw = forward_detect(net, img)
        assert len(raw) == len(generate_anchors(cfg.anchors))

    def test_zero_weights_give_half_scores(self):
        net = toy_net(seed=1)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        img = np.random.default_rng(0).random((1, 64, 64), dtype=np.float32)
        raw = forward_detect(net, img)
        np.testing.assert_allclose(raw.logits, 0.0)
        np.testing.assert_allclose(face_scores(raw.logits.astype(np.float64)), 0.5)
        np.testing.assert_allclose(raw.offsets, 0.0)

    def test_fusion_changes_shallow_not_deep(self):
        img = np.random.default_rng(5).random((1, 64, 64), dtype=np.float32)
        on = forward_detect(toy_net(seed=2, fusion=True), img)
        off = forward_detect(toy_net(seed=2, fusion=False), img)
        n0 = 16 * 16  # stride-4 layer rows
        assert not np.allclose(on.logits[:n0], off.logits[:n0])
        np.testing.assert_array_equal(on.logits[n0:], off.logits[n0:])
        np.testing.assert_array_equal(on.offsets[n0:], off.offsets[n0:])

    def test_wrong_channels_rejected(self):
        with pytest.raises(ValueError, match="image must be"):
            forward_detect(toy_net(), np.zeros((3, 64, 64), dtype=np.float32))

    def test_backward_matches_finite_differences(self):
        # end-to-end through a miniature network, float64
        cfg = NetConfig(
            stages=(StageSpec(1, 3, 2), StageSpec(1, 4, 2)),
            taps=(0, 1),
            anchors=AnchorConfig(layers=((2, 8), (4, 16)), image_w=8, image_h=8),
            head_channels=4,
            head_depth=1,
        )
        net = build_network(cfg, seed=9).astype(np.float64)
        rng = np.random.default_rng(10)
        img = rng.random((1, 8, 8))
        raw, backward = forward_detect(net, img, want_grad=True)
        wl = rng.normal(size=raw.logits.shape)
        wo = rng.normal(size=raw.offsets.shape)
        grads = backward(wl, wo)

        def scalar() -> float:
            r = forward_detect(net, img)
            return float((r.logits * wl).sum() + (r.offsets * wo).sum())

        worst = 0.0
        for name in ("stage0.conv0.w", "proj0.w", "head0.cls0.w", "head1.reg_out.b"):
            fd = finite_diff(scalar, net.params[name])
            worst = max(worst, rel_err(grads[name], fd))
        assert worst < 1e-6


class TestGatedForward:
    def test_all_gated_equals_dense(self):
        # an untrained toy net scores every anchor above the gate, so every
        # map runs whole
        net = toy_net(seed=1)
        img = np.random.default_rng(0).random((1, 64, 64), dtype=np.float32)
        dense, gated = forward_detect(net, img), forward_detect(net, img, gate=GATE)
        assert (face_scores(dense.logits.astype(np.float64)) > GATE).all()
        np.testing.assert_array_equal(gated.offsets, dense.offsets)
        assert gated.gate == GATE

    @pytest.mark.parametrize("share", [0.0, 0.01, 0.05, 0.2])
    @pytest.mark.parametrize("head", [{}, {"head_depth": 1}, {"head_depth": 0}])
    def test_sparse_toy_rows_exact(self, share, head):
        net = toy_net(seed=3, **head)
        images, _ = synth_dataset(SynthConfig(), 4, seed=8)
        make_sparse(net, images[0], share)
        grid = generate_anchors(net.config.anchors)
        cfg = DecodeConfig()
        for img in images:
            dense, gated = forward_detect(net, img), forward_detect(net, img, gate=GATE)
            regressed = assert_gated_matches_dense(gated, dense, GATE)
            if share < 0.2:
                assert not regressed.all()
            assert decode_improved(gated, grid, cfg).detections == decode_baseline(dense, grid, cfg).detections

    def test_gate_with_grad_rejected(self):
        img = np.zeros((1, 64, 64), dtype=np.float32)
        with pytest.raises(ValueError, match="gated forward"):
            forward_detect(toy_net(), img, want_grad=True, gate=GATE)

    def test_640_sparse_bit_identical(self, net640):
        # Gated rows equal dense rows at paper scale: tap 0's 160x160 map
        # (25,920 grid columns) runs only the column blocks holding its gated
        # rows, taps 3-5 (grids of 440, 120 and 35 columns) are one block
        # each and run whole.
        net, images = net640
        grid = generate_anchors(net.config.anchors)
        decode_cfg = DecodeConfig()
        for img in images:
            dense = forward_detect(net, img)
            regressed = assert_gated_matches_dense(forward_detect(net, img, gate=GATE), dense, GATE)
            assert regressed[: 160 * 160].mean() < 0.5  # tap 0 really ran in bands
            got = detect_images(net, {"x": img}, decode_cfg)["x"]
            assert got and got == decode_baseline(dense, grid, decode_cfg).detections


class TestConvWorkers:
    """Multi-block convs run on worker threads; the bits must not depend on how many."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_640_bits_across_workers_and_blas_threads(self, net640, threads):
        net, images = net640
        img = images[2]
        with mock.patch.object(layers, "_workers", lambda: 1):
            want = forward_detect(net, img)  # the reference: one worker at default BLAS threads
        with blas_threads(threads):
            for workers in (1, 2):
                with mock.patch.object(layers, "_workers", lambda: workers), \
                        mock.patch.object(layers, "_split", wraps=layers._split) as split:
                    dense = forward_detect(net, img)
                    assert_gated_matches_dense(forward_detect(net, img, gate=GATE), dense, GATE)
                assert split.called == (workers > 1)
                np.testing.assert_array_equal(dense.logits, want.logits)
                np.testing.assert_array_equal(dense.offsets, want.offsets)

    def test_toy_forward_submits_nothing(self):
        # every toy conv is one block, which runs inline on the calling thread
        net = toy_net(seed=6)
        img = np.random.default_rng(3).random((1, 64, 64), dtype=np.float32)
        with mock.patch.object(layers, "_workers", lambda: 3), \
                mock.patch.object(layers, "_executor", side_effect=AssertionError("a toy conv used the pool")):
            forward_detect(net, img)
            forward_detect(net, img, gate=GATE)
            raw, backward = forward_detect(net, img, want_grad=True)
            backward(np.ones_like(raw.logits), np.ones_like(raw.offsets))


class TestInferenceForward:
    """Without a backward, forward_detect runs in the net's reused buffers and keeps no caches."""

    @pytest.mark.parametrize(
        "kwargs",
        # 4-pixel images give one-row (or one-column) maps at both taps
        [{}, {"fusion": False}, {"head_depth": 0}, {"image_h": 4}, {"image_w": 4}, {"image_w": 4, "image_h": 4}],
    )
    def test_toy_equals_grad_forward(self, kwargs):
        net = toy_net(seed=6, **kwargs)
        anchors = net.config.anchors
        images = np.random.default_rng(2).random((3, 1, anchors.image_h, anchors.image_w), dtype=np.float32)
        for img in images:  # later images run in buffers the earlier ones filled
            inference = forward_detect(net, img)
            trained, _ = forward_detect(net, img, want_grad=True)
            np.testing.assert_array_equal(inference.logits, trained.logits)
            np.testing.assert_array_equal(inference.offsets, trained.offsets)

    def test_640_equals_grad_forward(self, net640):
        net, images = net640
        for img in images:
            inference = forward_detect(net, img)
            trained, _ = forward_detect(net, img, want_grad=True)
            np.testing.assert_array_equal(inference.logits, trained.logits)
            np.testing.assert_array_equal(inference.offsets, trained.offsets)

    @pytest.mark.parametrize("scale", ["toy", "640"])
    def test_poisoned_workspace_two_images(self, net640, scale):
        # Every work buffer, the chained head planes among them, starts as
        # NaN; then two different images run back to back, gated and dense.
        # A frame or wrapped column left unzeroed, or one left from the
        # image before, would show in the bits.
        if scale == "toy":
            net = toy_net(seed=4)
            images, _ = synth_dataset(SynthConfig(), 3, seed=9)
            make_sparse(net, images[0], 0.05)
        else:
            net, images = net640
        fresh = Network(config=net.config, params=net.params, seed=net.seed)
        forward_detect(fresh, images[0])  # sizes every buffer
        assert {"chain0", "chain1", "fuse"} <= fresh.work._buffers.keys()
        for buf in fresh.work._buffers.values():
            buf[...] = np.nan
        for img in images[1:3]:
            trained, _ = forward_detect(fresh, img, want_grad=True)
            assert_gated_matches_dense(forward_detect(fresh, img, gate=GATE), trained, GATE)
            dense = forward_detect(fresh, img)
            np.testing.assert_array_equal(dense.logits, trained.logits)
            np.testing.assert_array_equal(dense.offsets, trained.offsets)

    def test_outputs_do_not_alias_buffers(self):
        net = toy_net(seed=6)
        images, _ = synth_dataset(SynthConfig(), 2, seed=2)
        first = forward_detect(net, images[0])
        kept = first.logits.copy(), first.offsets.copy()
        forward_detect(net, images[1])
        np.testing.assert_array_equal(first.logits, kept[0])
        np.testing.assert_array_equal(first.offsets, kept[1])

    def test_640_gated_peak_memory(self, net640):
        # A net with empty buffers: the peak counts the buffers the forward
        # fills (about 59 MB). Keeping every conv's phase planes and ReLU
        # mask, as a forward with a backward does, peaked at 177 MB.
        net, images = net640
        fresh = Network(config=net.config, params=net.params, seed=net.seed)
        tracemalloc.start()
        try:
            forward_detect(fresh, images[1], gate=GATE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 90e6, f"{peak / 1e6:.1f} MB"


class TestDetectionHead:
    def test_single_cell_feature(self):
        rng = np.random.default_rng(0)
        params = {}
        for branch, out_ch in (("cls", 2), ("reg", 4)):
            params[f"h.{branch}0.w"] = rng.normal(size=(4, 4, 3, 3))
            params[f"h.{branch}0.b"] = np.zeros(4)
            params[f"h.{branch}_out.w"] = rng.normal(size=(out_ch, 4, 3, 3))
            params[f"h.{branch}_out.b"] = np.zeros(out_ch)
        cls_map, reg_map, _ = detection_head(rng.random((4, 1, 1)), params, "h", head_depth=1)
        logits, offsets = flatten_maps(cls_map, reg_map)
        assert logits.shape == (1, 2) and offsets.shape == (1, 4)

    def test_branch_independence(self):
        rng = np.random.default_rng(1)
        net = toy_net(seed=4)
        img = rng.random((1, 64, 64), dtype=np.float32)
        before = forward_detect(net, img)
        net.params["head0.reg0.w"] = net.params["head0.reg0.w"] + np.float32(0.25)
        after = forward_detect(net, img)
        np.testing.assert_array_equal(before.logits, after.logits)
        assert not np.allclose(before.offsets, after.offsets)

    def test_flatten_is_row_major(self):
        cls_map = np.arange(2 * 2 * 3).reshape(2, 2, 3).astype(float)
        reg_map = np.zeros((4, 2, 3))
        logits, _ = flatten_maps(cls_map, reg_map)
        # row r=0: cells (0,0), (0,1), (0,2) in order
        np.testing.assert_allclose(logits[0], [cls_map[0, 0, 0], cls_map[1, 0, 0]])
        np.testing.assert_allclose(logits[1], [cls_map[0, 0, 1], cls_map[1, 0, 1]])
        np.testing.assert_allclose(logits[3], [cls_map[0, 1, 0], cls_map[1, 1, 0]])

    def test_gradients(self):
        rng = np.random.default_rng(23)
        assert check_detection_head(rng, 5) < 1e-6


class TestReceptiveFieldClaim:
    def test_fusion_lifts_shallow_rf(self):
        cfg = NetConfig.toy()
        stacks = tap_conv_stacks(cfg)
        rf0 = receptive_field(stacks[0]).rf_size
        rf1 = receptive_field(stacks[1]).rf_size
        assert rf1 >= 1.5 * rf0  # the deeper tap roughly doubles the view

    def test_stacks_count_head_convs(self):
        # backbone to tap 0 is 13 px; the two trunk convs and the terminal
        # conv add 8 px each at jump 4
        assert receptive_field(tap_conv_stacks(NetConfig.toy())[0]).rf_size == 37
        shared = NetConfig.toy(head_depth=0)
        assert receptive_field(tap_conv_stacks(shared)[0]).rf_size == 21


class TestWeightsContainer:
    def test_round_trip(self):
        net = toy_net(seed=6)
        buf = io.BytesIO()
        save_weights(net.params, buf)
        buf.seek(0)
        again = load_weights(buf)
        assert again.keys() == net.params.keys()
        for k in net.params:
            np.testing.assert_array_equal(again[k], net.params[k])

    def test_every_truncation_rejected(self):
        buf = io.BytesIO()
        save_weights({"a.w": np.ones((2, 3), dtype=np.float32), "a.b": np.zeros(2, dtype=np.float32)}, buf)
        raw = buf.getvalue()
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                load_weights(io.BytesIO(raw[:cut]))

    def test_short_header_named(self):
        buf = io.BytesIO()
        save_weights(toy_net(seed=6).params, buf)
        with pytest.raises(ValueError, match="header"):
            load_weights(io.BytesIO(buf.getvalue()[:6]))

    def test_short_tensor_named(self):
        buf = io.BytesIO()
        save_weights({"stage0.conv0.w": np.ones((8, 1, 3, 3), dtype=np.float32)}, buf)
        with pytest.raises(ValueError, match=r"data of tensor 0 \('stage0.conv0.w'\)"):
            load_weights(io.BytesIO(buf.getvalue()[:-5]))

    def test_trailing_bytes_rejected(self):
        buf = io.BytesIO()
        save_weights({"w": np.ones(3, dtype=np.float32)}, buf)
        with pytest.raises(ValueError, match="after its last tensor"):
            load_weights(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_repeated_name_rejected(self):
        # two tensors named "a.w": a dict would silently keep the second
        first, second = io.BytesIO(), io.BytesIO()
        save_weights({"a.w": np.ones(2, dtype=np.float32)}, first)
        save_weights({"a.w": np.full(2, 2.0, dtype=np.float32)}, second)
        raw = first.getvalue()[:8] + (2).to_bytes(4, "little") + first.getvalue()[12:] + second.getvalue()[12:]
        with pytest.raises(ValueError, match=r"^tensor 1 is named 'a.w', as tensor 0 is$"):
            load_weights(io.BytesIO(raw))

    def test_magic_checked(self):
        with pytest.raises(ValueError, match="magic"):
            load_weights(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_container_layout(self):
        buf = io.BytesIO()
        save_weights({"w": np.arange(6, dtype=np.float32).reshape(2, 3)}, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"ANKT"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # tensor count
        assert int.from_bytes(raw[12:16], "little") == 1  # name length
        assert raw[16:17] == b"w"
        assert int.from_bytes(raw[17:21], "little") == 2  # rank
