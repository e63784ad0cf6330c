import contextlib
import io
import time
from unittest import mock

import numpy as np
import pytest

import anchorkit as ak
from anchorkit import forkpool, layers, pipeline
from anchorkit.decode import write_detections
from anchorkit.network import NetConfig, build_network
from anchorkit.pipeline import detect_images, synth_pairs, validation_ap
from anchorkit.data import synth_dataset
from anchorkit.trainer import TrainConfig, train


def test_synth_pairs_align_with_truth():
    pairs, gts = synth_pairs(ak.SynthConfig(), 5, seed=2)
    assert len(pairs) == 5
    for i, (img, boxes) in enumerate(pairs):
        assert img.shape == (1, 64, 64)
        assert boxes == gts.boxes[f"{i:06d}.pgm"]


def test_detect_images_keys_preserved():
    net = build_network(NetConfig.toy(), seed=0)
    images, _ = synth_dataset(ak.SynthConfig(), 3, seed=4)
    keyed = {f"{i:06d}.pgm": img for i, img in enumerate(images)}
    dets = detect_images(net, keyed)
    assert set(dets) == set(keyed)


def test_validation_ap_penalizes_untrained_net():
    net = build_network(NetConfig.toy(), seed=0)
    images, gts = synth_dataset(ak.SynthConfig(), 5, seed=4)
    keyed = {f"{i:06d}.pgm": img for i, img in enumerate(images)}
    ap = validation_ap(net, keyed, gts)
    assert 0.0 <= ap < 0.8


@pytest.mark.parametrize("h,w", [(32, 128), (128, 128), (64, 65)])
def test_detect_images_rejects_other_sizes(h, w):
    # 32x128 has the toy grid's 320 anchor rows, so only the size check
    # stops it from decoding against the 64x64 grid
    net = build_network(NetConfig.toy(), seed=0)
    images = {"ok.pgm": np.zeros((1, 64, 64), np.float32), "odd.pgm": np.zeros((1, h, w), np.float32)}
    with pytest.raises(ValueError, match=f"image 'odd.pgm' is {w}x{h}, .* laid out for 64x64"):
        detect_images(net, images)


def workers(n):
    """Run the detection pool as if this process could use ``n`` cores."""
    return mock.patch.object(layers, "_cores", lambda: n)


def state():
    """The conv-thread share and BLAS thread count a pool must give back."""
    return layers._processes, forkpool.blas_threads()[0]()


@pytest.fixture(scope="module")
def scene():
    """A toy net, and 7 images with their truth under keys that are not in sorted order."""
    net = build_network(NetConfig.toy(), seed=0)
    images, truth = synth_dataset(ak.SynthConfig(), 7, seed=4)
    keys = ["f.pgm", "b.pgm", "g.pgm", "a.pgm", "e.pgm", "c.pgm", "d.pgm"]
    gts = ak.GroundTruthSet()
    for key, boxes in zip(keys, truth.boxes.values()):
        gts.add_image(key, boxes)
    return net, dict(zip(keys, images)), gts


def poison(monkeypatch, images, keys):
    """Make the forward of each image under ``keys`` raise ``ValueError("<key> is bad")``."""
    real = pipeline.forward_detect
    bad = {id(images[key]): key for key in keys}

    def forward(net, x, **kwargs):
        if id(x) in bad:
            raise ValueError(f"{bad[id(x)]} is bad")
        return real(net, x, **kwargs)

    monkeypatch.setattr(pipeline, "forward_detect", forward)


class TestDetectPool:
    """Images split over forked workers (patched core counts) give the one-process detections."""

    def test_worker_count_changes_no_detection(self, scene, forks, children, blas2):
        net, images, _ = scene
        before, shares = children(), state()
        runs = []
        for n in (1, 2, 3):
            with workers(n):
                runs.append(detect_images(net, images))
            assert state() == shares
        assert len(forks) == 1 + 2
        assert children() == before
        files = []
        for dets in runs:
            assert list(dets) == list(images)
            buf = io.StringIO()
            write_detections(buf, dets)
            files.append(buf.getvalue())
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert files[1] == files[0] and files[2] == files[0]
        assert sum(map(len, runs[0].values())) > 0

    def test_single_image_forks_nothing(self, scene, forks):
        net, images, _ = scene
        with workers(3):
            dets = detect_images(net, {"a.pgm": images["a.pgm"]})
        assert list(dets) == ["a.pgm"] and forks == []

    @pytest.mark.parametrize("fails", [False, True])
    def test_single_image_runs_in_the_budget(self, scene, forks, blas2, monkeypatch, fails):
        # one process is a pool too: 1 BLAS thread and a share of 1, then the caller's own values back
        net, images, _ = scene
        seen = []
        real = pipeline.forward_detect

        def forward(net_, x, **kwargs):
            seen.append(state())
            if fails:
                raise ValueError("bad")
            return real(net_, x, **kwargs)

        monkeypatch.setattr(pipeline, "forward_detect", forward)
        with workers(3), mock.patch.object(layers, "_processes", 3):
            with pytest.raises(ValueError, match="^bad$") if fails else contextlib.nullcontext():
                detect_images(net, {"a.pgm": images["a.pgm"]})
            assert state() == (3, 2)
        assert seen == [(1, 1)] and forks == []

    def test_no_images_forks_nothing(self, scene, forks):
        net, _, _ = scene
        with workers(3):
            assert detect_images(net, {}) == {}
        assert forks == []

    @pytest.mark.parametrize("positions", [[1], [4], [6], [3, 5]])
    def test_image_error_is_the_one_process_error(self, scene, forks, children, monkeypatch, positions):
        # at 3 workers over 7 images the runs are [0, 1], [2, 3, 4], [5, 6]: 1 is the caller's,
        # and with errors at 3 and 5 two workers fail but the one-process loop raises 3's
        net, images, _ = scene
        before = children()
        keys = [list(images)[p] for p in positions]
        poison(monkeypatch, images, keys)
        for n in (1, 2, 3):
            with workers(n), pytest.raises(ValueError, match=f"^{keys[0]} is bad$"):
                detect_images(net, images)
        assert len(forks) == 1 + 2
        assert children() == before

    def test_caller_error_does_not_wait_out_the_workers(self, scene, monkeypatch, children):
        net, images, _ = scene
        keys = list(images)
        before = children()
        real = pipeline.forward_detect

        def forward(net_, x, **kwargs):
            if x is images[keys[0]]:
                raise ValueError("first is bad")
            if x is images[keys[-1]]:
                time.sleep(120)  # only a worker reaches the last image
            return real(net_, x, **kwargs)

        monkeypatch.setattr(pipeline, "forward_detect", forward)
        start = time.perf_counter()
        with workers(2), pytest.raises(ValueError, match="^first is bad$"):
            detect_images(net, images)
        assert time.perf_counter() - start < 60
        assert children() == before

    def test_size_error_forks_nothing(self, scene, forks, children):
        net, images, _ = scene
        before = children()
        bad = {**images, "odd.pgm": np.zeros((1, 64, 65), np.float32)}
        with workers(2), pytest.raises(ValueError, match="'odd.pgm' is 65x64"):
            detect_images(net, bad)
        assert forks == [] and children() == before

    def test_validation_inside_a_training_pool(self, scene, forks, blas2):
        net, images, gts = scene
        pairs, _ = synth_pairs(ak.SynthConfig(), 6, seed=5)
        results = []
        for n in (1, 2):
            seen = []

            def callback(epoch, net_, stats):
                before = state()
                seen.append((before, validation_ap(net_, images, gts), state()))
                return False

            with workers(n):
                train(build_network(NetConfig.toy(), seed=5), pairs, TrainConfig(epochs=2, batch_size=2, seed=5),
                      epoch_callback=callback)
            assert state() == (1, 2)
            results.append(seen)
        inline, pooled = results
        assert [ap for _, ap, _ in pooled] == [ap for _, ap, _ in inline]
        assert [(before, after) for before, _, after in inline] == [((1, 1), (1, 1))] * 2
        assert [(before, after) for before, _, after in pooled] == [((2, 1), (2, 1))] * 2
        assert len(forks) == 1 + 2  # the training pool, then one detection worker per epoch
