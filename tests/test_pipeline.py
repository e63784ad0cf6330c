import numpy as np
import pytest

import anchorkit as ak
from anchorkit.network import NetConfig, build_network
from anchorkit.pipeline import detect_images, synth_pairs, validation_ap
from anchorkit.data import synth_dataset


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
