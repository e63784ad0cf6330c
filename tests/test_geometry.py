import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorkit.geometry import (
    AnchorConfig,
    Box,
    LayerSpec,
    boxes_to_array,
    generate_anchors,
    pairwise_iou,
    receptive_field,
)

from oracles import anchor_count_oracle, iou_xyxy


def box_strategy(lo=-50.0, hi=50.0):
    coord = st.floats(lo, hi, allow_nan=False, width=32)
    side = st.floats(0.5, 40.0, allow_nan=False, width=32)
    return st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), coord, coord, side, side)


class TestBox:
    def test_properties(self):
        b = Box(1, 2, 4, 8)
        assert b.width == 3 and b.height == 6 and b.area == 18

    @pytest.mark.parametrize("corners", [(0, 0, 0, 10), (0, 0, 10, 0), (5, 5, 4, 6)])
    def test_degenerate_rejected(self, corners):
        with pytest.raises(ValueError, match="degenerate"):
            Box(*corners)

    def test_from_xywh(self):
        assert Box.from_xywh(10, 10, 20, 20) == Box(10, 10, 30, 30)


def iou(a, b):
    return float(pairwise_iou(boxes_to_array([a]), boxes_to_array([b]))[0, 0])


class TestIoU:
    def test_identity(self):
        b = Box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 7 by direct area computation
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    @given(box_strategy(), box_strategy())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(box_strategy())
    def test_self_iou(self, b):
        assert iou(b, b) == pytest.approx(1.0)


class TestIoUMatrix:
    def test_basic(self):
        m = pairwise_iou(boxes_to_array([Box(0, 0, 2, 2)]),
                         boxes_to_array([Box(0, 0, 2, 2), Box(10, 10, 12, 12)]))
        assert m.shape == (1, 2)
        assert m[0, 0] == 1.0 and m[0, 1] == 0.0

    def test_empty(self):
        m = pairwise_iou(boxes_to_array([]), boxes_to_array([Box(0, 0, 2, 2)]))
        assert m.shape == (0, 1)

    def test_two_by_two(self):
        rows = boxes_to_array([Box(0, 0, 4, 4), Box(2, 2, 6, 6)])
        m = pairwise_iou(rows, rows)
        expect = np.array([[1.0, 4 / 28], [4 / 28, 1.0]])
        np.testing.assert_allclose(m, expect)

    def test_degenerate_row_reports_index(self):
        rows = np.array([[0, 0, 2, 2], [3, 3, 3, 5]], dtype=float)
        with pytest.raises(ValueError, match=r"a\[1\]"):
            pairwise_iou(rows, rows[:1])

    @given(st.lists(box_strategy(), max_size=5), st.lists(box_strategy(), max_size=5))
    def test_matches_scalar_iou(self, a, b):
        m = pairwise_iou(boxes_to_array(a), boxes_to_array(b))
        assert m.shape == (len(a), len(b))
        for i, ba in enumerate(a):
            for j, bb in enumerate(b):
                assert m[i, j] == pytest.approx(iou_xyxy(ba.as_tuple(), bb.as_tuple()))


class TestAnchorConfig:
    def test_default_scheme(self):
        cfg = AnchorConfig()
        assert cfg.strides == (4, 8, 16, 32, 64, 128)
        assert cfg.sizes == (16, 32, 64, 128, 256, 512)
        assert all(size == 4 * stride for stride, size in cfg.layers)

    def test_strides_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            AnchorConfig(layers=((8, 32), (4, 16)), image_w=64, image_h=64)

    def test_zero_image_rejected(self):
        with pytest.raises(ValueError, match="image size"):
            AnchorConfig(image_w=0, image_h=64)


class TestGenerateAnchors:
    def test_640_counts(self):
        grid = generate_anchors(AnchorConfig())
        assert [l.count for l in grid.layers] == [25600, 6400, 1600, 400, 100, 25]
        assert len(grid) == 34125

    def test_single_anchor_box(self):
        grid = generate_anchors(AnchorConfig(layers=((4, 16),), image_w=4, image_h=4))
        assert len(grid) == 1
        np.testing.assert_allclose(grid.boxes[0], [-6, -6, 10, 10])

    def test_ceil_division(self):
        grid = generate_anchors(AnchorConfig(layers=((4, 16),), image_w=8, image_h=4))
        assert len(grid) == 2
        assert grid.layers[0].rows == 1 and grid.layers[0].cols == 2

    def test_all_anchors_square_with_layer_size(self):
        grid = generate_anchors(AnchorConfig.toy())
        for li, layout in enumerate(grid.layers):
            block = grid.boxes[grid.layer_slice(li)]
            w = block[:, 2] - block[:, 0]
            h = block[:, 3] - block[:, 1]
            assert np.all(w == layout.size) and np.all(h == layout.size)

    def test_centers_follow_grid(self):
        grid = generate_anchors(AnchorConfig(layers=((8, 32),), image_w=24, image_h=16))
        layout = grid.layers[0]
        block = grid.boxes.reshape(layout.rows, layout.cols, 4)
        for r in range(layout.rows):
            for c in range(layout.cols):
                cx = (block[r, c, 0] + block[r, c, 2]) / 2
                cy = (block[r, c, 1] + block[r, c, 3]) / 2
                assert cx == (c + 0.5) * 8 and cy == (r + 0.5) * 8

    @given(
        st.integers(1, 200),
        st.integers(1, 200),
        st.sets(st.sampled_from([2, 3, 4, 5, 8, 16]), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_count_formula_random(self, w, h, strides):
        layers = tuple((s, 4 * s) for s in sorted(strides))
        grid = generate_anchors(AnchorConfig(layers=layers, image_w=w, image_h=h))
        assert len(grid) == anchor_count_oracle(w, h, sorted(strides))

    def test_csv_dump(self):
        grid = generate_anchors(AnchorConfig(layers=((4, 16),), image_w=8, image_h=4))
        buf = io.StringIO()
        grid.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "layer,row,col,x1,y1,x2,y2"
        assert lines[1] == "0,0,0,-6,-6,10,10"
        assert len(lines) == 3


class TestReceptiveField:
    def test_single_conv(self):
        info = receptive_field([LayerSpec(3, 1)])
        assert info.rf_size == 3 and info.jump == 1

    def test_two_convs(self):
        assert receptive_field([LayerSpec(3, 1), LayerSpec(3, 1)]).rf_size == 5

    def test_strided_then_plain(self):
        info = receptive_field([LayerSpec(3, 2), LayerSpec(3, 1)])
        assert info.rf_size == 7 and info.jump == 2

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            receptive_field([])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            LayerSpec(4, 1)

    def test_rf_monotone_and_jump_product(self):
        stack = [LayerSpec(3, 1), LayerSpec(3, 2), LayerSpec(3, 1), LayerSpec(3, 2)]
        info = receptive_field(stack)
        rfs = [t[3] for t in info.trace]
        assert all(b >= a for a, b in zip(rfs, rfs[1:]))
        assert info.jump == math.prod(s.stride for s in stack)


def test_boxes_to_array_empty():
    assert boxes_to_array([]).shape == (0, 4)
