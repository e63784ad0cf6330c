import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorkit.assign import (
    NEGATIVE,
    MatchConfig,
    decode_rows,
    encode_targets,
    match_baseline,
    match_baseline_from_iou,
    match_two_step,
    match_two_step_from_iou,
)
from anchorkit.geometry import AnchorConfig, Box, boxes_to_array, generate_anchors, pairwise_iou

from oracles import match_baseline_oracle, match_two_step_oracle


def toy_grid(image=64):
    return generate_anchors(AnchorConfig.toy(image, image))


def random_scene(rng, image=64, max_gts=4):
    n = int(rng.integers(1, max_gts + 1))
    boxes = []
    while len(boxes) < n:
        side = float(rng.uniform(5, image * 0.6))
        x = float(rng.uniform(0, image - side))
        y = float(rng.uniform(0, image - side))
        w = side * float(rng.uniform(0.6, 1.6))
        cand = Box(x, y, min(x + w, image), y + side)
        if all(_overlap(cand, b) < 0.5 for b in boxes):
            boxes.append(cand)
    return boxes


def _overlap(a, b):
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.step1_iou == 0.5
        assert cfg.max_extra_anchors == 4
        assert cfg.step2_iou_floor == 0.1

    def test_floor_above_step1_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(step1_iou=0.3, step2_iou_floor=0.4)


class TestMatchBaseline:
    def test_exact_anchor_match(self):
        grid = toy_grid()
        gt = grid.box(7)
        a = match_baseline(grid, [gt], 0.5)
        assert a.labels[7] == 0
        assert a.n_positive >= 1
        assert all(lab in (NEGATIVE, 0) for lab in a.labels)

    def test_best_anchor_guarantee_below_threshold(self):
        # one gt whose best anchor sits at IoU 0.2: still claimed
        overlaps = np.zeros((1, 5))
        overlaps[0, 3] = 0.2
        labels = match_baseline_from_iou(overlaps, 0.5)
        assert labels[3] == 0
        assert np.sum(labels >= 0) == 1

    def test_hand_table_vs_oracle(self):
        overlaps = np.array(
            [
                [0.55, 0.10, 0.62, 0.48, 0.05],
                [0.51, 0.70, 0.62, 0.20, 0.55],
            ]
        )
        labels = match_baseline_from_iou(overlaps, 0.5)
        expect = match_baseline_oracle(overlaps, 0.5)
        np.testing.assert_array_equal(labels, expect)

    def test_empty_grid_rejected(self):
        grid = toy_grid()
        empty = type(grid)(config=grid.config, boxes=np.zeros((0, 4)), layers=())
        with pytest.raises(ValueError, match="empty"):
            match_baseline(empty, [Box(0, 0, 10, 10)], 0.5)

    def test_no_gts(self):
        a = match_baseline(toy_grid(), [], 0.5)
        assert a.n_positive == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_tables_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_gt = int(rng.integers(1, 5))
        n_anchor = int(rng.integers(1, 12))
        overlaps = np.round(rng.uniform(0, 1, size=(n_gt, n_anchor)), 2)
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        np.testing.assert_array_equal(
            match_baseline_from_iou(overlaps, thresh),
            match_baseline_oracle(overlaps, thresh),
        )


class TestMatchTwoStep:
    def test_step2_inert_for_well_matched_gt(self):
        grid = toy_grid()
        gt = grid.box(20)  # exactly an anchor: plenty of IoU >= 0.5 neighbors
        base = match_baseline(grid, [gt], 0.5)
        two = match_two_step(grid, [gt], MatchConfig())
        np.testing.assert_array_equal(base.labels, two.labels)

    def test_hard_face_gets_top_four_total(self):
        overlaps = np.array([[0.3, 0.28, 0.2, 0.15, 0.12, 0.05]])
        labels = match_two_step_from_iou(overlaps, MatchConfig())
        assert np.sum(labels == 0) == 4
        # the four positives are exactly the four highest-overlap anchors
        np.testing.assert_array_equal(np.flatnonzero(labels == 0), [0, 1, 2, 3])

    def test_floor_excludes_weak_anchors(self):
        overlaps = np.array([[0.3, 0.08]])
        labels = match_two_step_from_iou(overlaps, MatchConfig())
        assert np.sum(labels == 0) == 1
        assert labels[0] == 0

    def test_zero_extra_equals_baseline(self):
        rng = np.random.default_rng(11)
        overlaps = rng.uniform(0, 0.9, size=(3, 20))
        cfg = MatchConfig(max_extra_anchors=0)
        np.testing.assert_array_equal(
            match_two_step_from_iou(overlaps, cfg),
            match_baseline_oracle(overlaps, cfg.step1_iou),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_tables_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_gt = int(rng.integers(1, 5))
        n_anchor = int(rng.integers(1, 14))
        overlaps = np.round(rng.uniform(0, 1, size=(n_gt, n_anchor)), 2)
        cfg = MatchConfig()
        np.testing.assert_array_equal(
            match_two_step_from_iou(overlaps, cfg),
            match_two_step_oracle(
                overlaps, cfg.step1_iou, cfg.max_extra_anchors, cfg.step2_iou_floor
            ),
        )

    def test_scene_guarantees(self):
        grid = toy_grid()
        cfg = MatchConfig()
        overlaps_cache = {}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            gts = random_scene(rng)
            base = match_baseline(grid, gts, cfg.step1_iou)
            two = match_two_step(grid, gts, cfg)
            overlaps = pairwise_iou(boxes_to_array(gts), grid.boxes)
            for g in range(len(gts)):
                nb = base.matched[g].size
                nt = two.matched[g].size
                assert nt >= nb, "two-step may only add anchors"
                assert nt - nb <= cfg.max_extra_anchors
                if np.any(overlaps[g] > cfg.step2_iou_floor):
                    assert nt >= 1, "gt with usable anchors left unmatched"
            # no anchor belongs to two gts: labels are single-valued by type
            pos = two.positive_indices()
            assert len(pos) == len(set(pos.tolist()))


class TestEncodeDecode:
    def test_identity_when_gt_equals_anchor(self):
        grid = toy_grid()
        gt = grid.box(5)
        a = match_two_step(grid, [gt])
        assert a.labels[5] == 0
        t = encode_targets(a, grid, [gt])
        np.testing.assert_allclose(t[5], 0.0, atol=1e-12)

    def test_hand_computed_offsets(self):
        grid = generate_anchors(AnchorConfig(layers=((16, 16),), image_w=16, image_h=16))
        np.testing.assert_allclose(grid.boxes[0], [0, 0, 16, 16])
        gt = Box(0, 0, 32, 32)
        a = match_two_step(grid, [gt])
        assert a.labels[0] == 0
        t = encode_targets(a, grid, [gt])
        np.testing.assert_allclose(t[0], [0.5, 0.5, math.log(2), math.log(2)])

    def test_decode_inverts_hand_example(self):
        grid = generate_anchors(AnchorConfig(layers=((16, 16),), image_w=16, image_h=16))
        offsets = np.array([[0.5, 0.5, math.log(2), math.log(2)]])
        np.testing.assert_allclose(decode_rows(grid.boxes, offsets)[0], [0, 0, 32, 32], atol=1e-12)

    def test_zero_offsets_reproduce_anchors(self):
        grid = toy_grid()
        out = decode_rows(grid.boxes, np.zeros((len(grid), 4)))
        np.testing.assert_allclose(out, grid.boxes, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        grid = toy_grid()
        gts = random_scene(rng)
        a = match_two_step(grid, gts)
        t = encode_targets(a, grid, gts)
        decoded = decode_rows(grid.boxes, t)
        for i in a.positive_indices():
            gt = gts[a.labels[i]]
            np.testing.assert_allclose(
                decoded[i], gt.as_tuple(), rtol=1e-9, atol=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_encode_of_decode_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        grid = toy_grid()
        offsets = rng.uniform(-1, 1, size=(len(grid), 4))
        boxes = decode_rows(grid.boxes, offsets)
        # re-encode the decoded boxes against the same anchors
        w = boxes[:, 2] - boxes[:, 0]
        h = boxes[:, 3] - boxes[:, 1]
        aw = grid.boxes[:, 2] - grid.boxes[:, 0]
        ah = grid.boxes[:, 3] - grid.boxes[:, 1]
        tx = (boxes[:, 0] + w / 2 - (grid.boxes[:, 0] + aw / 2)) / aw
        ty = (boxes[:, 1] + h / 2 - (grid.boxes[:, 1] + ah / 2)) / ah
        again = np.stack([tx, ty, np.log(w / aw), np.log(h / ah)], axis=1)
        np.testing.assert_allclose(again, offsets, rtol=1e-9, atol=1e-9)


def test_assignment_csv():
    grid = toy_grid()
    gt = grid.box(3)
    a = match_two_step(grid, [gt])
    buf = io.StringIO()
    a.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "anchor_index,label,gt_index"
    assert lines[1 + 3] == "3,positive,0"
    assert len(lines) == len(grid) + 1
