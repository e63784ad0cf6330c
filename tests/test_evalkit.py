import io

import numpy as np
import pytest

from anchorkit.decode import Detection
from anchorkit.evalkit import (
    GroundTruthSet,
    average_precision,
    count_false_positives,
    evaluate_ap,
    match_detections,
    pr_curve,
)
from anchorkit.geometry import Box

from oracles import average_precision_oracle, match_detections_oracle


def det(x, y, size, score):
    return Detection(Box(x, y, x + size, y + size), score)


def single_image(gt_boxes, ignore=None):
    gts = GroundTruthSet()
    gts.add_image("img", gt_boxes, ignore)
    return gts


class TestMatchDetections:
    def test_exact_hit(self):
        gts = single_image([Box(10, 10, 30, 30)])
        flags = match_detections({"img": [det(10, 10, 20, 0.9)]}, gts)
        assert flags == [True]

    def test_double_detection_single_gt(self):
        gts = single_image([Box(10, 10, 30, 30)])
        dets = {"img": [det(10, 10, 20, 0.9), det(11, 11, 20, 0.8)]}
        assert match_detections(dets, gts) == [True, False]

    def test_global_score_ordering(self):
        gts = GroundTruthSet()
        gts.add_image("a", [Box(0, 0, 10, 10)])
        gts.add_image("b", [Box(0, 0, 10, 10)])
        dets = {
            "a": [det(50, 50, 10, 0.95)],  # FP, highest score
            "b": [det(0, 0, 10, 0.6)],  # TP, lowest score
        }
        assert match_detections(dets, gts) == [False, True]

    def test_ignored_gt_excluded_both_ways(self):
        gts = single_image([Box(0, 0, 10, 10)], ignore=[True])
        dets = {"img": [det(0, 0, 10, 0.9)]}
        assert match_detections(dets, gts) == []
        assert gts.n_eval() == 0

    def test_unknown_image_rejected(self):
        gts = single_image([Box(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="unknown image"):
            match_detections({"other": [det(0, 0, 10, 0.9)]}, gts)

    def test_random_scenes_vs_oracle(self):
        rng = np.random.default_rng(123)
        seen = {"dets_no_gt": 0, "gt_no_dets": 0}
        for scene in range(200):
            keys = [f"im{k}" for k in range(int(rng.integers(1, 4)))]
            gts = GroundTruthSet()
            gt_map, ig_map, det_map = {}, {}, {}
            for key in keys:
                n_gt = int(rng.integers(0, 9))
                n_det = int(rng.integers(0, 61))
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    n_gt = 0
                elif kind == 1:
                    n_det = 0
                if n_det and not n_gt:
                    seen["dets_no_gt"] += 1
                if n_gt and not n_det:
                    seen["gt_no_dets"] += 1
                boxes, ig = [], []
                for _ in range(n_gt):
                    x, y = rng.uniform(0, 40, size=2)
                    s = rng.uniform(4, 20)
                    boxes.append(Box(x, y, x + s, y + s))
                    ig.append(bool(rng.random() < 0.2))
                gts.add_image(key, boxes, ig)
                gt_map[key] = [b.as_tuple() for b in boxes]
                ig_map[key] = ig
                dets = []
                for _ in range(n_det):
                    if boxes and rng.random() < 0.6:
                        b = boxes[int(rng.integers(0, len(boxes)))]
                        jitter = rng.uniform(-2, 2, size=2)
                        dets.append(
                            Detection(
                                Box(b.x1 + jitter[0], b.y1 + jitter[1], b.x2 + jitter[0], b.y2 + jitter[1]),
                                round(float(rng.uniform(0.1, 1.0)), 2),
                            )
                        )
                    else:
                        x, y = rng.uniform(0, 40, size=2)
                        s = rng.uniform(4, 20)
                        dets.append(Detection(Box(x, y, x + s, y + s), round(float(rng.uniform(0.1, 1.0)), 2)))
                det_map[key] = dets
            flags = match_detections(det_map, gts, 0.5)
            oracle_dets = {
                k: [(d.box.as_tuple(), d.score) for d in v] for k, v in det_map.items()
            }
            scores, expect = match_detections_oracle(oracle_dets, gt_map, ig_map, 0.5)
            assert flags == expect
            fp = count_false_positives(det_map, gts, [0.0, 0.5, 1.0], 0.5)
            assert fp.sum() == expect.count(False)
            if gts.n_eval():
                _, curve = evaluate_ap(det_map, gts, 0.5)
                assert curve.thresholds.tolist() == scores
        assert min(seen.values()) >= 20, seen


class TestPRCurve:
    def test_single_tp(self):
        c = pr_curve([True], 1)
        assert (c.recalls.tolist(), c.precisions.tolist()) == ([1.0], [1.0])

    def test_tp_fp(self):
        c = pr_curve([True, False], 2)
        assert (c.recalls.tolist(), c.precisions.tolist()) == ([0.5, 0.5], [1.0, 0.5])

    def test_fp_tp(self):
        c = pr_curve([False, True], 1)
        assert (c.recalls.tolist(), c.precisions.tolist()) == ([0.0, 1.0], [0.0, 0.5])

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError, match="n_gt"):
            pr_curve([True], 0)

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(4)
        flags = rng.random(50) < 0.5
        c = pr_curve(flags.tolist(), 30)
        assert np.all(np.diff(c.recalls) >= 0)
        assert np.all((c.recalls >= 0) & (c.recalls <= 1))
        assert np.all((c.precisions >= 0) & (c.precisions <= 1))

    def test_csv(self):
        buf = io.StringIO()
        pr_curve([True, False], 2).to_csv(buf)
        assert buf.getvalue().splitlines() == ["recall,precision", "0.5,1", "0.5,0.5"]


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision(pr_curve([True, True, True], 3)) == pytest.approx(1.0)

    def test_tp_fp_envelope(self):
        assert average_precision(pr_curve([True, False], 1)) == pytest.approx(1.0)

    def test_fp_tp(self):
        assert average_precision(pr_curve([False, True], 1)) == pytest.approx(0.5)

    def test_empty_flags(self):
        assert average_precision(pr_curve([], 5)) == 0.0

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            flags = (rng.random(n) < 0.5).tolist()
            n_gt = max(sum(flags), int(rng.integers(1, 10)))
            got = average_precision(pr_curve(flags, n_gt))
            want = average_precision_oracle(flags, n_gt)
            assert got == pytest.approx(want, abs=1e-12)

    def test_appending_low_score_fp_never_raises_ap(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            flags = (rng.random(int(rng.integers(1, 15))) < 0.6).tolist()
            n_gt = max(sum(flags), 1)
            assert average_precision(pr_curve(flags + [False], n_gt)) <= average_precision(
                pr_curve(flags, n_gt)
            ) + 1e-12


class TestFPHistogram:
    def test_no_detections(self):
        gts = single_image([Box(0, 0, 10, 10)])
        counts = count_false_positives({"img": []}, gts, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(counts, [0, 0])

    def test_single_fp_binned(self):
        gts = single_image([Box(0, 0, 10, 10)])
        dets = {"img": [det(30, 30, 10, 0.95)]}
        counts = count_false_positives(dets, gts, [0.5, 0.9, 1.0])
        np.testing.assert_array_equal(counts, [0, 1])

    def test_totals_conserved(self):
        rng = np.random.default_rng(9)
        gts = single_image([Box(0, 0, 10, 10), Box(30, 30, 44, 44)])
        dets = {
            "img": [
                det(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), 10, float(rng.uniform(0.01, 0.99)))
                for _ in range(20)
            ]
        }
        counts = count_false_positives(dets, gts, [0.0, 0.25, 0.5, 0.75, 1.0])
        flags = match_detections(dets, gts)
        assert counts.sum() == flags.count(False)

    def test_bad_edges_rejected(self):
        gts = single_image([Box(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="increasing"):
            count_false_positives({"img": []}, gts, [0.5, 0.5])

    @pytest.mark.parametrize("edges", [[0.1, float("nan"), 0.5], [0.1, float("inf")], [float("-inf"), 0.5]])
    def test_non_finite_edges_rejected(self, edges):
        gts = single_image([Box(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="finite"):
            count_false_positives({"img": [det(30, 30, 10, 0.3)]}, gts, edges)


@pytest.mark.parametrize("entry", [
    match_detections,
    evaluate_ap,
    lambda dets, gts, iou: count_false_positives(dets, gts, [0.0, 1.0], iou),
], ids=["match_detections", "evaluate_ap", "count_false_positives"])
@pytest.mark.parametrize("iou", [0.0, 1.0, 1.5, -1.0, float("nan")])
def test_iou_threshold_outside_unit_interval_rejected(entry, iou):
    gts = single_image([Box(0, 0, 10, 10)])
    with pytest.raises(ValueError, match=r"^iou_thresh must be in \(0, 1\), got "):
        entry({"img": [det(0, 0, 10, 0.9)]}, gts, iou)


class TestEvaluateAP:
    def test_end_to_end(self):
        gts = GroundTruthSet()
        gts.add_image("a", [Box(0, 0, 10, 10), Box(20, 20, 32, 32)])
        dets = {"a": [det(0, 0, 10, 0.9), det(20, 20, 12, 0.8), det(40, 40, 8, 0.7)]}
        ap, curve = evaluate_ap(dets, gts)
        assert ap == pytest.approx(1.0)
        assert curve.thresholds is not None

    def test_duplicate_image_key_rejected(self):
        gts = GroundTruthSet()
        gts.add_image("a", [Box(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="duplicate"):
            gts.add_image("a", [])
