import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorkit
from anchorkit import decode
from anchorkit.decode import (
    DecodeConfig,
    Detection,
    bench_decode,
    decode_baseline,
    decode_improved,
    face_scores,
    nms_rows,
    read_detections,
    synth_raw_output,
    write_detections,
)
from anchorkit.geometry import AnchorConfig, Box, generate_anchors
from anchorkit.network import RawOutput

from oracles import nms_oracle


def toy_grid():
    return generate_anchors(AnchorConfig.toy())


def raw_from_scores(grid, scores, offsets=None):
    scores = np.asarray(scores, dtype=np.float64)
    logits = np.zeros((len(grid), 2))
    logits[:, 1] = np.log(scores / (1 - scores))
    if offsets is None:
        offsets = np.zeros((len(grid), 4))
    return RawOutput(logits=logits.astype(np.float32), offsets=np.asarray(offsets, dtype=np.float32))


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.score_threshold == 0.1
        assert cfg.nms_threshold == 0.3
        assert cfg.report_threshold == 0.1

    def test_gate_above_report_rejected(self):
        with pytest.raises(ValueError):
            DecodeConfig(score_threshold=0.5, report_threshold=0.2)


class TestFaceScores:
    def test_sigmoid_identity(self):
        logits = np.array([[0.0, 0.0], [0.0, 10.0], [3.0, 1.0]])
        s = face_scores(logits)
        assert s[0] == pytest.approx(0.5)
        assert s[1] == pytest.approx(1 / (1 + math.exp(-10)))
        assert s[2] == pytest.approx(1 / (1 + math.exp(2)))

    def test_stable_for_huge_logits(self):
        s = face_scores(np.array([[1000.0, 999.0]]))
        assert np.isfinite(s).all()

    @staticmethod
    def _max_subtract(logits):
        # the row-reduction formula; the decode-path identity (c04) rests on
        # face_scores matching it bit for bit
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e[:, 1] / e.sum(axis=1)

    def test_bit_identical_to_max_subtract_formula(self):
        rng = np.random.default_rng(7)
        cases = [
            rng.normal(0, 3, size=(5000, 2)),
            rng.uniform(-1000, 1000, size=(5000, 2)),
            np.array([[1000.0, -1000.0], [-1000.0, 1000.0], [1000.0, 1000.0], [-1000.0, -1000.0]]),
            np.repeat(rng.normal(0, 5, size=(500, 1)), 2, axis=1),  # equal columns
            rng.normal(0, 3, size=(5000, 2)).astype(np.float32).astype(np.float64),
        ]
        for logits in cases:
            np.testing.assert_array_equal(face_scores(logits), self._max_subtract(logits))


class TestNMS:
    def test_single_detection(self):
        kept = nms_rows(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0.7]), 0.3)
        np.testing.assert_array_equal(kept, [0])

    def test_identical_boxes_keep_higher(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        np.testing.assert_array_equal(nms_rows(boxes, np.array([0.8, 0.9]), 0.3), [1])

    def test_hand_built_vs_oracle(self):
        boxes = np.array(
            [
                [0, 0, 10, 10],
                [1, 1, 11, 11],
                [20, 20, 30, 30],
                [21, 19, 31, 29],
                [5, 5, 14, 14],
            ],
            dtype=float,
        )
        scores = np.array([0.9, 0.85, 0.6, 0.7, 0.5])
        kept = nms_rows(boxes, scores, 0.3)
        np.testing.assert_array_equal(kept, nms_oracle(boxes, scores, 0.3))

    def test_tie_keeps_lower_index(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=float)
        scores = np.array([0.5, 0.5])
        np.testing.assert_array_equal(nms_rows(boxes, scores, 0.3), [0])

    def test_kept_set_is_antichain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            x = rng.uniform(0, 50, size=(n, 2))
            wh = rng.uniform(1, 30, size=(n, 2))
            boxes = np.concatenate([x, x + wh], axis=1)
            scores = rng.uniform(0, 1, size=n)
            kept = nms_rows(boxes, scores, 0.3)
            from anchorkit.geometry import pairwise_iou

            m = pairwise_iou(boxes[kept], boxes[kept])
            np.fill_diagonal(m, 0.0)
            assert np.all(m <= 0.3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        x = rng.uniform(0, 40, size=(n, 2))
        wh = rng.uniform(1, 25, size=(n, 2))
        boxes = np.concatenate([x, x + wh], axis=1)
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # induce ties
        thresh = float(rng.choice([0.2, 0.3, 0.5]))
        np.testing.assert_array_equal(
            nms_rows(boxes, scores, thresh), nms_oracle(boxes, scores, thresh)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_limit_keeps_prefix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x = rng.uniform(0, 60, size=(n, 2))
        wh = rng.uniform(1, 25, size=(n, 2))
        boxes = np.concatenate([x, x + wh], axis=1)
        scores = np.round(rng.uniform(0, 1, size=n), 1)  # coarse: many ties
        thresh = float(rng.choice([0.2, 0.3, 0.5]))
        full = nms_rows(boxes, scores, thresh)
        oracle = nms_oracle(boxes, scores, thresh)
        for k in range(1, full.size + 3):
            bounded = nms_rows(boxes, scores, thresh, limit=k)
            np.testing.assert_array_equal(bounded, full[:k])
            np.testing.assert_array_equal(bounded, oracle[:k])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_short_horizon_vs_oracle(self, seed, horizon):
        # a horizon of a few rows makes every bounded run replay its kept
        # boxes past it; the output must not depend on where it lies
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x = rng.uniform(0, 60, size=(n, 2))
        wh = rng.uniform(1, 25, size=(n, 2))
        wh[rng.random(size=(n, 2)) < 0.15] = 0.0  # zero-area boxes
        boxes = np.concatenate([x, x + wh], axis=1)
        scores = np.round(rng.uniform(0, 1, size=n), 1)
        thresh = float(rng.choice([0.2, 0.3, 0.5]))
        oracle = nms_oracle(boxes, scores, thresh)
        with mock.patch.object(decode, "_NMS_HORIZON", horizon):
            full = nms_rows(boxes, scores, thresh)
            np.testing.assert_array_equal(full, oracle)
            for k in range(1, full.size + 3):
                np.testing.assert_array_equal(nms_rows(boxes, scores, thresh, limit=k), full[:k])

    def test_limit_crosses_default_horizon(self):
        # the top 1,100 boxes are jittered copies of 150 of 400 grid cells, so
        # the 200th kept box ranks past the horizon, and the later copies of
        # those 150 cells are suppressed only by the replay of their kept box
        rng = np.random.default_rng(3)
        cells = np.stack(np.meshgrid(np.arange(20), np.arange(20)), -1).reshape(-1, 2) * 50.0
        early = rng.choice(400, size=150, replace=False)
        which = np.concatenate([rng.choice(early, size=1100), rng.integers(0, 400, size=2100)])
        scores = np.concatenate([rng.uniform(0.5, 1.0, size=1100), rng.uniform(0.0, 0.5, size=2100)])
        x = cells[which] + rng.uniform(-2.0, 2.0, size=(which.size, 2))
        boxes = np.concatenate([x, x + 30.0], axis=1)
        bounded = nms_rows(boxes, scores, 0.3, limit=200)
        full = nms_rows(boxes, scores, 0.3)
        rank = np.empty(scores.size, dtype=np.int64)
        rank[np.lexsort((np.arange(scores.size), -scores))] = np.arange(scores.size)
        assert rank[bounded[-1]] > decode._NMS_HORIZON
        np.testing.assert_array_equal(bounded, full[:200])
        np.testing.assert_array_equal(bounded, nms_oracle(boxes, scores, 0.3)[:200])
        assert len(set(which[bounded].tolist())) == 200  # one box per cell

    def test_limit_below_one_rejected(self):
        boxes = np.array([[0, 0, 10, 10]], dtype=float)
        with pytest.raises(ValueError, match="limit"):
            nms_rows(boxes, np.array([0.5]), 0.3, limit=0)


class TestDecodePaths:
    def test_zero_net_above_report_empty(self):
        grid = toy_grid()
        raw = raw_from_scores(grid, np.full(len(grid), 0.5))
        cfg = DecodeConfig(score_threshold=0.1, report_threshold=0.6)
        assert decode_baseline(raw, grid, cfg).detections == []
        assert decode_improved(raw, grid, cfg).detections == []

    def test_single_confident_anchor(self):
        grid = toy_grid()
        logits = np.zeros((len(grid), 2), dtype=np.float32)
        logits[7, 1] = 10.0
        raw = RawOutput(logits=logits, offsets=np.zeros((len(grid), 4), dtype=np.float32))
        cfg = DecodeConfig(report_threshold=0.9)
        result = decode_baseline(raw, grid, cfg)
        assert len(result.detections) == 1
        det = result.detections[0]
        assert det.score == pytest.approx(1 / (1 + math.exp(-10)))
        # anchor 7 clipped to the image
        x1, y1, x2, y2 = grid.boxes[7]
        assert det.box.as_tuple() == (max(x1, 0), max(y1, 0), min(x2, 64), min(y2, 64))

    def test_improved_counts_strictly_above_gate(self):
        grid = generate_anchors(AnchorConfig(layers=((4, 16),), image_w=8, image_h=8))
        assert len(grid) == 4
        raw = raw_from_scores(grid, [0.05, 0.2, 0.95, 0.1])
        result = decode_improved(raw, grid, DecodeConfig())
        assert result.decode_ops == 2  # 0.2 and 0.95; 0.1 is not > 0.1
        assert decode_baseline(raw, grid, DecodeConfig()).decode_ops == 4

    def test_gate_must_not_exceed_report(self):
        grid = toy_grid()
        raw = raw_from_scores(grid, np.full(len(grid), 0.5))
        with pytest.raises(ValueError):
            decode_improved(raw, grid, DecodeConfig(score_threshold=0.4, report_threshold=0.3))

    def test_equivalence_on_random_outputs(self):
        grid = toy_grid()
        rng = np.random.default_rng(77)
        for trial in range(50):
            logits = rng.normal(0, 3, size=(len(grid), 2)).astype(np.float32)
            offsets = rng.normal(0, 0.4, size=(len(grid), 4)).astype(np.float32)
            raw = RawOutput(logits=logits, offsets=offsets)
            cfg = DecodeConfig(
                score_threshold=0.1,
                report_threshold=float(rng.choice([0.1, 0.25, 0.5])),
                clip_to_image=bool(rng.integers(0, 2)),
            )
            a = decode_baseline(raw, grid, cfg)
            b = decode_improved(raw, grid, cfg)
            assert a.detections == b.detections
            assert b.decode_ops == int(
                np.sum(face_scores(logits.astype(np.float64)) > cfg.score_threshold)
            )

    def test_equivalence_with_score_ties(self):
        grid = toy_grid()
        logits = np.zeros((len(grid), 2), dtype=np.float32)
        logits[10:20, 1] = 2.0  # ten identical scores
        offsets = np.zeros((len(grid), 4), dtype=np.float32)
        raw = RawOutput(logits=logits, offsets=offsets)
        a = decode_baseline(raw, grid)
        b = decode_improved(raw, grid)
        assert a.detections == b.detections

    def test_raising_gate_never_changes_output(self):
        grid = toy_grid()
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 3, size=(len(grid), 2)).astype(np.float32)
        raw = RawOutput(logits=logits, offsets=np.zeros((len(grid), 4), dtype=np.float32))
        base = decode_improved(raw, grid, DecodeConfig(score_threshold=0.05, report_threshold=0.5))
        for gate in (0.1, 0.3, 0.5):
            again = decode_improved(
                raw, grid, DecodeConfig(score_threshold=gate, report_threshold=0.5)
            )
            assert again.detections == base.detections

    def test_gated_output_refused_by_baseline(self):
        grid = toy_grid()
        raw = raw_from_scores(grid, np.full(len(grid), 0.5))
        gated = RawOutput(logits=raw.logits, offsets=raw.offsets, gate=0.1)
        with pytest.raises(ValueError, match="dense forward"):
            decode_baseline(gated, grid)

    def test_gated_output_needs_threshold_at_or_above_gate(self):
        grid = toy_grid()
        scores = np.linspace(0.01, 0.99, len(grid))
        raw = raw_from_scores(grid, scores)
        # rows a forward gated at 0.3 did not regress
        offsets = raw.offsets.copy()
        offsets[face_scores(raw.logits.astype(np.float64)) <= 0.3] = np.nan
        gated = RawOutput(logits=raw.logits, offsets=offsets, gate=0.3)
        with pytest.raises(ValueError, match="gated at 0.3"):
            decode_improved(gated, grid, DecodeConfig(score_threshold=0.1))
        for thresh in (0.3, 0.5):
            cfg = DecodeConfig(score_threshold=thresh, report_threshold=thresh)
            dets = decode_improved(gated, grid, cfg).detections
            assert dets == decode_baseline(raw, grid, cfg).detections
            assert dets and all(
                math.isfinite(v) for d in dets for v in (*d.box.as_tuple(), d.score)
            )

    def test_max_detections_truncates(self):
        grid = toy_grid()
        raw = raw_from_scores(grid, np.full(len(grid), 0.9))
        cfg = DecodeConfig(max_detections=3)
        assert len(decode_baseline(raw, grid, cfg).detections) == 3

    def test_every_anchor_gated_stays_bounded(self):
        # an untrained 640 net scores nearly every anchor above the gate, and
        # unbounded NMS over spread-out boxes keeps thousands; stopping at
        # max_detections must report the same detections in far less time
        grid = generate_anchors(AnchorConfig())
        assert len(grid) == 34125
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.2, 0.99, size=len(grid))
        raw = raw_from_scores(grid, scores, rng.normal(0.0, 0.5, size=(len(grid), 4)))
        cfg = DecodeConfig()
        t0 = time.perf_counter()
        improved = decode_improved(raw, grid, cfg)
        elapsed = time.perf_counter() - t0
        assert improved.decode_ops == len(grid)
        assert len(improved.detections) == cfg.max_detections
        assert improved.detections == decode_baseline(raw, grid, cfg).detections
        assert elapsed < 2.0, f"decode_improved took {elapsed:.2f} s on the dense case"


class TestBench:
    def test_hot_fraction_zero(self):
        report = bench_decode(1000, 0.0, repeats=10, seed=1)
        assert report.improved_ops == 0
        assert report.baseline_ops == 1000
        assert report.outputs_equal

    def test_hot_fraction_one(self):
        report = bench_decode(500, 1.0, repeats=10, seed=1)
        assert report.improved_ops == report.baseline_ops == 500
        assert report.outputs_equal

    def test_fixture_hot_count_exact(self):
        grid = generate_anchors(AnchorConfig())
        raw = synth_raw_output(grid, 171 / 34125, seed=3)
        scores = face_scores(raw.logits.astype(np.float64))
        assert int(np.sum(scores > 0.1)) == 171
        result = decode_improved(raw, grid)
        assert result.decode_ops == 171

    def test_csv_format(self):
        report = bench_decode(200, 0.05, repeats=10, seed=2)
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "path,anchors,hot_fraction,mean_ns,stddev_ns,decode_ops"
        assert lines[2].startswith("baseline,200,0.05,")
        assert lines[3].startswith("improved,200,0.05,")

    def test_repeats_floor(self):
        with pytest.raises(ValueError, match="repeats"):
            bench_decode(100, 0.1, repeats=5)

    @pytest.mark.parametrize("anchors, hot, message", [
        (100, 2.0, r"^hot_fraction must be in \[0, 1\], got 2.0$"),
        (100, -0.5, r"^hot_fraction must be in \[0, 1\], got -0.5$"),
        (100, float("nan"), r"^hot_fraction must be in \[0, 1\], got nan$"),
        (0, 0.1, r"^anchor_count must be >= 1, got 0$"),
        (-3, 0.1, r"^anchor_count must be >= 1, got -3$"),
    ])
    def test_bad_input_named(self, anchors, hot, message):
        with pytest.raises(ValueError, match=message):
            bench_decode(anchors, hot, repeats=10)

    @pytest.mark.parametrize("hot", [1.5, float("nan")])
    def test_synth_raw_output_names_hot_fraction(self, hot):
        with pytest.raises(ValueError, match=r"^hot_fraction must be in \[0, 1\]"):
            synth_raw_output(toy_grid(), hot, seed=0)


class TestDetectionIO:
    def test_round_trip(self):
        dets = {
            "a.pgm": [Detection(Box(1, 2, 11, 22), 0.875), Detection(Box(0.5, 0.5, 3.25, 9.5), 0.125)],
            "b.pgm": [],
        }
        buf = io.StringIO()
        write_detections(buf, dets)
        text = buf.getvalue()
        again = read_detections(text)
        assert set(again) == {"a.pgm", "b.pgm"}
        assert again["b.pgm"] == []
        first = again["a.pgm"][0]
        assert first.score == pytest.approx(0.875)
        assert first.box.as_tuple() == pytest.approx((1, 2, 11, 22))

    def test_six_significant_digits(self):
        dets = {"x": [Detection(Box(1 / 3, 2 / 3, 10 / 3, 20 / 3), 0.123456789)]}
        buf = io.StringIO()
        write_detections(buf, dets)
        assert "0.123457" in buf.getvalue()
        assert "0.333333 0.666667 3 6" in buf.getvalue()

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_detections("img.pgm\n2\n1 1 5 5 0.9\n")

    @pytest.mark.parametrize(
        "line, match",
        [
            ("0 0 abc 5 0.9", "line 3: could not convert string to float"),
            ("0 0 0 5 0.9", "line 3: degenerate box"),
            ("0 0 inf 5 0.9", "line 3: non-finite"),
            ("0 0 4 5 nan", "line 3: non-finite"),
            ("1e308 0 1e308 5 0.5", "line 3: non-finite"),
        ],
    )
    def test_bad_detection_names_line(self, line, match):
        with pytest.raises(ValueError, match=match):
            read_detections(f"a.pgm\n1\n{line}\n")

    def test_repeated_image_rejected(self):
        with pytest.raises(ValueError, match="line 5: image 'a.pgm' repeats line 1"):
            read_detections("a.pgm\n0\nb.pgm\n0\na.pgm\n1\n0 0 4 5 0.9\n")

    def test_negative_count_rejected(self):
        # in a child process under a time limit: a parser that steps backwards
        # on a negative count never returns
        code = "from anchorkit.decode import read_detections; read_detections('a.pgm\\n-2\\n')"
        src = str(Path(anchorkit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "ValueError: line 2: negative detection count -2" in proc.stderr
