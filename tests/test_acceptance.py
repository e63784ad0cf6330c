"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. The training-based criteria share module-scoped fixtures
(the full toy model and its ablated baseline), so the suite trains each
configuration exactly once.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

import anchorkit as ak
from anchorkit.assign import MatchConfig, match_baseline, match_two_step
from anchorkit.cli import run as cli_run
from anchorkit.decode import (
    DecodeConfig,
    bench_decode,
    decode_baseline,
    decode_improved,
    face_scores,
    nms_rows,
)
from anchorkit.evalkit import (
    average_precision,
    count_false_positives,
    evaluate_ap,
    match_detections,
    pr_curve,
)
from anchorkit.geometry import AnchorConfig, Box, boxes_to_array, generate_anchors, pairwise_iou
from anchorkit.gradcheck import TOLERANCE, run_all
from anchorkit.network import NetConfig, RawOutput, build_network
from anchorkit.pipeline import VAL_SEED_OFFSET, detect_images, synth_pairs, validation_ap
from anchorkit.trainer import TrainConfig, train

from oracles import (
    average_precision_oracle,
    match_detections_oracle,
    nms_oracle,
)

SEED = 42
TRAIN_N, VAL_N = 500, 100
ACCEPT_AP = 0.90
MAX_EPOCHS = 30
MIN_EPOCHS = 5  # train at least this long so the loss-monotone check is meaningful
TIME_BUDGET_S = 600.0


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


# ---------------------------------------------------------------------------
# shared training fixtures


@pytest.fixture(scope="module")
def val_split():
    from anchorkit.data import synth_dataset

    images, gts = synth_dataset(ak.SynthConfig(), VAL_N, SEED + VAL_SEED_OFFSET)
    keyed = {f"{i:06d}.pgm": img for i, img in enumerate(images)}
    return keyed, gts


@pytest.fixture(scope="module")
def trained_full(val_split):
    """Criterion 7's run: default toy config, early-stop once AP holds."""
    val_keyed, val_gts = val_split
    pairs, _ = synth_pairs(ak.SynthConfig(), TRAIN_N, SEED)
    net = build_network(NetConfig.toy(), seed=SEED)
    ap_history = []
    start = time.perf_counter()

    def callback(epoch, net_, stats):
        ap = validation_ap(net_, val_keyed, val_gts)
        ap_history.append(ap)
        return epoch + 1 >= MIN_EPOCHS and ap >= ACCEPT_AP

    train_report = train(
        net,
        pairs,
        TrainConfig(epochs=MAX_EPOCHS, seed=SEED),
        epoch_callback=callback,
    )
    elapsed = time.perf_counter() - start
    return net, train_report, ap_history, elapsed


@pytest.fixture(scope="module")
def trained_ablation_pair(val_split):
    """Criterion 8's pair: identical budget, three design knobs flipped."""
    pairs, _ = synth_pairs(ak.SynthConfig(), TRAIN_N, SEED)
    epochs = 18

    full = build_network(NetConfig.toy(fusion=True, split_heads=True), seed=SEED)
    train(full, pairs, TrainConfig(epochs=epochs, seed=SEED, matcher="two_step"))

    base = build_network(NetConfig.toy(fusion=False, split_heads=False), seed=SEED)
    train(base, pairs, TrainConfig(epochs=epochs, seed=SEED, matcher="baseline"))
    return full, base


# ---------------------------------------------------------------------------
# criteria


def test_c01_anchor_accounting(capsys):
    start = time.perf_counter()
    assert cli_run(["anchors", "--image", "640x640"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert "total anchors: 34125" in out.replace(",", "").replace("34,125", "34125")
    assert "37,500" in out or "37500" in out, "documented discrepancy figure missing"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    grid = generate_anchors(AnchorConfig())
    assert len(grid) == 34125
    assert [l.count for l in grid.layers] == [25600, 6400, 1600, 400, 100, 25]
    report(1, f"34,125 anchors exact, discrepancy documented, {elapsed * 1000:.0f} ms")


def test_c02_gradient_correctness():
    start = time.perf_counter()
    results = run_all(seed=SEED, instances=100)
    elapsed = time.perf_counter() - start
    for name, err in results.items():
        assert err < TOLERANCE, f"{name}: max rel err {err:.2e} >= {TOLERANCE}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    worst = max(results.values())
    report(2, f"6 ops x 100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def _random_match_scene(rng, image=64):
    n = int(rng.integers(1, 5))
    boxes = []
    tries = 0
    while len(boxes) < n and tries < 200:
        tries += 1
        w = float(rng.uniform(5, image * 0.7))
        h = w * float(rng.uniform(0.7, 1.4))
        x = float(rng.uniform(-4, image - w + 4))
        y = float(rng.uniform(-4, image - h + 4))
        cand = Box(x, y, x + w, y + h)
        if all(
            pairwise_iou(boxes_to_array([cand]), boxes_to_array([b]))[0, 0] < 0.5 for b in boxes
        ):
            boxes.append(cand)
    return boxes


def test_c03_matching_guarantees():
    grid = generate_anchors(AnchorConfig.toy())
    cfg = MatchConfig()
    rng = np.random.default_rng(SEED)
    for scene in range(1000):
        gts = _random_match_scene(rng)
        base = match_baseline(grid, gts, cfg.step1_iou)
        two = match_two_step(grid, gts, cfg)
        overlaps = pairwise_iou(boxes_to_array(gts), grid.boxes)

        # (a) no anchor assigned to two gts
        pos = two.positive_indices()
        assert len(set(pos.tolist())) == len(pos)
        seen = set()
        for g in range(len(gts)):
            anchors_g = set(two.matched[g].tolist())
            assert not (anchors_g & seen)
            seen |= anchors_g

        for g in range(len(gts)):
            nb, nt = base.matched[g].size, two.matched[g].size
            # (b) recall guarantee above the IoU floor
            if np.any(overlaps[g] > cfg.step2_iou_floor):
                assert nt >= 1, f"scene {scene}, gt {g} left unmatched"
            # (c) bounded surplus over the baseline
            assert nb <= nt <= nb + cfg.max_extra_anchors

        # (d) degenerate config reduces to the baseline
        frozen = match_two_step(grid, gts, MatchConfig(max_extra_anchors=0))
        np.testing.assert_array_equal(frozen.labels, base.labels)
    report(3, "1,000 scenes: uniqueness, recall floor, surplus cap, degenerate equality")


def test_c04_decode_equivalence():
    grids = [
        generate_anchors(AnchorConfig.toy()),
        generate_anchors(AnchorConfig(layers=((4, 16), (8, 32), (16, 64)), image_w=48, image_h=48)),
    ]
    rng = np.random.default_rng(SEED + 4)
    checked_ops = 0
    for trial in range(1000):
        grid = grids[trial % 2]
        n = len(grid)
        logits = rng.normal(0, 3, size=(n, 2)).astype(np.float32)
        if trial % 5 == 0:
            # adversarial ties: whole blocks share identical logits
            k = int(rng.integers(2, 12))
            idx = rng.choice(n, size=k, replace=False)
            logits[idx] = logits[idx[0]]
        offsets = rng.normal(0, 0.5, size=(n, 4)).astype(np.float32)
        raw = RawOutput(logits=logits, offsets=offsets)
        cfg = DecodeConfig(
            score_threshold=0.1,
            report_threshold=float(rng.choice([0.1, 0.2, 0.4])),
            clip_to_image=bool(rng.integers(0, 2)),
        )
        a = decode_baseline(raw, grid, cfg)
        b = decode_improved(raw, grid, cfg)
        assert a.detections == b.detections, f"trial {trial}: paths diverged"
        expect_ops = int(np.sum(face_scores(logits.astype(np.float64)) > cfg.score_threshold))
        assert b.decode_ops == expect_ops
        assert a.decode_ops == n
        checked_ops += b.decode_ops
    report(4, f"1,000 raw outputs identical across paths ({checked_ops} gated decodes total)")


def test_c05_nms_oracle():
    rng = np.random.default_rng(SEED + 5)
    for trial in range(10_000):
        n = int(rng.integers(1, 9))
        xy = rng.uniform(0, 50, size=(n, 2))
        wh = rng.uniform(1, 30, size=(n, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        scores = np.round(rng.uniform(0, 1, size=n), 1)  # coarse: frequent ties
        thresh = float(rng.choice([0.2, 0.3, 0.5]))
        got = nms_rows(boxes, scores, thresh).tolist()
        want = nms_oracle(boxes, scores, thresh)
        assert got == want, f"trial {trial}: {got} != {want}"
    report(5, "10,000 instances match the quadratic suppression oracle exactly")


def test_c06_decode_benchmark():
    bench = bench_decode(34125, 0.01, repeats=50, seed=SEED)
    assert bench.outputs_equal
    assert bench.improved_ops == round(0.01 * 34125)
    assert bench.baseline_ops == 34125
    ratio = bench.improved_mean_ns / bench.baseline_mean_ns
    assert ratio <= 0.5, f"improved/baseline wall-time ratio {ratio:.3f} > 0.5"
    report(
        6,
        f"decode stage {1 / ratio:.1f}x faster ({bench.improved_mean_ns / 1e6:.2f} ms vs "
        f"{bench.baseline_mean_ns / 1e6:.2f} ms; {bench.improved_ops} vs {bench.baseline_ops} decodes)",
    )


def test_c07_toy_training(trained_full, val_split):
    net, train_report, ap_history, elapsed = trained_full
    val_keyed, val_gts = val_split
    assert elapsed <= TIME_BUDGET_S, f"training took {elapsed:.0f}s"
    assert len(train_report.epochs) <= MAX_EPOCHS
    final_ap = validation_ap(net, val_keyed, val_gts)
    assert final_ap >= ACCEPT_AP, f"val AP {final_ap:.4f} < {ACCEPT_AP}"
    losses = [e.mean_total for e in train_report.epochs[:5]]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:])), f"not monotone: {losses}"
    report(
        7,
        f"val AP {final_ap:.3f} after {len(train_report.epochs)} epochs in {elapsed:.0f}s; "
        f"first-5-epoch losses strictly decreasing",
    )


def test_c08_fp_direction(trained_ablation_pair, val_split):
    full, base = trained_ablation_pair
    val_keyed, val_gts = val_split
    bins = [0.8, 0.9, 1.0]
    dets_full = detect_images(full, val_keyed)
    dets_base = detect_images(base, val_keyed)
    fp_full = count_false_positives(dets_full, val_gts, bins).sum()
    fp_base = count_false_positives(dets_base, val_gts, bins).sum()

    def confidence(dets):
        # highest score, and how many val faces a detection at >= bins[0] finds:
        # a model that never reaches the bin has no FPs there to compare
        top = max((d.score for per in dets.values() for d in per), default=0.0)
        sure = {k: [d for d in per if d.score >= bins[0]] for k, per in dets.items()}
        return f"top score {top:.3f}, {sum(match_detections(sure, val_gts))} faces >= {bins[0]}"

    assert fp_full < fp_base, (
        f"high-confidence FPs: full {fp_full} vs baseline {fp_base} (need strictly fewer); "
        f"full: {confidence(dets_full)}; baseline: {confidence(dets_base)} "
        f"(of {val_gts.n_eval()} val faces)"
    )
    report(8, f"FPs at score >= 0.8: full config {fp_full} < ablated baseline {fp_base}")


def test_c09_eval_oracle():
    # three hand-computed AP fixtures
    assert average_precision(pr_curve([True, True, True], 3)) == pytest.approx(1.0)
    assert average_precision(pr_curve([True, False], 1)) == pytest.approx(1.0)
    assert average_precision(pr_curve([False, True], 1)) == pytest.approx(0.5)

    rng = np.random.default_rng(SEED + 9)
    for scene in range(1000):
        keys = [f"im{k}" for k in range(int(rng.integers(1, 4)))]
        gts = ak.GroundTruthSet()
        gt_map, ig_map, det_map = {}, {}, {}
        for key in keys:
            boxes, flags = [], []
            for _ in range(int(rng.integers(0, 4))):
                x, y = rng.uniform(0, 40, size=2)
                s = rng.uniform(4, 20)
                boxes.append(Box(x, y, x + s, y + s))
                flags.append(bool(rng.random() < 0.2))
            gts.add_image(key, boxes, flags)
            gt_map[key] = [b.as_tuple() for b in boxes]
            ig_map[key] = flags
            dets = []
            for _ in range(int(rng.integers(0, 5))):
                if boxes and rng.random() < 0.6:
                    b = boxes[int(rng.integers(0, len(boxes)))]
                    dx, dy = rng.uniform(-3, 3, size=2)
                    dets.append(
                        ak.Detection(Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy),
                                     round(float(rng.uniform(0.05, 1.0)), 2))
                    )
                else:
                    x, y = rng.uniform(0, 40, size=2)
                    s = rng.uniform(4, 20)
                    dets.append(ak.Detection(Box(x, y, x + s, y + s),
                                             round(float(rng.uniform(0.05, 1.0)), 2)))
            det_map[key] = dets
        flags = match_detections(det_map, gts, 0.5)
        oracle_dets = {k: [(d.box.as_tuple(), d.score) for d in v] for k, v in det_map.items()}
        _, expect_flags = match_detections_oracle(oracle_dets, gt_map, ig_map, 0.5)
        assert flags == expect_flags, f"scene {scene}: flags diverge"
        n_gt = gts.n_eval()
        if n_gt and flags:
            got_ap = average_precision(pr_curve(flags, n_gt))
            want_ap = average_precision_oracle(flags, n_gt)
            assert got_ap == pytest.approx(want_ap, abs=1e-12)
    report(9, "1,000 scenes match the evaluation oracle; 3 hand AP fixtures exact")


def _run_twice(tmp_path: Path, name: str, argv_for):
    out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
    assert cli_run(argv_for(out_a)) == 0
    assert cli_run(argv_for(out_b)) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b, f"{name}: file sets differ"
    diff = [
        str(rel)
        for rel in files_a
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes()
    ]
    assert not diff, f"{name}: artifacts differ between runs: {diff}"
    return out_a, len(files_a)


def test_c10_cli_determinism(tmp_path, capsys):
    fast = ["--set", "train.epochs=1", "--set", "synth.face_size_max=24"]
    total_files = 0

    ds_a, n = _run_twice(
        tmp_path, "synth",
        lambda out: ["synth", "--out", str(out), "--n", "6", "--seed", "3", *fast],
    )
    total_files += n

    run_a, n = _run_twice(
        tmp_path, "train",
        lambda out: ["train", "--out", str(out), "--seed", "3", "--train-n", "10",
                     "--log-steps", *fast],
    )
    total_files += n

    def detect_args(out: Path):
        return ["detect", "--weights", str(run_a / "weights.bin"), "--images", str(ds_a),
                "--out", str(out / "dets.txt"), "--seed", "3", *fast]

    det_a, n = _run_twice(tmp_path, "detect", detect_args)
    total_files += n

    def eval_args(out: Path):
        return ["eval", "--detections", str(det_a / "dets.txt"),
                "--annotations", str(ds_a / "annotations.txt"), "--out", str(out)]

    _, n = _run_twice(tmp_path, "eval", eval_args)
    total_files += n

    def hist_args(out: Path):
        return ["fp-hist", "--detections", str(det_a / "dets.txt"),
                "--annotations", str(ds_a / "annotations.txt"),
                "--bins", "0.1,0.5,0.9,1.0", "--out", str(out)]

    _, n = _run_twice(tmp_path, "fp-hist", hist_args)
    total_files += n

    def demo_args(out: Path):
        return ["match-demo", "--seed", "3", "--out", str(out)]

    _, n = _run_twice(tmp_path, "match-demo", demo_args)
    total_files += n

    def anchors_args(out: Path):
        return ["anchors", "--image", "64x64", "--strides", "4,8", "--sizes", "16,32",
                "--csv", str(out / "grid.csv")]

    _, n = _run_twice(tmp_path, "anchors", anchors_args)
    total_files += n

    capsys.readouterr()  # swallow subcommand chatter
    report(10, f"7 subcommands re-run byte-identical ({total_files} artifacts compared)")
