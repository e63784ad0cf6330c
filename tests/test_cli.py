import json
import os
from pathlib import Path

import numpy as np
import pytest

from anchorkit.cli import run
from anchorkit.network import NetConfig, build_network, save_weights
from anchorkit.runconfig import ConfigError, RunConfig


def test_anchors_prints_total_and_discrepancy(capsys):
    assert run(["anchors", "--image", "640x640"]) == 0
    out = capsys.readouterr().out
    assert "34125" in out.replace(",", "")
    assert "37,500" in out or "37500" in out


def test_anchors_custom_scheme(capsys):
    assert run(["anchors", "--image", "64x64", "--strides", "4,8", "--sizes", "16,32"]) == 0
    out = capsys.readouterr().out
    assert "total anchors: 320" in out


def test_anchors_csv(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    assert run(["anchors", "--image", "8x4", "--strides", "4", "--sizes", "16", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "layer,row,col,x1,y1,x2,y2"
    assert len(lines) == 3
    assert (tmp_path / "manifest.json").exists()


def test_rf_stack(capsys):
    assert run(["rf", "--stack", "3s2,3s1"]) == 0
    out = capsys.readouterr().out
    lines = [l.split() for l in out.splitlines()[1:]]
    assert lines[-1][-2:] == ["7", "2"]  # rf 7, jump 2


def test_rf_from_net_config(capsys):
    assert run(["rf"]) == 0
    out = capsys.readouterr().out
    assert "tap 0" in out and "fusion lifts" in out
    assert "tap 0 (stride 4): rf 37, jump 4" in out  # head convs counted
    assert "fusion lifts tap 0's effective rf to 53" in out


def test_grad_check_exit_code(capsys):
    assert run(["grad-check", "--seed", "7", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    assert "worst" in out


def test_match_demo(tmp_path, capsys):
    assert run(["match-demo", "--seed", "3", "--out", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "two-step" in out
    assert (tmp_path / "m" / "assignment_two_step.csv").exists()


def test_unknown_subcommand_usage():
    assert run(["frobnicate"]) == 2


def test_unknown_config_key(tmp_path, capsys):
    code = run(["synth", "--out", str(tmp_path / "d"), "--n", "1", "--set", "synth.mystery=3"])
    assert code == 1
    assert "synth.mystery" in capsys.readouterr().err


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synth.faces_min=2\nsynth.faces_max=2\n")
    out = tmp_path / "ds"
    assert run(["synth", "--out", str(out), "--n", "2", "--seed", "1", "--config", str(cfg)]) == 0
    ann = (out / "annotations.txt").read_text().splitlines()
    # every image has exactly two faces
    assert ann[1] == "2"


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(["synth", "--out", str(out), "--n", "3", "--seed", "5"]) == 0
    assert sorted(p.name for p in out.glob("*.pgm")) == ["000000.pgm", "000001.pgm", "000002.pgm"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert "numpy" in manifest["versions"]


def test_full_pipeline_train_detect_eval_fphist(tmp_path, capsys):
    # tiny but complete: train -> detect -> eval -> fp-hist
    run_dir = tmp_path / "run"
    args = ["--set", "train.epochs=1", "--set", "synth.faces_max=2"]
    assert run(["train", "--out", str(run_dir), "--seed", "11",
                "--train-n", "8", "--log-steps", *args]) == 0
    assert (run_dir / "weights.bin").exists()
    assert (run_dir / "train_report.csv").exists()
    assert (run_dir / "steps.csv").exists()
    assert (run_dir / "config.cfg").exists()

    ds = tmp_path / "val"
    assert run(["synth", "--out", str(ds), "--n", "4", "--seed", "12", *args]) == 0
    dets = tmp_path / "dets.txt"
    assert run(["detect", "--weights", str(run_dir / "weights.bin"),
                "--images", str(ds), "--out", str(dets), "--seed", "11", *args]) == 0
    assert dets.exists()

    assert run(["eval", "--detections", str(dets),
                "--annotations", str(ds / "annotations.txt"),
                "--out", str(tmp_path / "eval")]) == 0
    out = capsys.readouterr().out
    assert "AP@0.5" in out
    assert (tmp_path / "eval" / "pr.csv").exists()
    assert (tmp_path / "eval" / "pr.svg").exists()

    assert run(["fp-hist", "--detections", str(dets),
                "--annotations", str(ds / "annotations.txt"),
                "--bins", "0.1,0.5,0.9,1.0",
                "--out", str(tmp_path / "fph")]) == 0
    hist = (tmp_path / "fph" / "fp_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,false_positives"
    assert len(hist) == 4


def test_eval_bad_detection_reports_line(tmp_path, capsys):
    ds = tmp_path / "val"
    assert run(["synth", "--out", str(ds), "--n", "1", "--seed", "3"]) == 0
    dets = tmp_path / "dets.txt"
    dets.write_text("000000.pgm\n1\n0 0 abc 5 0.9\n")
    code = run(["eval", "--detections", str(dets), "--annotations", str(ds / "annotations.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 3:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_repeated_annotation_image_reports_line(tmp_path, capsys, command):
    ds = tmp_path / "val"
    assert run(["synth", "--out", str(ds), "--n", "2", "--seed", "3"]) == 0
    annotations = ds / "annotations.txt"
    annotations.write_text(annotations.read_text() + "000000.pgm\n0\n")
    dets = tmp_path / "dets.txt"
    dets.write_text("000000.pgm\n0\n")
    if command == "eval":
        args = ["eval", "--detections", str(dets), "--annotations", str(annotations)]
    else:
        args = ["train", "--data", str(ds), "--out", str(tmp_path / "run"), "--set", "train.epochs=1"]
    code = run(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line ") and "image '000000.pgm' repeats line 1" in err
    assert "Traceback" not in err


def test_train_at_128(tmp_path):
    # augmentation takes its output size from the anchor config
    size = ["--set", "anchor.image_w=128", "--set", "anchor.image_h=128", "--set", "synth.image_size=128"]
    assert run(["train", "--out", str(tmp_path / "run"), "--seed", "1", "--train-n", "2",
                "--set", "train.epochs=1", *size]) == 0
    assert (tmp_path / "run" / "weights.bin").exists()


def test_detect_truncated_weights_reports_error(tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    with weights.open("wb") as fh:
        save_weights(build_network(NetConfig.toy()).params, fh)
    weights.write_bytes(weights.read_bytes()[:6])
    code = run(["detect", "--weights", str(weights), "--synth-n", "1", "--out", str(tmp_path / "d.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "header" in err and "Traceback" not in err


def test_detect_rejects_weights_of_another_net(tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    with weights.open("wb") as fh:
        save_weights(build_network(NetConfig.toy(head_channels=32)).params, fh)
    code = run(["detect", "--weights", str(weights), "--synth-n", "1", "--out", str(tmp_path / "d.txt")])
    assert code == 1
    assert "'proj0.w' has shape (32, 32, 1, 1)" in capsys.readouterr().err
    assert not (tmp_path / "d.txt").exists()


def test_detect_image_of_another_size_reports_error(tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    with weights.open("wb") as fh:
        save_weights(build_network(NetConfig.toy()).params, fh)
    images = tmp_path / "images"
    assert run(["synth", "--out", str(images), "--n", "1", "--seed", "3",
                "--set", "synth.image_size=128"]) == 0
    code = run(["detect", "--weights", str(weights), "--images", str(images),
                "--out", str(tmp_path / "d.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: image '000000.pgm' is 128x128") and "Traceback" not in err
    assert not (tmp_path / "d.txt").exists()


def test_bench_decode_small(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench-decode", "--anchors", "2000", "--hot", "0.02",
                "--repeats", "10", "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "path,anchors,hot_fraction,mean_ns,stddev_ns,decode_ops" in text
    assert "improved,2000,0.02" in text


class TestRunConfig:
    def test_unknown_key_named(self):
        rc = RunConfig()
        with pytest.raises(ConfigError, match="nope.key"):
            rc.set("nope.key", "1")

    def test_bad_value_reported(self):
        rc = RunConfig()
        with pytest.raises(ConfigError, match="train.lr"):
            rc.set("train.lr", "fast")

    def test_snapshot_round_trips_through_file(self, tmp_path):
        rc = RunConfig()
        rc.set("net.stages", "1x4s2,2x8s2")
        rc.set("net.taps", "0,1")
        rc.set("anchor.strides", "2,4")
        rc.set("anchor.sizes", "8,16")
        path = tmp_path / "c.cfg"
        path.write_text(rc.to_text())
        again = RunConfig()
        again.load_file(path)
        assert again.snapshot() == rc.snapshot()

    def test_file_without_key_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("anchor.strides=4,8\nstrides 4,8\n")
        with pytest.raises(ConfigError, match=r"c.cfg:2: expected key=value"):
            RunConfig().load_file(path)

    def test_typed_views_consistent(self):
        rc = RunConfig()
        assert rc.net_config().anchors == rc.anchor_config()
        assert rc.match_config().step1_iou == 0.5
        assert rc.decode_config().nms_threshold == 0.3
        assert rc.train_config(3).seed == 3
        assert rc.aug_config().output_size == 64
        rc.set("aug.enabled", "false")
        assert rc.aug_config() is None

    def test_aug_size_follows_anchor_config(self):
        rc = RunConfig()
        rc.set("anchor.image_w", "128")
        rc.set("anchor.image_h", "128")
        assert rc.aug_config().output_size == 128
        rc.set("anchor.image_h", "96")
        with pytest.raises(ConfigError, match="square"):
            rc.aug_config()
        with pytest.raises(ConfigError, match="aug.output_size"):
            rc.set("aug.output_size", "64")
