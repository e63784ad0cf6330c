import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anchorkit as ak
from anchorkit import cli
from anchorkit.cli import run
from anchorkit.data import AugConfig
from anchorkit.network import NetConfig, StageSpec, build_network, save_weights
from anchorkit.runconfig import ConfigError, RunConfig
from anchorkit.trainer import TrainConfig


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


@pytest.mark.parametrize("args, message", [
    (["anchors", "--strides", "4,8", "--sizes", "16"], "--strides and --sizes must have the same length, got 2 and 1"),
    (["anchors", "--strides", "4,x", "--sizes", "16,32"], "--strides: 'x' is not an integer"),
    (["anchors", "--strides", "4,8", "--sizes", "16,3.5"], "--sizes: '3.5' is not an integer"),
    (["anchors", "--strides", "4,", "--sizes", "16,32"], "--strides: '' is not an integer"),
    (["rf", "--stack", "3s1,3sx"], "--stack: bad layer '3sx': expected '<kernel>s<stride>'"),
    (["rf", "--stack", "3"], "--stack: bad layer '3': expected '<kernel>s<stride>'"),
], ids=["unmatched", "strides", "sizes", "empty token", "stack token", "stack without s"])
def test_bad_list_flag_is_a_config_error(capsys, args, message):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


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


def test_train_data_names_a_missing_image(tmp_path, capsys):
    ds = tmp_path / "data"
    assert run(["synth", "--out", str(ds), "--n", "2", "--seed", "3"]) == 0
    (ds / "000001.pgm").unlink()
    out = tmp_path / "run"
    assert run(["train", "--data", str(ds), "--out", str(out), "--set", "train.epochs=1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: annotations.txt names '000001.pgm', which is not an image in {ds}\n"
    assert not out.exists()


def test_train_zero_epochs(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--train-n", "2", "--epochs", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"trained 0 epochs; wrote {out}"
    assert (out / "weights.bin").exists() and (out / "train_report.csv").exists()


def test_train_at_128(tmp_path):
    # augmentation takes its output size from the anchor config
    size = ["--set", "anchor.image_w=128", "--set", "anchor.image_h=128", "--set", "synth.image_size=128"]
    assert run(["train", "--out", str(tmp_path / "run"), "--seed", "1", "--train-n", "2",
                "--set", "train.epochs=1", *size]) == 0
    assert (tmp_path / "run" / "weights.bin").exists()


def test_non_finite_config_float_rejected(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--out", str(out), "--set", "train.lr=nan", "--set", "train.epochs=1",
                "--train-n", "6"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and "train.lr" in err and "Traceback" not in err
    assert not out.exists()


def test_diverged_training_reports_step(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--out", str(out), "--set", "train.lr=1e30", "--set", "train.epochs=2",
                "--train-n", "6"])
    err = capsys.readouterr().err
    assert code == 1
    assert re.search(r"^error: non-finite loss \S+ at step \d+$", err, re.M)
    assert "Traceback" not in err
    assert not out.exists()


def test_diverged_training_prints_no_numpy_warning(tmp_path):
    # a separate process: pytest would catch the warnings before they reach stderr
    src = Path(ak.__file__).resolve().parent.parent
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-m", "anchorkit.cli", "train", "--out", str(tmp_path / "run"),
         "--set", "train.lr=1e30", "--set", "train.epochs=2", "--train-n", "6"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr
    assert re.fullmatch(r"error: non-finite loss \S+ at step \d+", done.stderr.splitlines()[-1])


@pytest.mark.parametrize("key, field", [("loss.lambda", "lam"), ("loss.ohem_ratio", "ohem_ratio")])
def test_zero_loss_weight_is_a_config_error(tmp_path, capsys, key, field):
    rc = RunConfig()
    rc.set(key, "0")
    with pytest.raises(ConfigError, match=f"^train config: {field} must be"):
        rc.build("train")
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--set", f"{key}=0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: train config: {field} must be") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, flag, value", [
    (["train", "--train-n", "4", "--val-n", "0", "--target-ap", "0.5", "--epochs", "1"], "--val-n", "0"),
    (["train", "--train-n", "-2"], "--train-n", "-2"),
    (["detect", "--synth-n", "-3", "--weights", "w.bin"], "--synth-n", "-3"),
    (["synth", "--n", "0"], "--n", "0"),
])
def test_count_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, args, flag, value):
    made = []
    for name in ("synth_dataset", "synth_pairs", "train", "load_weights"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: made.append(_name))
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {flag} must be >= 1, got {value}\n"
    assert made == [] and not out.exists()


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


# characters a config file can hold; surrogates cannot be written as UTF-8
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)

# every value that a key's default's type allows and that to_text writes exactly
_STRATEGIES = {
    bool: st.booleans(),
    int: st.integers(-10**6, 10**6),
    # at most six significant digits, all that to_text writes
    float: st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-999999, 999999), st.integers(-30, 30)),
}


def _value_strategy(key, default):
    if key == "train.matcher":
        return st.sampled_from(["two_step", "baseline"])
    if key == "net.stages":
        spec = st.builds(StageSpec, st.integers(1, 9), st.integers(1, 512), st.integers(1, 4))
        return st.lists(spec, min_size=1, max_size=6).map(tuple)
    if isinstance(default, tuple):
        return st.lists(_STRATEGIES[int], min_size=1, max_size=6).map(tuple)
    return _STRATEGIES[type(default)]


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

    def test_built_configs_consistent(self):
        rc = RunConfig()
        assert rc.build("net").anchors == rc.build("anchor")
        assert rc.build("match").step1_iou == 0.5
        assert rc.build("decode").nms_threshold == 0.3
        assert rc.build("train", seed=3) == TrainConfig(seed=3)
        assert rc.build("aug") == AugConfig()
        rc.set("aug.enabled", "false")
        assert rc.build("aug") is None

    def test_loss_keys_set_train_config(self):
        rc = RunConfig()
        rc.set("loss.lambda", "2.5")
        rc.set("loss.ohem_ratio", "5")
        rc.set("train.matcher", "baseline")
        tc = rc.build("train")
        assert (tc.lam, tc.ohem_ratio, tc.matcher) == (2.5, 5, "baseline")

    def test_bad_matcher_fails_at_build(self):
        rc = RunConfig()
        rc.set("train.matcher", "fancy")
        with pytest.raises(ConfigError, match="matcher"):
            rc.build("train")

    def test_aug_size_follows_anchor_config(self, tmp_path, capsys):
        # augment() takes its size from the anchor config, which must be square
        args = ["train", "--out", str(tmp_path / "run"), "--train-n", "2",
                "--set", "train.epochs=1", "--set", "anchor.image_h=96"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "square" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["train.seed", "net.in_channels", "aug.output_size",
                                     "net.anchors", "aug.min_box_retained"])
    def test_fields_that_are_no_key(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
            RunConfig().set(key, "1")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(ConfigError, match="train.lr"):
            RunConfig().set("train.lr", raw)

    def test_default_text_pinned(self):
        assert RunConfig().to_text() == DEFAULT_TEXT

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_any_valid_values_round_trip(self, tmp_path, data):
        rc = RunConfig()
        for key, default in rc.values.items():
            rc.values[key] = data.draw(_value_strategy(key, default), label=key)
        path = tmp_path / "c.cfg"
        path.write_text(rc.to_text())
        again = RunConfig()
        again.load_file(path)
        assert again.values == rc.values

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.sampled_from(sorted(RunConfig().values)), _TEXT), _TEXT)
    def test_any_line_parses_or_names_itself(self, tmp_path, key, raw):
        path = tmp_path / "c.cfg"
        path.write_text(f"{key}={raw}\n")
        try:
            RunConfig().load_file(path)
        except ConfigError as e:
            assert str(e).startswith(f"{path}:")


DEFAULT_TEXT = """\
anchor.image_h=64
anchor.image_w=64
anchor.sizes=16,32
anchor.strides=4,8
aug.brightness_jitter=0.1
aug.crop_ratio_max=1
aug.crop_ratio_min=1
aug.enabled=true
aug.hflip_prob=0.5
decode.clip_to_image=true
decode.max_detections=200
decode.nms_threshold=0.3
decode.report_threshold=0.1
decode.score_threshold=0.1
loss.lambda=4
loss.ohem_ratio=3
match.max_extra_anchors=4
match.step1_iou=0.5
match.step2_iou_floor=0.1
net.fusion=true
net.head_channels=64
net.head_depth=2
net.stages=1x8s1,1x16s2,2x32s2,2x64s2
net.taps=2,3
synth.distractor_rate=0.15
synth.face_contrast=0.6
synth.face_size_max=28
synth.face_size_min=12
synth.faces_max=3
synth.faces_min=1
synth.image_size=64
synth.noise_amplitude=0.25
train.batch_size=6
train.epochs=10
train.lr=0.003
train.lr_divisor=10
train.matcher=two_step
train.momentum=0.9
train.plateau_patience=3
train.weight_decay=0.0001
"""
