"""The traced run's wrappers on anchorkit, and BENCHMARK.json's metric lists."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from anchorkit import assign, decode, evalkit, loss, network, pipeline, trainer
from anchorkit.data import SynthConfig, synth_dataset
from anchorkit.network import NetConfig, build_network
from perfbench import probes, workloads
from perfbench.tracing import Tracer, nesting_violations

MODULES = SimpleNamespace(assign=assign, decode=decode, evalkit=evalkit, loss=loss,
                          network=network, pipeline=pipeline, trainer=trainer)
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def module_attrs():
    return {(name, attr): getattr(mod, attr)
            for name, mod in vars(MODULES).items() for attr in dir(mod) if not attr.startswith("__")}


def toy_traced_run(tracer):
    net = build_network(NetConfig.toy(), seed=0)
    images, gts = synth_dataset(SynthConfig(), 2, seed=3)
    keyed = {f"{i:06d}.pgm": img for i, img in enumerate(images)}
    pairs = [(img, gts.boxes[k]) for k, img in keyed.items()]
    probes.install(tracer, MODULES, [net])
    try:
        trainer.train(net, pairs, trainer.TrainConfig(batch_size=2, epochs=1))
        pipeline.validation_ap(net, keyed, gts)
        raise RuntimeError("operation failed mid-run")
    finally:
        tracer.restore()


def test_every_wrapped_attribute_restored_after_traced_run():
    before = module_attrs()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        toy_traced_run(tracer)
    after = module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans()}
    assert {"trainer.train", "network.forward", "network.backward", "layers.conv2d[head0.cls0]",
            "layers.conv2d_backward[stage0.conv0]", "decode.nms_rows", "evalkit.evaluate_ap"} <= names
    assert nesting_violations(tracer.spans()) == []


def test_traced_counts_and_metrics():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        toy_traced_run(tracer)
    fwd, back = workloads.conv_layers()
    values, untraced = probes.per_layer_metrics(tracer, 4, fwd, back, {})
    assert untraced == []
    assert values["decode.gated_share"] == 1.0  # untrained toy net: every anchor passes the gate
    assert values["evalkit.iou_calls"] > 0 and values["assign.positives"] > 0
    assert values["layers.conv2d.ms.head0.cls0"] > 0 and values["layers.conv2d.ms.head2.cls0"] == 0
    assert set(values) == {name for name, _, _ in probes.metric_specs(fwd, back)}


def test_missing_public_name_is_not_traced(monkeypatch):
    monkeypatch.delattr(decode, "nms_rows")
    tracer = Tracer()
    probes.install(tracer, MODULES, [])
    tracer.restore()
    assert not hasattr(decode, "nms_rows")
    _, untraced = probes.per_layer_metrics(tracer, 1, [], [], {})
    assert {"decode.nms_rows.ms", "decode.nms_kept", "decode.self.ms"} <= set(untraced)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    fwd, back = workloads.conv_layers()
    specs = probes.metric_specs(fwd, back)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == specs
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", "images_per_s", "image_ms_p50"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]]
    assert len(names) == len(set(names)) and len(BENCHMARK["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_sparse_calibration_gates_a_small_share():
    wl = workloads.build("detect_640_sparse", 5)
    raw = network.forward_detect(wl.net, wl.images[0])
    share = float(np.mean(decode.face_scores(raw.logits.astype(np.float64)) > workloads.GATE))
    assert 0 < share < 0.01
