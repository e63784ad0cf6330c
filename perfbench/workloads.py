"""The four benchmark workloads, driven only through anchorkit's public names.

Each workload is a closed loop with one client: ``call(i)`` is one
operation and the next starts when it returns. Construction is the
set-up (inputs, network, warm-up); ``prepare(i)`` is untimed work before
an operation; ``check`` verifies outputs after the timed loop.

Program functions are looked up on their module at call time
(``pipeline.detect_images``, not a name bound at import), so the traced
run's wrappers see every call.

Weights of the detection and validation models come from the fixed
:data:`MODEL_SEED`: they stand in for one deployed model, and ``--seed``
picks the images and ground truth it sees. Training starts from weights
drawn from ``--seed``, since the initial weights are an input of training.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from anchorkit import decode, evalkit, network, pipeline, trainer
from anchorkit.data import SynthConfig, synth_dataset
from anchorkit.geometry import AnchorConfig, generate_anchors
from anchorkit.network import NetConfig, StageSpec
from oracles import average_precision_oracle, match_detections_oracle

__all__ = ["MODEL_SEED", "WORKLOADS", "build", "conv_layers", "net640_config"]

MODEL_SEED = 0
N_TRAIN = 12  # synthetic pairs per training run; 10 epochs of batch 6 -> 120 samples per operation
N_VAL = 16  # images in the validation split
N_POOL = 32  # distinct 640x640 images a detect run cycles through
SPARSE_GATED_SHARE = 0.005  # share of anchors above the gate on the calibration image
GATE = decode.DecodeConfig().score_threshold
AP_TOLERANCE = 1e-9  # evaluate_ap (numpy) against the pure-Python oracle

SYNTH_640 = SynthConfig(image_size=640)  # a few small faces on noise: every image costs about the same


def net640_config() -> NetConfig:
    """Toy backbone plus four 2x64 stride-2 stages; taps 2-7 feed the stock six-layer anchors."""
    toy = NetConfig.toy()
    return NetConfig(
        stages=toy.stages + tuple(StageSpec(2, 64, 2) for _ in range(4)),
        taps=(2, 3, 4, 5, 6, 7),
        anchors=AnchorConfig(),
    )


def conv_layers() -> tuple[list[str], list[str]]:
    """Conv layers that run forward (the 640 net's, a superset of the toy net's)
    and backward (the toy net's), named by weight parameter without ``.w``."""

    def names(cfg):
        return [k[:-2] for k in network.build_network(cfg).params if k.endswith(".w")]

    return names(net640_config()), names(NetConfig.toy())


def _sample(n_ops: int, k: int, seed: int) -> set[int]:
    return set(np.random.default_rng(seed).choice(n_ops, size=min(k, n_ops), replace=False).tolist())


class TrainToy:
    """Ten epochs of toy training on 12 synthetic 64x64 pairs per operation."""

    name = "train_toy"

    def __init__(self, seed: int):
        self.pairs, _ = pipeline.synth_pairs(SynthConfig(), N_TRAIN, seed)
        self.net = network.build_network(NetConfig.toy(), seed=seed)
        self.nets = [self.net]
        self.initial = {k: v.copy() for k, v in self.net.params.items()}
        self.config = trainer.TrainConfig(batch_size=6, seed=seed)
        self.items = N_TRAIN * self.config.epochs
        trainer.train(self.net, self.pairs[:6], replace(self.config, epochs=1))
        self.prepare(0)

    def prepare(self, i: int) -> None:
        # train() updates in place; every operation starts from the same weights
        for k, v in self.initial.items():
            np.copyto(self.net.params[k], v)

    def call(self, i: int):
        return trainer.train(self.net, self.pairs, self.config)

    def check(self, results: dict[int, object], seed: int) -> dict[int, str]:
        """Finite loss in every operation, and bit-identical reruns."""
        bad, first = {}, None
        for i, report in results.items():
            loss = report.epochs[-1].mean_total
            if not math.isfinite(loss):
                bad[i] = f"non-finite loss {loss}"
            elif first is None:
                first = loss
            elif loss != first:
                bad[i] = f"rerun gave loss {loss!r}, first run {first!r}"
        return bad

    def quality(self, results: dict[int, object]) -> dict[str, float]:
        reports = list(results.values())
        return {"train_loss": reports[0].epochs[-1].mean_total} if reports else {}

    def chosen_for(self, m: dict[str, float], largest_self: str | None) -> dict[str, bool]:
        return {"decode and evalkit never called": m["decode.decode_improved.ms"] == m["evalkit.evaluate_ap.ms"] == 0}


class Detect640:
    """One 640x640 image per operation through ``pipeline.detect_images``.

    ``sparse`` shifts every head's face-vs-background bias so that about
    0.5% of anchors pass the score gate on a calibration image, standing in
    for a trained detector whose anchors are mostly background. Without it
    the heads keep their initial values and nearly every anchor passes.
    """

    def __init__(self, seed: int, sparse: bool):
        self.name = "detect_640_sparse" if sparse else "detect_640_dense"
        self.sparse = sparse
        self.n_checked = 3 if sparse else 1  # a dense check costs a full baseline NMS (~7 s)
        cfg = net640_config()
        self.net = network.build_network(cfg, seed=MODEL_SEED)
        self.nets = [self.net]
        calibration = synth_dataset(SYNTH_640, 1, MODEL_SEED)[0][0]
        raw = network.forward_detect(self.net, calibration)  # also the warm-up
        if sparse:
            margin = (raw.logits[:, 1] - raw.logits[:, 0]).astype(np.float64)
            shift = math.log(GATE / (1 - GATE)) - float(np.quantile(margin, 1 - SPARSE_GATED_SHARE))
            for ti in range(len(cfg.taps)):
                self.net.params[f"head{ti}.cls_out.b"] += np.float32([-shift / 2, shift / 2])
        self.images, _ = synth_dataset(SYNTH_640, N_POOL, seed)
        self.grid = generate_anchors(cfg.anchors)
        self.items = 1

    def _image(self, i: int) -> dict[str, np.ndarray]:
        return {f"{i % N_POOL:06d}.pgm": self.images[i % N_POOL]}

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        return pipeline.detect_images(self.net, self._image(i))

    def check(self, results: dict[int, object], seed: int) -> dict[int, str]:
        """On sampled operations: the reported detections equal ``decode_baseline``'s."""
        bad = {}
        for i in sorted(_sample(len(results), self.n_checked, seed)):
            op = sorted(results)[i]
            (key, image), = self._image(op).items()
            raw = network.forward_detect(self.net, image)
            base = decode.decode_baseline(raw, self.grid, decode.DecodeConfig()).detections
            if base != results[op][key]:
                bad[op] = f"{key}: decode_baseline gives {len(base)} detections, detect_images {len(results[op][key])}"
        return bad

    def quality(self, results: dict[int, object]) -> dict[str, float]:
        counts = [len(d) for r in results.values() for d in r.values()]
        return {"detections_per_image": float(np.mean(counts))} if counts else {}

    def chosen_for(self, m: dict[str, float], largest_self: str | None) -> dict[str, bool]:
        if self.sparse:
            return {"decode.gated_share < 1%": m["decode.gated_share"] < 0.01}
        return {"decode.gated_share > 80%": m["decode.gated_share"] > 0.8,
                "decode.nms_rows has the largest self time": largest_self == "decode.nms_rows"}


class ValidateToy:
    """One ``pipeline.validation_ap`` pass over a 16-image 64x64 split per operation."""

    name = "validate_toy"

    def __init__(self, seed: int):
        self.net = network.build_network(NetConfig.toy(), seed=MODEL_SEED)
        self.nets = [self.net]
        images, self.gts = synth_dataset(SynthConfig(), N_VAL, seed)
        self.images = {f"{i:06d}.pgm": img for i, img in enumerate(images)}
        self.items = N_VAL
        pipeline.validation_ap(self.net, self.images, self.gts)

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        return pipeline.validation_ap(self.net, self.images, self.gts)

    def check(self, results: dict[int, object], seed: int) -> dict[int, str]:
        """``evaluate_ap`` equals the brute-force oracle; every pass returns that AP."""
        dets = pipeline.detect_images(self.net, self.images)
        ap, _ = evalkit.evaluate_ap(dets, self.gts)
        _, flags = match_detections_oracle(
            {k: [(d.box.as_tuple(), d.score) for d in v] for k, v in dets.items()},
            {k: [b.as_tuple() for b in v] for k, v in self.gts.boxes.items()},
            self.gts.ignore,
            0.5,
        )
        want = average_precision_oracle(flags, self.gts.n_eval())
        if abs(ap - want) > AP_TOLERANCE:
            return {i: f"evaluate_ap {ap!r} != oracle {want!r}" for i in results}
        return {i: f"AP {got!r} != {ap!r}" for i, got in results.items() if got != ap}

    def quality(self, results: dict[int, object]) -> dict[str, float]:
        return {"ap": next(iter(results.values()))} if results else {}

    def chosen_for(self, m: dict[str, float], largest_self: str | None) -> dict[str, bool]:
        return {"evalkit.evaluate_ap.ms > 0": m["evalkit.evaluate_ap.ms"] > 0,
                "all 320 anchors gated": m["decode.gated"] == 320 and m["decode.gated_share"] == 1}


WORKLOADS = {
    "train_toy": TrainToy,
    "detect_640_sparse": lambda seed: Detect640(seed, sparse=True),
    "detect_640_dense": lambda seed: Detect640(seed, sparse=False),
    "validate_toy": ValidateToy,
}


def build(name: str, seed: int):
    return WORKLOADS[name](seed)
