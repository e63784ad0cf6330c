"""Where the traced run wraps anchorkit, and the per-layer metrics it derives.

Every wrapper sits on the attribute the caller looks up at call time:
``trainer.forward_detect`` and ``pipeline.forward_detect`` rather than
``network.forward_detect``, ``network.conv2d`` rather than
``layers.conv2d``, and so on. Timing metrics are milliseconds per item
(a training sample or an image); counts are per item too. ``.ms`` is a
span's inclusive time, ``.self.ms`` its time outside traced children.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from perfbench.tracing import Tracer, summarize

__all__ = ["install", "per_layer_metrics", "metric_specs"]

CONV = "layers.conv2d"
CONV_BACK = "layers.conv2d_backward"

# metric, span name, column, further spans the figure depends on
_TIMES = [
    ("data.augment.ms", "data.augment", "total_ns", ()),
    ("assign.match_two_step.ms", "assign.match_two_step", "total_ns", ()),
    ("assign.encode_targets.ms", "assign.encode_targets", "total_ns", ()),
    ("network.forward.ms", "network.forward", "total_ns", ()),
    ("network.backward.ms", "network.backward", "total_ns", ()),
    ("layers.fuse.ms", "layers.fuse", "total_ns", ()),
    ("loss.multitask_loss.ms", "loss.multitask_loss", "total_ns", ()),
    ("loss.ohem_select.ms", "loss.ohem_select", "total_ns", ()),
    ("trainer.sgd_step.ms", "trainer.sgd_step", "total_ns", ()),
    ("trainer.self.ms", "trainer.train", "self_ns",
     ("data.augment", "assign.match_two_step", "assign.encode_targets", "network.forward",
      "network.backward", "loss.multitask_loss", "trainer.sgd_step", "geometry.generate_anchors")),
    ("decode.decode_improved.ms", "decode.decode_improved", "total_ns", ()),
    ("decode.face_scores.ms", "decode.face_scores", "total_ns", ()),
    ("decode.decode_rows.ms", "decode.decode_rows", "total_ns", ()),
    ("decode.nms_rows.ms", "decode.nms_rows", "total_ns", ()),
    ("decode.self.ms", "decode.decode_improved", "self_ns",
     ("decode.face_scores", "decode.decode_rows", "decode.nms_rows")),
    ("evalkit.evaluate_ap.ms", "evalkit.evaluate_ap", "total_ns", ()),
    ("geometry.pairwise_iou.ms", "geometry.pairwise_iou", "total_ns", ()),
    ("geometry.generate_anchors.ms", "geometry.generate_anchors", "total_ns", ()),
    ("pipeline.detect_images.self.ms", "pipeline.detect_images", "self_ns",
     ("geometry.generate_anchors", "network.forward", "decode.decode_improved")),
]

# metric, span whose wrapper counts it, unit, better
_COUNTS = [
    ("assign.positives", "assign.match_two_step", "count", "higher"),
    ("loss.cls_anchors", "loss.multitask_loss", "count", "lower"),
    ("loss.mined_negatives", "loss.multitask_loss", "count", "lower"),
    ("layers.conv2d.macs", CONV, "MAC", "lower"),
    ("layers.conv2d.im2col_bytes", CONV, "bytes", "lower"),
    ("decode.gated", "decode.decode_improved", "count", "lower"),
    ("decode.nms_kept", "decode.nms_rows", "count", "lower"),
    ("decode.reported", "decode.decode_improved", "count", "higher"),
    ("evalkit.detections_ranked", "evalkit.evaluate_ap", "count", "lower"),
    ("evalkit.iou_calls", "evalkit.pairwise_iou", "count", "lower"),
]

_OTHER = [
    # metric, unit, better, spans it depends on
    ("geometry.pairwise_iou.calls", "count", "lower", ("geometry.pairwise_iou",)),
    ("decode.gated_share", "ratio", "lower", ("decode.decode_improved",)),
    ("decode.reported_per_gated", "ratio", "higher", ("decode.decode_improved",)),
    (f"{CONV}.ms", "ms", "lower", (CONV,)),
    (f"{CONV_BACK}.ms", "ms", "lower", (CONV_BACK,)),
    ("trainer.train_loss", "loss", "lower", ()),
    ("trace.overhead_ms", "ms", "lower", ()),
    ("trace.not_traced", "count", "lower", ()),
]


def metric_specs(forward_convs: list[str], backward_convs: list[str]) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(m, "ms", "lower") for m, *_ in _TIMES]
    specs += [(m, unit, better) for m, _, unit, better in _COUNTS]
    specs += [(m, unit, better) for m, unit, better, _ in _OTHER]
    specs += [(f"{CONV}.ms.{c}", "ms", "lower") for c in forward_convs]
    specs += [(f"{CONV_BACK}.ms.{c}", "ms", "lower") for c in backward_convs]
    return specs


def install(tracer: Tracer, ak: SimpleNamespace, nets) -> None:
    """Wrap every traced anchorkit entry point; undo with ``tracer.restore()``.

    ``ak`` holds the modules ``trainer``, ``loss``, ``assign``, ``network``,
    ``pipeline``, ``decode`` and ``evalkit``. Convolutions are named by
    matching the identity of their weight array against ``net.params``.
    """
    weight_names = {id(v): k[:-2] for net in nets for k, v in net.params.items() if k.endswith(".w")}

    def conv_span(*args, **kwargs):
        w = args[1] if len(args) > 1 else kwargs.get("w")
        return f"{CONV}[{weight_names.get(id(w), 'other')}]"

    def conv_back_span(*args, **kwargs):
        try:
            w = args[1][1]  # the cache conv2d returned holds the weights second
        except (TypeError, IndexError):
            w = None
        return f"{CONV_BACK}[{weight_names.get(id(w), 'other')}]"

    def conv_counts(result, args):
        out = result[0] if isinstance(result, tuple) else result
        w = args[1]
        per_output = math.prod(w.shape[1:])
        return {
            "layers.conv2d.macs": out.size * per_output,
            "layers.conv2d.im2col_bytes": out.size // w.shape[0] * per_output * out.itemsize,
        }

    def traced_backward(result, args, kwargs):
        if isinstance(result, tuple):
            raw, backward = result
            return raw, tracer.wrap(backward, "network.backward")
        return result

    def count(label, counts):
        """An ``after`` hook adding ``counts(result, args)`` to the tracer's counters."""

        def after(result, args, kwargs):
            try:
                for name, n in counts(result, args).items():
                    tracer.count(name, n)
            except (AttributeError, TypeError, IndexError, KeyError):
                tracer.missing.add(label)
            return result

        return after

    patch = tracer.patch
    patch(ak.trainer, "train", "trainer.train")
    patch(ak.trainer, "augment", "data.augment")
    patch(ak.trainer, "match_two_step", "assign.match_two_step",
          count("assign.match_two_step", lambda r, a: {"assign.positives": r.n_positive}))
    patch(ak.trainer, "encode_targets", "assign.encode_targets")
    patch(ak.trainer, "generate_anchors", "geometry.generate_anchors")
    patch(ak.trainer, "forward_detect", "network.forward", traced_backward)
    patch(ak.trainer, "multitask_loss", "loss.multitask_loss",
          count("loss.multitask_loss", lambda r, a: {
              "loss.cls_anchors": r.n_cls, "loss.mined_negatives": r.selected_negatives.size}))
    patch(ak.trainer, "sgd_step", "trainer.sgd_step")
    patch(ak.loss, "ohem_select", "loss.ohem_select")
    patch(ak.assign, "pairwise_iou", "geometry.pairwise_iou")
    patch(ak.network, "conv2d", conv_span, count(CONV, conv_counts), label=CONV)
    patch(ak.network, "conv2d_backward", conv_back_span, label=CONV_BACK)
    patch(ak.network, "fuse", "layers.fuse")
    patch(ak.pipeline, "validation_ap", "pipeline.validation_ap")
    patch(ak.pipeline, "detect_images", "pipeline.detect_images")
    patch(ak.pipeline, "generate_anchors", "geometry.generate_anchors")
    patch(ak.pipeline, "forward_detect", "network.forward")
    patch(ak.pipeline, "decode_improved", "decode.decode_improved",
          count("decode.decode_improved", lambda r, a: {
              "decode.gated": r.decode_ops, "decode.reported": len(r.detections), "decode.anchors": len(a[1])}))
    patch(ak.pipeline, "evaluate_ap", "evalkit.evaluate_ap",
          count("evalkit.evaluate_ap", lambda r, a: {
              "evalkit.detections_ranked": sum(len(v) for v in a[0].values())}))
    patch(ak.decode, "face_scores", "decode.face_scores")
    patch(ak.decode, "decode_rows", "decode.decode_rows")
    patch(ak.decode, "nms_rows", "decode.nms_rows",
          count("decode.nms_rows", lambda r, a: {"decode.nms_kept": len(r)}))
    patch(ak.evalkit, "pairwise_iou", "geometry.pairwise_iou",
          count("evalkit.pairwise_iou", lambda r, a: {"evalkit.iou_calls": 1}), label="evalkit.pairwise_iou")
    if "network.forward" in tracer.missing:
        tracer.missing.add("network.backward")


def per_layer_metrics(
    tracer: Tracer,
    items: int,
    forward_convs: list[str],
    backward_convs: list[str],
    extra: dict[str, float],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer values per item, and the metrics marked "not traced" (reported as 0).

    ``extra`` supplies ``trainer.train_loss`` and ``trace.overhead_ms``,
    which come from the workload rather than from spans.
    """
    table = summarize(tracer.spans())
    counts = tracer.counts
    missing = tracer.missing
    per = max(items, 1)
    values: dict[str, float] = {}
    untraced: list[str] = []

    def ns_ms(name: str, column: str) -> float:
        return table.get(name, {}).get(column, 0) / 1e6 / per

    def family_ms(prefix: str) -> float:
        return sum(r["total_ns"] for n, r in table.items() if n.startswith(prefix + "[")) / 1e6 / per

    for metric, span, column, depends in _TIMES:
        values[metric] = ns_ms(span, column)
        if span in missing or missing.intersection(depends):
            untraced.append(metric)
    for metric, label, _, _ in _COUNTS:
        values[metric] = counts.get(metric, 0) / per
        if label in missing:
            untraced.append(metric)

    gated = counts.get("decode.gated", 0)
    values["geometry.pairwise_iou.calls"] = table.get("geometry.pairwise_iou", {}).get("calls", 0) / per
    values["decode.gated_share"] = gated / counts["decode.anchors"] if counts.get("decode.anchors") else 0.0
    values["decode.reported_per_gated"] = counts.get("decode.reported", 0) / gated if gated else 0.0
    values[f"{CONV}.ms"] = family_ms(CONV)
    values[f"{CONV_BACK}.ms"] = family_ms(CONV_BACK)
    values["trainer.train_loss"] = extra.get("train_loss", 0.0)
    values["trace.overhead_ms"] = extra.get("overhead_ms", 0.0)
    for metric, _, _, depends in _OTHER:
        if missing.intersection(depends):
            untraced.append(metric)
    for conv in forward_convs:
        values[f"{CONV}.ms.{conv}"] = ns_ms(f"{CONV}[{conv}]", "total_ns")
        if CONV in missing:
            untraced.append(f"{CONV}.ms.{conv}")
    for conv in backward_convs:
        values[f"{CONV_BACK}.ms.{conv}"] = ns_ms(f"{CONV_BACK}[{conv}]", "total_ns")
        if CONV_BACK in missing:
            untraced.append(f"{CONV_BACK}.ms.{conv}")
    for metric in untraced:
        values[metric] = 0.0
    values["trace.not_traced"] = float(len(untraced))
    return values, untraced
