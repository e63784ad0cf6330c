"""Desk-scale single-stage face detection pipeline.

Anchor geometry, two-step anchor assignment, a multi-task loss with
online hard negative mining, a from-scratch convolutional detector with
feature fusion and split detection heads, threshold-first decoding with
NMS, and a detection evaluation kit — all CPU-only and deterministic.
"""

__version__ = "0.1.0"

from .geometry import (
    AnchorConfig,
    AnchorGrid,
    Box,
    LayerSpec,
    RFInfo,
    generate_anchors,
    receptive_field,
)
from .assign import (
    Assignment,
    MatchConfig,
    encode_targets,
    match_baseline,
    match_two_step,
)
from .loss import LossOutput, multitask_loss, ohem_select, smooth_l1
from .network import (
    NetConfig,
    Network,
    RawOutput,
    StageSpec,
    build_network,
    detection_head,
    forward_detect,
    load_weights,
    save_weights,
)
from .decode import (
    BenchReport,
    DecodeConfig,
    DecodeResult,
    Detection,
    bench_decode,
    decode_baseline,
    decode_improved,
)
from .evalkit import (
    GroundTruthSet,
    PRCurve,
    average_precision,
    count_false_positives,
    evaluate_ap,
    match_detections,
    pr_curve,
)
from .data import (
    AnnotationRecord,
    AugConfig,
    FaceAnnotation,
    SynthConfig,
    augment,
    load_ppm,
    parse_widerface_annotations,
    save_pgm,
    serialize_widerface_annotations,
    synth_dataset,
)
from .trainer import TrainConfig, TrainReport, TrainingDiverged, train

__all__ = [
    "AnchorConfig",
    "AnchorGrid",
    "AnnotationRecord",
    "Assignment",
    "AugConfig",
    "BenchReport",
    "Box",
    "DecodeConfig",
    "DecodeResult",
    "Detection",
    "FaceAnnotation",
    "GroundTruthSet",
    "LayerSpec",
    "LossOutput",
    "MatchConfig",
    "NetConfig",
    "Network",
    "PRCurve",
    "RFInfo",
    "RawOutput",
    "StageSpec",
    "SynthConfig",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "augment",
    "average_precision",
    "bench_decode",
    "build_network",
    "count_false_positives",
    "decode_baseline",
    "decode_improved",
    "detection_head",
    "encode_targets",
    "evaluate_ap",
    "forward_detect",
    "generate_anchors",
    "load_ppm",
    "load_weights",
    "match_baseline",
    "match_detections",
    "match_two_step",
    "multitask_loss",
    "ohem_select",
    "parse_widerface_annotations",
    "pr_curve",
    "receptive_field",
    "save_pgm",
    "save_weights",
    "serialize_widerface_annotations",
    "smooth_l1",
    "synth_dataset",
    "train",
]
