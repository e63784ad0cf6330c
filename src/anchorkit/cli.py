"""Command-line surface for reproducible experiments.

Subcommands: anchors, rf, match-demo, grad-check, synth, train, detect,
eval, fp-hist, bench-decode. Every artifact-writing run drops a
``manifest.json`` (command, config snapshot, seed, versions) next to its
outputs; given the same config and seed, all non-timing artifacts are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from io import StringIO
from pathlib import Path

import numpy as np

from .assign import encode_targets, match_baseline, match_two_step
from .charts import bar_chart, line_chart
from .data import (
    annotations_to_ground_truth,
    load_ppm,
    parse_widerface_annotations,
    save_pgm,
    serialize_widerface_annotations,
    synth_dataset,
    AnnotationRecord,
    FaceAnnotation,
)
from .decode import bench_decode, read_detections, write_detections
from .evalkit import count_false_positives, evaluate_ap
from .geometry import AnchorConfig, LayerSpec, generate_anchors, receptive_field
from .gradcheck import TOLERANCE, run_all
from .network import build_network, load_weights, save_weights, tap_conv_stacks, Network
from .pipeline import VAL_SEED_OFFSET, detect_images, synth_pairs, validation_ap
from .runconfig import ConfigError, RunConfig, write_manifest
from .trainer import StepStats, TrainingDiverged, train

__all__ = ["run", "main"]


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise ConfigError(f"expected WxH (e.g. 640x640), got {text!r}") from e


def _require_counts(args: argparse.Namespace, *flags: str) -> None:
    """Raise ConfigError naming the first of ``flags`` whose count is below 1."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    rc = RunConfig()
    if getattr(args, "config", None):
        rc.load_file(Path(args.config))
    rc.apply_overrides(getattr(args, "set", None) or [])
    return rc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable; wins over --config)",
    )
    p.add_argument("--seed", type=int, default=0)


def cmd_anchors(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.strides or args.sizes:
        if not (args.strides and args.sizes):
            raise ConfigError("--strides and --sizes must be given together")
        strides = [int(v) for v in args.strides.split(",")]
        sizes = [int(v) for v in args.sizes.split(",")]
        layers = tuple(zip(strides, sizes))
    else:
        layers = AnchorConfig().layers  # stock 6-layer scheme
    w, h = _parse_size(args.image)
    cfg = AnchorConfig(layers=layers, image_w=w, image_h=h)
    grid = generate_anchors(cfg)
    print(f"anchor layout for {w}x{h}:")
    for layout in grid.layers:
        print(
            f"  stride {layout.stride:>4}  size {layout.size:>4}  "
            f"{layout.rows:>4} x {layout.cols:<4} = {layout.count}"
        )
    print(f"total anchors: {len(grid)}")
    if (w, h) == (640, 640) and layers == AnchorConfig().layers:
        print(
            "note: a commonly quoted output-tensor size for this 640x640 "
            "scheme is 37,500; the stride/size table above derives exactly "
            f"{len(grid):,}."
        )
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            grid.to_csv(fh)
        rc = RunConfig()
        rc.set("anchor.strides", ",".join(str(s) for s in cfg.strides))
        rc.set("anchor.sizes", ",".join(str(z) for z in cfg.sizes))
        rc.set("anchor.image_w", str(w))
        rc.set("anchor.image_h", str(h))
        write_manifest(path.parent, "anchors", rc, args.seed)
        print(f"wrote {path}")
    print(f"elapsed: {time.perf_counter() - start:.3f}s")
    return 0


def cmd_rf(args: argparse.Namespace) -> int:
    if args.stack:
        stack = []
        for token in args.stack.split(","):
            token = token.strip().lower()
            if "s" not in token:
                raise ConfigError(f"bad layer {token!r}: expected '<kernel>s<stride>'")
            k, s = token.split("s", 1)
            stack.append(LayerSpec(kernel=int(k), stride=int(s)))
        info = receptive_field(stack)
        print(f"{'layer':<16}{'kernel':>7}{'stride':>7}{'rf':>6}{'jump':>6}")
        for name, k, s, rf, jump in info.trace:
            print(f"{name:<16}{k:>7}{s:>7}{rf:>6}{jump:>6}")
        return 0
    rc = _load_run_config(args)
    net_cfg = rc.build("net")
    stacks = tap_conv_stacks(net_cfg)
    infos = [receptive_field(stack) for stack in stacks]
    for ti, info in enumerate(infos):
        stride = net_cfg.anchors.strides[ti]
        print(f"tap {ti} (stride {stride}): rf {info.rf_size}, jump {info.jump}")
    proj_rf = [
        next(rf for name, _, _, rf, _ in info.trace if name == f"proj{ti}")
        for ti, info in enumerate(infos)
    ]
    for ti in range(len(infos) - 1):
        ratio = infos[ti + 1].rf_size / infos[ti].rf_size
        line = f"tap {ti + 1} rf / tap {ti} rf = {ratio:.2f}"
        if net_cfg.fusion:
            # The fused map holds the successor's projection; this tap's
            # head convs then widen it at this tap's own jump.
            fused = proj_rf[ti + 1] + infos[ti].rf_size - proj_rf[ti]
            line += f"; fusion lifts tap {ti}'s effective rf to {fused}"
        print(line)
    return 0


def cmd_match_demo(args: argparse.Namespace) -> int:
    rc = _load_run_config(args)
    images, gts = synth_dataset(rc.build("synth"), 1, args.seed)
    boxes = gts.boxes["000000.pgm"]
    grid = generate_anchors(rc.build("anchor"))
    match_cfg = rc.build("match")
    base = match_baseline(grid, boxes, match_cfg.step1_iou)
    two = match_two_step(grid, boxes, match_cfg)
    print(f"scene: {len(boxes)} ground truths, {len(grid)} anchors")
    for g, box in enumerate(boxes):
        nb, nt = base.matched[g].size, two.matched[g].size
        print(
            f"  gt {g} ({box.width:.0f}x{box.height:.0f}): "
            f"baseline {nb} anchors, two-step {nt} anchors (+{nt - nb})"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "assignment_baseline.csv").open("w") as fh:
            base.to_csv(fh)
        with (out / "assignment_two_step.csv").open("w") as fh:
            two.to_csv(fh)
        write_manifest(out, "match-demo", rc, args.seed)
        print(f"wrote {out}/assignment_*.csv")
    return 0


def cmd_grad_check(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed, instances=args.instances)
    worst = 0.0
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name:<16} max rel err {err:.3e}  [{status}]")
        worst = max(worst, err)
    print(f"worst: {worst:.3e} (tolerance {TOLERANCE:g})")
    return 0 if worst < TOLERANCE else 1


def cmd_synth(args: argparse.Namespace) -> int:
    _require_counts(args, "--n")
    rc = _load_run_config(args)
    images, gts = synth_dataset(rc.build("synth"), args.n, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i, img in enumerate(images):
        key = f"{i:06d}.pgm"
        (out / key).write_bytes(save_pgm(img))
        faces = [
            FaceAnnotation(
                x=int(round(b.x1)), y=int(round(b.y1)),
                w=int(round(b.width)), h=int(round(b.height)),
            )
            for b in gts.boxes[key]
        ]
        records.append(AnnotationRecord(image_path=key, faces=faces))
    (out / "annotations.txt").write_text(serialize_widerface_annotations(records))
    write_manifest(out, "synth", rc, args.seed)
    print(f"wrote {len(images)} images + annotations.txt to {out}")
    return 0


def _load_image_dir(directory: Path) -> dict[str, np.ndarray]:
    files = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
    )
    if not files:
        raise ConfigError(f"no .pgm/.ppm images in {directory}")
    return {p.name: load_ppm(p.read_bytes()) for p in files}


def cmd_train(args: argparse.Namespace) -> int:
    _require_counts(args, "--train-n", "--val-n")
    rc = _load_run_config(args)
    if args.epochs is not None:
        rc.set("train.epochs", str(args.epochs))
    tc = rc.build("train", seed=args.seed)
    match_cfg, aug_cfg = rc.build("match"), rc.build("aug")
    net = build_network(rc.build("net"), seed=args.seed)
    if args.data:
        data_dir = Path(args.data)
        images = _load_image_dir(data_dir)
        records = parse_widerface_annotations(
            (data_dir / "annotations.txt").read_text()
        )
        truth = annotations_to_ground_truth(records)
        pairs = [
            (images[rec.image_path],
             [b for b, ig in zip(truth.boxes[rec.image_path], truth.ignore[rec.image_path]) if not ig])
            for rec in records
        ]
    else:
        pairs, _ = synth_pairs(rc.build("synth"), args.train_n, args.seed)

    callback = None
    if args.target_ap is not None:
        val_images, val_gts = synth_dataset(
            rc.build("synth"), args.val_n, args.seed + VAL_SEED_OFFSET
        )
        val_keyed = {f"{i:06d}.pgm": img for i, img in enumerate(val_images)}
        decode_cfg = rc.build("decode")

        def callback(epoch: int, net_: Network, stats) -> bool:
            ap = validation_ap(net_, val_keyed, val_gts, decode_cfg)
            print(f"epoch {epoch}: loss {stats.mean_total:.4f}, val AP {ap:.4f}")
            return ap >= args.target_ap

    step_log: list[StepStats] | None = [] if args.log_steps else None
    report = train(net, pairs, tc, match_cfg, aug_cfg, step_log=step_log, epoch_callback=callback)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "weights.bin").open("wb") as fh:
        save_weights(net.params, fh)
    with (out / "train_report.csv").open("w") as fh:
        report.to_csv(fh)
    if step_log is not None:
        with (out / "steps.csv").open("w") as fh:
            fh.write("step,total,cls,reg,n_pos,n_neg_selected\n")
            for s in step_log:
                fh.write(
                    f"{s.step},{s.total:.9g},{s.cls_term:.9g},{s.reg_term:.9g},"
                    f"{s.n_pos},{s.n_neg_selected}\n"
                )
    (out / "config.cfg").write_text(rc.to_text())
    write_manifest(out, "train", rc, args.seed)
    last = report.epochs[-1]
    print(
        f"trained {len(report.epochs)} epochs "
        f"(final loss {last.mean_total:.4f}); wrote {out}"
    )
    return 0


def _check_weights(params: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> None:
    """Raise ValueError naming the first tensor that does not fit the configured net."""
    for name, want in expected.items():
        if name not in params:
            raise ValueError(f"weights file has no tensor {name!r}, which the configured net needs")
        if params[name].shape != want.shape:
            raise ValueError(
                f"weights tensor {name!r} has shape {params[name].shape}, "
                f"the configured net expects {want.shape}"
            )
    for name in params:
        if name not in expected:
            raise ValueError(f"weights file has tensor {name!r}, which the configured net lacks")


def cmd_detect(args: argparse.Namespace) -> int:
    _require_counts(args, "--synth-n")
    rc = _load_run_config(args)
    net_cfg = rc.build("net")
    with Path(args.weights).open("rb") as fh:
        params = load_weights(fh)
    _check_weights(params, build_network(net_cfg).params)
    net = Network(config=net_cfg, params=params, seed=args.seed)
    if args.images:
        images = _load_image_dir(Path(args.images))
    else:
        synth_images, _ = synth_dataset(rc.build("synth"), args.synth_n, args.seed)
        images = {f"{i:06d}.pgm": img for i, img in enumerate(synth_images)}
    dets = detect_images(net, images, rc.build("decode"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        write_detections(fh, dets)
    write_manifest(out.parent, "detect", rc, args.seed)
    total = sum(len(v) for v in dets.values())
    print(f"wrote {total} detections over {len(images)} images to {out}")
    return 0


def _load_eval_inputs(args: argparse.Namespace):
    dets = read_detections(Path(args.detections).read_text())
    records = parse_widerface_annotations(Path(args.annotations).read_text())
    return dets, annotations_to_ground_truth(records)


def cmd_eval(args: argparse.Namespace) -> int:
    rc = _load_run_config(args)
    dets, gts = _load_eval_inputs(args)
    ap, curve = evaluate_ap(dets, gts, args.iou)
    print(f"AP@{args.iou:g}: {ap:.6f} over {gts.n_eval()} ground truths")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "pr.csv").open("w") as fh:
            curve.to_csv(fh)
        with (out / "pr.svg").open("w") as fh:
            line_chart(
                fh,
                curve.recalls.tolist(),
                curve.precisions.tolist(),
                f"precision-recall (AP {ap:.3f})",
                "recall",
                "precision",
            )
        write_manifest(out, "eval", rc, args.seed)
        print(f"wrote {out}/pr.csv and pr.svg")
    return 0


def cmd_fp_hist(args: argparse.Namespace) -> int:
    rc = _load_run_config(args)
    dets, gts = _load_eval_inputs(args)
    edges = [float(v) for v in args.bins.split(",")]
    counts = count_false_positives(dets, gts, edges, args.iou)
    for i, count in enumerate(counts):
        print(f"[{edges[i]:g}, {edges[i + 1]:g}): {count} false positives")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "fp_hist.csv").open("w") as fh:
            fh.write("bin_lo,bin_hi,false_positives\n")
            for i, count in enumerate(counts):
                fh.write(f"{edges[i]:.9g},{edges[i + 1]:.9g},{count}\n")
        with (out / "fp_hist.svg").open("w") as fh:
            bar_chart(
                fh, edges, counts.tolist(),
                "false positives by confidence", "score", "count",
            )
        write_manifest(out, "fp-hist", rc, args.seed)
        print(f"wrote {out}/fp_hist.csv and fp_hist.svg")
    return 0


def cmd_bench_decode(args: argparse.Namespace) -> int:
    rc = _load_run_config(args)
    report = bench_decode(
        anchor_count=args.anchors,
        hot_fraction=args.hot,
        repeats=args.repeats,
        seed=args.seed,
        cfg=rc.build("decode"),
    )
    buf = StringIO()
    report.to_csv(buf)
    print(buf.getvalue(), end="")
    print(
        f"speedup: {report.speedup:.2f}x "
        f"({report.improved_ops} vs {report.baseline_ops} offset decodes), "
        f"outputs {'identical' if report.outputs_equal else 'DIVERGED'}"
    )
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(buf.getvalue())
    return 0 if report.outputs_equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorkit",
        description="desk-scale single-stage face detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anchors", help="print per-layer anchor counts")
    p.add_argument("--image", default="640x640", metavar="WxH")
    p.add_argument("--strides", help="comma-separated strides (with --sizes)")
    p.add_argument("--sizes", help="comma-separated anchor sizes")
    p.add_argument("--csv", help="dump the grid as CSV to this path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("rf", help="receptive-field trace")
    p.add_argument("--stack", help="conv stack like '3s1,3s2,3s1'")
    _add_common(p)
    p.set_defaults(func=cmd_rf)

    p = sub.add_parser("match-demo", help="compare matchers on a synthetic scene")
    _add_common(p)
    p.add_argument("--out", help="write assignment CSVs here")
    p.set_defaults(func=cmd_match_demo)

    p = sub.add_parser("grad-check", help="finite-difference gradient validation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the toy detector")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="image dir with annotations.txt (default: synthetic)")
    p.add_argument("--train-n", type=int, default=500, dest="train_n")
    p.add_argument("--val-n", type=int, default=100, dest="val_n")
    p.add_argument("--epochs", type=int, help="override train.epochs")
    p.add_argument("--target-ap", type=float, dest="target_ap",
                   help="evaluate val AP per epoch and stop once reached")
    p.add_argument("--log-steps", action="store_true", dest="log_steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run inference and write detections")
    _add_common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--images", help="dir of .pgm/.ppm images (default: synthetic)")
    p.add_argument("--synth-n", type=int, default=100, dest="synth_n")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="AP / PR curve from detection + annotation files")
    _add_common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", help="write pr.csv/pr.svg here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fp-hist", help="false-positive histogram by confidence")
    _add_common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--bins", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", help="write fp_hist.csv/fp_hist.svg here")
    p.set_defaults(func=cmd_fp_hist)

    p = sub.add_parser("bench-decode", help="time baseline vs threshold-first decode")
    _add_common(p)
    p.add_argument("--anchors", type=int, default=34125)
    p.add_argument("--hot", type=float, default=0.01)
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--out", help="write the CSV report here")
    p.set_defaults(func=cmd_bench_decode)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
