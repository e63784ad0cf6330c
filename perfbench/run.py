"""anchorkit benchmark: four closed-loop workloads, end-to-end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``images_per_s``,
``image_ms_p50``); with ``--trace 1`` operations alternate between
untraced ones and ones with wrappers on anchorkit's public functions,
and the metrics are the per-layer ones (see ``probes.py``). The lines before
it give every metric by name and unit, the environment and the checks.
The traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads, so every run uses the same, recorded BLAS
# thread count and runs on different machines or days can be compared.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import probes, stats, tracing  # noqa: E402  (none of them loads numpy)

SETUP_REPEATS = 3  # cold set-ups per run: this process and two fresh ones made with --setup-only
OUT_DIR = ROOT / "perfbench" / "out"


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print the seconds from process start and exit")
    return ap.parse_args(argv)


def load_program():
    """Import anchorkit from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "anchorkit" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"error: no anchorkit source checkout at {ROOT} (need src/anchorkit and tests/oracles.py)")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import anchorkit

    if Path(anchorkit.__file__).resolve().parent != src / "anchorkit":
        sys.exit(f"error: imported anchorkit from {anchorkit.__file__}, not from {src}")
    from anchorkit import assign, decode, evalkit, loss, network, pipeline, trainer

    return SimpleNamespace(assign=assign, decode=decode, evalkit=evalkit, loss=loss,
                           network=network, pipeline=pipeline, trainer=trainer)


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads_effective": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass
class Op:
    index: int
    seconds: float
    items: int
    result: object
    error: str | None
    traced: bool


def run_ops(wl, seconds: float, tracer=None, install=None) -> list[Op]:
    """Closed loop: operations back to back until ``seconds`` have passed.

    Without ``tracer`` at least one operation runs. With it, operations
    alternate untraced and traced, starting untraced, and at least one of
    each runs: ``install()`` puts the wrappers on before each traced
    operation and ``tracer.restore()`` takes them off after it.
    """
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    least = 1 if tracer is None else 2
    i = 0
    while len(ops) < least or time.perf_counter() < deadline:
        wl.prepare(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            install()
        t0 = time.perf_counter()
        try:
            result, error = wl.call(i), None
        except Exception as exc:  # an operation that raises counts as failed; the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.restore()
        ops.append(Op(i, elapsed, wl.items, result, error, traced))
        i += 1
    return ops


def per_item_ms(ops: list[Op]) -> list[float]:
    return [1e3 * op.seconds / op.items for op in ops]


def end_to_end(ops: list[Op], setups: list[float]) -> dict:
    ms = per_item_ms(ops)
    items = sum(op.items for op in ops)
    busy = sum(op.seconds for op in ops)
    setup_s = statistics.median(setups)
    p50 = statistics.median(ms)
    tail = stats.tail_percentile(len(ms))
    if tail:
        tail_ms = statistics.quantiles(ms, n=1000, method="inclusive")[round(tail * 10) - 1]
        tail_text = f"p{tail:g} = {tail_ms:.4f} ms"
    else:
        tail_text = f"no percentile has {stats.MIN_BEYOND} samples beyond it"
    print(f"setup_s = {setup_s:.4f} s (median of {len(setups)} cold set-ups, process start to first "
          f"operation: {', '.join(f'{s:.3f}' for s in setups)} s)")
    print(f"images_per_s = {items / busy:.4f} images/s ({items} images in {busy:.2f} s of operations)")
    print(f"image_ms_p50 = {p50:.4f} ms (n={len(ms)} operations, min {min(ms):.4f}, max {max(ms):.4f}; {tail_text})")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "images_per_s": {"value": items / busy, "unit": "images/s"},
        "image_ms_p50": {"value": p50, "unit": "ms"},
    }


def child_setups(args, n: int) -> list[float]:
    """Set-up seconds of ``n`` fresh processes, one after another, each timed from its own start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return [float(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                                 check=True).stdout.split()[-1]) for _ in range(n)]


def per_layer(wl, tracer, ops: list[Op], quality: dict, header: dict) -> tuple[dict, bool]:
    """Per-layer metrics of the traced operations; False when spans do not nest."""
    from perfbench import workloads

    spans = tracer.spans()
    violations = tracing.nesting_violations(spans)
    for v in violations:
        print(f"NESTING {v}")
    ok = [op for op in ops if op.error is None and op.traced]
    plain = [op for op in ops if op.error is None and not op.traced]
    extra = dict(quality)
    if ok and plain:
        extra["overhead_ms"] = statistics.median(per_item_ms(ok)) - statistics.median(per_item_ms(plain))
    fwd, back = workloads.conv_layers()
    values, untraced = probes.per_layer_metrics(tracer, sum(op.items for op in ok), fwd, back, extra)
    units = {name: unit for name, unit, _ in probes.metric_specs(fwd, back)}
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}" + ("  (not traced)" if name in untraced else ""))
    table = tracing.summarize(spans)
    by_self = sorted(table, key=lambda n: -table[n]["self_ns"])
    print("largest self times: " + ", ".join(f"{n} {table[n]['self_ns'] / 1e6:.1f} ms" for n in by_self[:8]))
    for text, holds in wl.chosen_for(values, by_self[0] if by_self else None).items():
        print(f"property {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"trace_{header['workload']}_{header['seed']}.json"
    with out.open("w") as fh:
        json.dump({**header, "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in spans],
                   "summary": table, "metrics": values, "not_traced": untraced}, fh)
    print(f"spans written to {out.relative_to(ROOT)} ({len(spans)} spans)")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, not violations


def main(argv=None) -> int:
    modules = load_program()
    from perfbench import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = workloads.build(args.workload, args.seed)
    gc.collect()
    setup = time.perf_counter() - T0
    if args.setup_only:
        print(setup)
        return 0
    setups = [setup] + child_setups(args, SETUP_REPEATS - 1)
    env = environment()

    if args.trace:
        tracer = tracing.Tracer()
        ops = run_ops(wl, args.seconds, tracer, lambda: probes.install(tracer, modules, wl.nets))
    else:
        ops = run_ops(wl, args.seconds)

    # output checks, outside the timed region
    results = {op.index: op.result for op in ops if op.error is None}
    try:
        mismatches = wl.check(results, args.seed)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        mismatches = {i: f"check raised {type(exc).__name__}: {exc}" for i in results}
    errors = {op.index: op.error for op in ops if op.error is not None}
    errors.update(mismatches)
    quality = wl.quality(results)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, msg in sorted(errors.items()):
        print(f"FAILED operation {i}: {msg}")
    print(f"failed_share = {len(errors) / len(ops):.6g} ({len(errors)} of {len(ops)} operations)")
    for name, value in quality.items():
        print(f"{name} = {value:.9g}")
    correct = not errors
    if args.trace:
        header = {"env": env, "workload": args.workload, "seed": args.seed}
        metrics, nested = per_layer(wl, tracer, ops, quality, header)
        correct = correct and nested
    else:
        metrics = end_to_end(ops, setups)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
