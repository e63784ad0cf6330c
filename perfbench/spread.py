"""Run the untraced benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload detect_640_dense --seeds 0-9 [--out FILE]

Runs are sequential, one process at a time. For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median, the figure the bounds in
``BENCHMARK.json`` are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, spec in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {"unit": spec["unit"], "median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if len(values) > 1 and q2 else None}
        print(f"{name}: median {q2:.6g} {spec['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, spread {summary[name]['spread']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
