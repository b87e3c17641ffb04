"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 paperbench/spread.py --workload serve-32 --seeds 1-5 [--trace 0]

For every metric of the final JSON line it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` beside the bound in ``BENCHMARK.json``.  Runs are
sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - start
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
