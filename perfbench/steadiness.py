"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1] [--workloads a,b] [--out FILE]

Runs ``run.py`` once per (workload, seed), one process at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound.  ``--out`` writes the
same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: failed run\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
            print(f"{workload:24s} {name:12s} median {med:12.6g}  spread {spread:.4f}  bound {bounds[name]}{flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
