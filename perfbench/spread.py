#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
and prints, per metric, the median and the distance between the first
and third quartiles as a share of the median, next to the metric's
bound. Run from the root of the repository:

    python3 perfbench/spread.py --seeds 10 cold_sweep warm_reuse

Exits non-zero when a run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if p.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<36} median {med:14.6f}  spread {spread:7.4f}  bound {bound}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
