#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`). A spread is flagged when it is not
below a third of the metric's bound, and fails the check when it is over
the bound (`setup_s` is exempt from the latter).

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 101-110 [--workloads a,b] [--trace]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--trace", action="store_true", help="print the per-layer runs instead")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect result {result}", file=sys.stderr)
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics), flush=True)
        for m in metrics:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- not below bound/3"
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag = "  <-- over the bound"
                ok = False
            print(f"  {name:22s} {m['name']:28s} median {med:.6g} {m['unit']:6s}"
                  f" spread {spread:.4f}" + (f" (bound {bound})" if bound else "") + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
