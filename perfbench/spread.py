#!/usr/bin/env python3
"""Run the benchmark several times and report the run-to-run spread.

    python3 perfbench/spread.py --workload fig9-mux --runs 10 [--seconds 30]

Each run uses another seed (1, 2, ...). For every end-to-end metric it prints
the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound from BENCHMARK.json. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(last)
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {last}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<24} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        bound = bounds.get(name)
        print(f"{name:<24} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '-':>7}")


if __name__ == "__main__":
    main()
