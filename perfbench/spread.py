#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric: the median of the per-run values and the distance
between the first and third quartile as a share of that median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
gives it.  Run from the root of a source tree.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, runs = {}, []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = json.loads(lines[-2]).get("meta", {}).get("steal_pct") if len(lines) > 1 else None
        runs.append((seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal_pct={steal} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) < 2:
            print(f"{name:34} {med:14.6f}")
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <- above a third of the bound"
        print(f"{name:34} {med:14.6f} {share:11.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
