#!/usr/bin/env python3
"""Run one workload of the benchmark k times and print the spread of every
metric: median, first and third quartile (``statistics.quantiles(n=4)``)
and the interquartile range as a share of the median, next to the bound
``BENCHMARK.json`` gives the metric.

    python3 perfbench/spread.py --workload curate_scattered --runs 10
    python3 perfbench/spread.py --workload curate_scattered --runs 10 --fixed-seed 1

By default run i uses seed i + 1. With ``--fixed-seed`` every run uses that
one seed, and the tool also checks that the drain count and WAL byte count
the benchmark reports on stderr repeat exactly. Every run lasts
``run_seconds`` of ``BENCHMARK.json`` and reports the end-to-end metrics.

Run it from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    shape = re.search(r"drains=(\d+) wal_records=(\d+) wal_bytes=(\d+)", proc.stderr)
    return result, shape.groups() if shape else None, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--fixed-seed", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shapes, shares = {}, set(), set()
    for i in range(args.runs):
        seed = args.fixed_seed if args.fixed_seed is not None else i + 1
        result, shape, wall = run_once(bench["command"], args.workload, seed,
                                       bench["run_seconds"])
        if not result["correct"]:
            sys.exit(f"seed {seed}: result not correct")
        shares.add((result["failed"], result["attempted"]))
        shapes.add(shape)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{args.runs} seed={seed} wall={wall:.1f}s "
              f"drains/records/bytes={shape} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, failed/attempted {sorted(shares)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound:>6}{flag}")
    if args.fixed_seed is not None:
        print(f"drain/record/byte counts identical across runs: {len(shapes) == 1}")


if __name__ == "__main__":
    main()
