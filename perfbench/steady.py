"""Steadiness check: repeat each workload over several seeds and summarize.

    python3 perfbench/steady.py --runs 10 [--workloads grid-analyze,mc-wheels]
        [--first-seed 1] [--seconds 20]

Runs perfbench/run.py once per seed and workload (one after another, never
in parallel), then prints for every end-to-end metric its median, first and
third quartile (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the bound from BENCHMARK.json, plus the share of
failed ops in every run.  The last line is the same summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                          proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        shares = [r["failed"] / r["attempted"] for r in results]
        print("%s: %d runs, correct %s, failed share per run %s"
              % (workload, len(results), all(r["correct"] for r in results),
                 sorted(set(round(s, 6) for s in shares))))
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%  "
                  "bound %4.0f%%%s" % (name, med, q1, q3, 100 * spread, 100 * bound,
                                       "" if name == "setup_s" or spread <= bound / 3
                                       else "  <- above a third of the bound"))
        summary[workload] = {"failed_shares": shares, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
