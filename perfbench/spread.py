#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py [--workloads fleet-1k,block-race] \
        [--seeds 10] [--first-seed 1]

Runs BENCHMARK.json's command once per seed and workload (untraced), then
prints for every end-to-end metric the median, the quartiles (Python's
statistics.quantiles, n=4) and the inter-quartile distance as a share of the
median, next to the metric's bound. Exits nonzero if any run failed or any
spread other than setup_s's exceeds its bound. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {done.returncode})\n{done.stdout}{done.stderr}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            within = spread <= metric["bound"] or metric["name"] == "setup_s"
            ok &= within
            flag = "" if within else "  EXCEEDED"
            print(f"  {workload:13s} {metric['name']:12s} median {med:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:6.3f} "
                  f"bound {metric['bound']:.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
