#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) with
BENCHMARK.json's run_seconds and --trace 0, then prints, for each metric, the
median, the interquartile distance as a share of the median, and that
spread's ratio to the metric's bound (a steady benchmark keeps it below
one third). setup_s is printed but has no spread requirement.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import quantiles

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds",
            str(config["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect output\n%s" % (seed, done.stderr))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, values[n][-1]) for n in bounds)), flush=True)
    for name, bound in bounds.items():
        spread = quantiles.spread(values[name])
        print("%-16s median %-12.6g spread %.4f  bound %.2f  spread/bound %.2f"
              % (name, statistics.median(values[name]), spread, bound,
                 spread / bound))


if __name__ == "__main__":
    main(sys.argv[1:])
