#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs the benchmark command from BENCHMARK.json on each workload, once per
seed, and prints for every end-to-end metric its median, first and third
quartiles (statistics.quantiles(values, n=4)), and the quartile spread as a
share of the median next to the metric's bound.

The checks are the benchmark's acceptance rule:

- SPREAD: a metric's quartile spread is larger than its bound. setup_s is
  not held to this: the acceptance rule compares set-up time between sets
  by median only (below), so a setup that other tenants' load slows in a
  few runs does not fail it, while work moved into setup still shows.
- WORSE (with --against): a median got worse than the saved set's median
  by more than the bound. This applies to every metric, setup_s too.

A spread at or above a third of its bound is the steadiness target this
benchmark aims for; it is marked "above target" but does not fail the
check. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--seed-base 1000]
        [--save FILE] [--against FILE]

--save writes the collected values as JSON; --against compares this set's
medians with a saved set. Exits nonzero when a run fails or a SPREAD or
WORSE check is flagged.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    previous = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}

    collected = {}
    flagged = 0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            got = run_once(spec["command"], w, args.seed_base + i, spec["run_seconds"])
            for m in metrics:
                values[m["name"]].append(got[m["name"]])
            print(f"{w} seed {args.seed_base + i}: " +
                  ", ".join(f"{m['name']}={got[m['name']]:.6g}" for m in metrics), flush=True)
        collected[w] = values
        print(f"\n{w}: {args.runs} runs")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            med, q1, q3, s = spread(values[m["name"]])
            notes = []
            if m["name"] != "setup_s" and s > m["bound"]:
                notes.append("SPREAD")
            elif not s < m["bound"] / 3:
                notes.append("above target")
            if w in previous:
                old = statistics.median(previous[w][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                notes.append(f"vs saved {worse:+.3f}")
                if worse > m["bound"]:
                    notes.append("WORSE")
            flagged += sum(n in ("SPREAD", "WORSE") for n in notes)
            print(f"  {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} "
                  f"{m['bound']:>6} {' '.join(notes)}")
        print(flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(collected, indent=1) + "\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
