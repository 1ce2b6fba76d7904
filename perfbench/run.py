#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <gossip_steady|query_open_loop|udp_loopback> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the current directory and is reused by later runs; traced runs write
their spans to $CARGO_TARGET_DIR/perfbench-trace beside it. The harness's
stdout is passed through; its last line is the JSON result, which is checked
against BENCHMARK.json (every declared metric, with its unit) before it is
printed. Any build or run failure exits nonzero without a result line.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    spec_path = pathlib.Path("BENCHMARK.json")
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        if got != want:
            fail(f"metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                 f"units {sorted(k for k in want if k in got and got[k] != want[k])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root / "perfbench")
    # The harness takes its whole configuration from the arguments; no
    # ARES_* knob from the environment reaches the library.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARES_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(build_root / "perfbench-trace")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=RUN_TIMEOUT_S, text=True, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"harness exited with code {done.returncode} and no result")
    check_result(lines[-1], args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
