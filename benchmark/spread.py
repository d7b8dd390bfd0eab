#!/usr/bin/env python3
"""Run one workload under several seeds and print each metric's spread.

    python3 benchmark/spread.py --workload ring-480 --seeds 1-10 [--seconds 15] [--trace 0]

Runs the built benchmark binary from the repository root (build it first
with `cargo build --release --manifest-path benchmark/Cargo.toml`),
once per seed, and prints for every metric the median over the runs and
the distance between the first and third quartile as a share of that
median, as `statistics.quantiles(values, n=4)` gives them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", "benchmark/target")
    binary = os.path.join(target, "release", "swallow-benchmark")
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed\n{out.stdout}{out.stderr}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{k:>40}: median {med:.6g}  spread {(q3 - q1) / med:.4f}")
        else:
            print(f"{k:>40}: median {med:.6g}")


if __name__ == "__main__":
    main()
