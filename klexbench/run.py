#!/usr/bin/env python3
"""The repository benchmark: builds klexbench from source and runs one workload.

Run from the root of a checkout:

    python3 klexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; build output goes to stderr. stdout is the benchmark's report,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1. A traced run also writes
its phase spans to <build dir>/traces/<workload>-<seed>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "klexbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: klexbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 3

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"unexpected {sorted(set(got) - set(want))}, "
              f"unit mismatches "
              f"{sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}",
              file=sys.stderr)
        return 4
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
