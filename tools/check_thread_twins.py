#!/usr/bin/env python3
"""Check that a BENCH_*.json sweep is the same execution at every thread count.

Usage:
    tools/check_thread_twins.py BENCH_scale.json

The engine's event sequencing knows nothing of lanes, so a run with
threads = P must replay the threads = 1 run with the same n and seed. For
every run with threads > 1 this compares the deterministic fields below
against its threads = 1 twin; wall-clock fields are ignored. A field
absent on both sides is equal; absent on one side only is a mismatch.
Exit status 1 on any mismatch or on a threads > 1 run without a twin,
0 otherwise.
"""

import json
import sys

FIELDS = (
    "grants",
    "requests",
    "events_executed",
    "stabilization_time",
    "grant_latency_p50",
    "grant_latency_p99",
    "grant_latency_p999",
    "control_messages",
    "resource_messages",
    "pusher_messages",
    "priority_messages",
)


def compared_fields(run):
    """FIELDS plus every deterministic recovery_* field of `run`."""
    recovery = sorted(
        key
        for key in run
        if key.startswith("recovery_") and key != "recovery_wall_seconds"
    )
    return FIELDS + tuple(recovery)


def check(runs):
    """Returns the list of mismatch descriptions (empty when all agree)."""
    twins = {}
    for run in runs:
        if run.get("threads", 1) == 1:
            twins[(run["n"], run["seed"])] = run
    problems = []
    checked = 0
    for run in runs:
        threads = run.get("threads", 1)
        if threads == 1:
            continue
        key = (run["n"], run["seed"])
        twin = twins.get(key)
        label = "n=%d seed=%d threads=%d" % (key[0], key[1], threads)
        if twin is None:
            problems.append("%s: no threads=1 twin" % label)
            continue
        checked += 1
        fields = set(compared_fields(run)) | set(compared_fields(twin))
        for field in sorted(fields):
            if run.get(field) != twin.get(field):
                problems.append(
                    "%s: %s = %r, threads=1 has %r"
                    % (label, field, run.get(field), twin.get(field))
                )
    return problems, checked


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        runs = json.load(handle)["runs"]
    problems, checked = check(runs)
    for problem in problems:
        print("MISMATCH " + problem)
    print(
        "%d threads > 1 runs checked against their threads = 1 twins, "
        "%d mismatches" % (checked, len(problems))
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
