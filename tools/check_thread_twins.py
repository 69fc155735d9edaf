#!/usr/bin/env python3
"""Check that a BENCH_*.json sweep is the same execution at every thread count.

Usage:
    tools/check_thread_twins.py BENCH_scale.json

The engine's event sequencing knows nothing of lanes, so a run with
threads = P must replay its threads = 1 twin: the run of the same cell
(bench_diff.cell_key with threads set to 1) and seed. For every run with
threads > 1 this compares the deterministic fields below against that
twin; wall-clock fields are ignored. A field absent on both sides is
equal; absent on one side only is a mismatch. Exit status 1 on any
mismatch, on a threads > 1 run without a twin or on two runs of the same
cell and seed, 2 on a record missing a key of the cell identity, 0
otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_diff  # noqa: E402  (cell identity shared with the gate)

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


def run_key(run, threads=None):
    """The run's cell identity plus its seed; `threads` overrides the
    run's own lane count (1 gives the key of its threads = 1 twin)."""
    if threads is not None:
        run = dict(run, threads=threads)
    return bench_diff.cell_key(run) + (run["seed"],)


def check(runs):
    """Returns the mismatch descriptions (empty when all agree) and the
    number of threads > 1 runs checked."""
    problems = []
    seen = set()
    twins = {}
    for run in runs:
        key = run_key(run)
        if key in seen:
            problems.append("%s: two runs of this cell and seed"
                            % bench_diff.fmt_key(key))
        seen.add(key)
        if run["threads"] == 1:
            twins[key] = run
    checked = 0
    for run in runs:
        if run["threads"] == 1:
            continue
        label = bench_diff.fmt_key(run_key(run))
        twin = twins.get(run_key(run, threads=1))
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
