#!/usr/bin/env python3
"""Check that BENCH_*.json runs are the same execution as their twins.

Usage:
    tools/check_thread_twins.py BENCH_scale.json
    tools/check_thread_twins.py --baseline BASELINE_DIR CURRENT_DIR

Thread twins (first form). The engine's event sequencing knows nothing
of lanes, so a run with threads = P must replay its threads = 1 twin: the
run of the same cell (bench_diff.cell_key with threads set to 1) and
seed. For every run with threads > 1 this compares the deterministic
fields below against that twin; wall-clock fields are ignored.

Baseline twins (second form). Every run of CURRENT_DIR's BENCH_*.json
artifacts must replay the run of the same scenario, cell and seed in
BASELINE_DIR (bench/baselines/ holds the committed ones): the same
fields, plus every engine counter of the run's "engine" record. Runs
present on one side only are skipped; tools/bench_diff.py gates
coverage. A trajectory change fails here even where bench_diff's
tolerances would pass it.

A field absent on both sides is equal; absent on one side only is a
mismatch. Exit status 1 on any mismatch, on a threads > 1 run without a
twin or on two runs of the same cell and seed, 2 on a record missing a
key of the cell identity (or an unreadable artifact), 0 otherwise.
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


def mismatches(run, twin, engine=False):
    """(field, run's value, twin's value) for every compared field on
    which the two differ; `engine` adds the engine counters."""
    fields = set(compared_fields(run)) | set(compared_fields(twin))
    found = [
        (field, run.get(field), twin.get(field))
        for field in sorted(fields)
        if run.get(field) != twin.get(field)
    ]
    if engine:
        ours = run.get("engine", {})
        theirs = twin.get("engine", {})
        found += [
            ("engine." + field, ours.get(field), theirs.get(field))
            for field in sorted(set(ours) | set(theirs))
            if ours.get(field) != theirs.get(field)
        ]
    return found


def index_runs(runs, problems, label=""):
    """The runs keyed by run_key; a repeated key is a problem."""
    indexed = {}
    for run in runs:
        key = run_key(run)
        if key in indexed:
            problems.append("%s%s: two runs of this cell and seed"
                            % (label, bench_diff.fmt_key(key)))
        indexed[key] = run
    return indexed


def check(runs):
    """Returns the mismatch descriptions (empty when all agree) and the
    number of threads > 1 runs checked."""
    problems = []
    indexed = index_runs(runs, problems)
    checked = 0
    for key, run in indexed.items():
        if run["threads"] == 1:
            continue
        label = bench_diff.fmt_key(key)
        twin = indexed.get(run_key(run, threads=1))
        if twin is None:
            problems.append("%s: no threads=1 twin" % label)
            continue
        checked += 1
        for field, ours, theirs in mismatches(run, twin):
            problems.append("%s: %s = %r, threads=1 has %r"
                            % (label, field, ours, theirs))
    return problems, checked


def check_against(baseline, current):
    """Compares every run of `current` (scenario -> artifact) with the
    baseline run of the same scenario, cell and seed. Returns the
    mismatch descriptions and the number of runs compared."""
    problems = []
    compared = 0
    for name in sorted(set(baseline) & set(current)):
        label = "[%s] " % name
        base = index_runs(baseline[name].get("runs", []), problems, label)
        cur = index_runs(current[name].get("runs", []), problems, label)
        for key in sorted(set(base) & set(cur)):
            compared += 1
            for field, ours, theirs in mismatches(cur[key], base[key], True):
                problems.append("%s%s: %s = %r, baseline has %r"
                                % (label, bench_diff.fmt_key(key), field,
                                   ours, theirs))
    return problems, compared


def main(argv):
    if len(argv) == 4 and argv[1] == "--baseline":
        problems, compared = check_against(
            bench_diff.load_benches(argv[2]), bench_diff.load_benches(argv[3]))
        summary = ("%d runs checked against their baseline twins, "
                   "%d mismatches" % (compared, len(problems)))
    elif len(argv) == 2:
        with open(argv[1]) as handle:
            problems, checked = check(json.load(handle)["runs"])
        summary = ("%d threads > 1 runs checked against their threads = 1 "
                   "twins, %d mismatches" % (checked, len(problems)))
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for problem in problems:
        print("MISMATCH " + problem)
    print(summary)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
