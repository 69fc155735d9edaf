#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts between two commits / build trees.

Usage:
    tools/bench_diff.py BASELINE_DIR CURRENT_DIR [options]

Both directories hold BENCH_<scenario>.json files written by
exp::write_json_file (bench/baselines/ keeps the committed baselines; a
build directory holds the freshly produced ones). For every scenario
present on both sides the tool compares:

  * throughput: per-aggregate-cell total_events_per_sec (keyed by
    topology, features, k, l, fault_garbage, threads, fleet, fleet_mode,
    policy -- "features" names the protocol rung and threads the engine's
    worker-lane count; fault_garbage defaults to -1; fleet is the tenant
    count (default 1) and fleet_mode distinguishes a shared-engine fleet
    cell from its separate-engines baseline (empty for plain cells);
    policy is the resilience-policy variant label of the degraded-mode
    sweeps and is empty for scenarios without a policy axis; the writer
    leaves those four out by rule when they hold their default). A record
    missing one of the schema-mandatory keys (topology, features, k, l,
    threads, n; seed for runs) aborts the comparison loudly instead of
    keying onto a default. A baseline n x threads cell missing from the
    current artifact fails like any other dropped cell, so a partition
    count cannot silently vanish from the sweep. A drop of more than
    --rate-tolerance is a REGRESSION. Wall-clock rates vary between
    machines, so CI calls this with a generous tolerance while
    same-machine commit-to-commit runs use the strict default. Every cell
    also reports its wall-time per node (mean_wall_seconds / n).
  * deterministic counters: per-run engine.callback_slots_created,
    engine.in_flight_walks, engine.overflow_pushes, engine.max_heap_size,
    engine.bucket_sorts, engine.sorted_events and the run-level
    recovery_events (keyed by topology, features, k, l,
    fault_garbage, seed). These are bit-deterministic per seed, so any
    growth beyond --counter-tolerance plus --counter-slack means
    per-event allocations, O(channels) census walks, heap-fallback
    scheduling, a larger pending-event high-water (which bounds the
    calendar's event pool) or more within-tick sorting crept into a hot
    path: REGRESSION. A counter present in the baseline but absent
    from the current artifact is a FAILURE (dropping a gated counter must
    not read as "no regression"); one absent from the baseline is skipped
    with a note (new counters gate once a baseline carrying them is
    committed). Any non-finite gated value (NaN/Inf rate or counter) is a
    data error: it would compare as "no regression" on every side and
    silently disarm the gate.
  * grant-latency percentiles: per-run grant_latency_p50 / p99 / p999
    and the per-cell mean_grant_latency_* aggregates (emitted by
    scenarios whose workload recorded grant-latency samples -- the
    degraded-mode sweeps' SLO surface). Single-threaded runs of a fixed
    seed are bit-deterministic, chaos draws included, so these gate like
    counters: growth beyond tolerance is a latency REGRESSION, and a
    percentile present in the baseline but missing from the current
    artifact is a FAILURE (dropping the tail metric must not read as
    "the tail is fine").

Coverage is part of the contract: an aggregate cell (or a per-seed run)
present in the baseline but missing from the current artifact is a
FAILURE (a renamed or silently dropped cell must not read as "no
regressions"). --allow-missing-cells SCENARIO[=MAXN] waives exactly the
cells a capped smoke sweep cannot produce: with =MAXN only cells whose
network size exceeds MAXN are waived (CI passes the KLEX_SCALE_MAX_N cap
here); without =MAXN the whole scenario's missing cells are waived.
A baseline scenario absent from the current side fails unless
--scenario restricts the comparison or --allow-missing-cells covers it;
a current scenario without a baseline fails unless --scenario excludes
it (a bench must not ship ungated). A baseline run that
recovered from its fault must still recover (a missing or false
"recovered" in the current run is a REGRESSION). Exit status: 0 = clean,
1 = at least one regression or coverage failure, 2 = usage or data
error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

RATE_FIELD = "total_events_per_sec"
ENGINE_COUNTER_FIELDS = (
    "callback_slots_created",
    "in_flight_walks",
    "overflow_pushes",
    # Pending-event high-water, summed over the engine's queues (one per
    # lane on a plain engine, one per stream on a fleet engine; a sum of
    # per-queue high-waters): a queue's event pool never holds more
    # slots than its high-water, so it bounds scheduler memory.
    "max_heap_size",
    # Calendar ticks gathered out of seq order and the events those sorts
    # covered: the within-tick sort work.
    "bucket_sorts",
    "sorted_events",
    # Adversarial-channel decision counters: bit-deterministic per seed
    # (per-link chaos rng), emitted only by chaos-enabled scenarios --
    # absent baselines skip them via the absent-in-baseline rule.
    "chaos_dropped",
    "chaos_duplicated",
    "chaos_reordered",
    "chaos_jittered",
)
RUN_COUNTER_FIELDS = ("recovery_events",)
# Grant-latency tail percentiles (simulated ticks): bit-deterministic
# per seed like the counters, but a *latency* gate -- growth is the
# regression. Emitted only by scenarios whose runs recorded samples;
# absent baselines skip them via the absent-in-baseline rule.
RUN_LATENCY_FIELDS = (
    "grant_latency_p50",
    "grant_latency_p99",
    "grant_latency_p999",
)
AGGREGATE_LATENCY_FIELDS = (
    "mean_grant_latency_p50",
    "mean_grant_latency_p99",
    "mean_grant_latency_p999",
)


def load_benches(directory):
    benches = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read {path}: {err}", file=sys.stderr)
            sys.exit(2)
        benches[data.get("scenario", path.stem)] = data
    return benches


# Keys every run and aggregate record carries; a record without one is
# not a BENCH artifact (or its schema changed under us).
REQUIRED_KEYS = ("topology", "features", "k", "l", "threads", "n")


def cell_key(cell):
    """Identity of one aggregate cell / run. A missing required key must
    fail loudly rather than key every record onto a default; n is required
    but not part of the identity (the topology and fleet fix it).
    """
    for key in REQUIRED_KEYS:
        if key not in cell:
            print(
                f"error: record is missing required key '{key}' -- not a "
                f"BENCH artifact (or its key schema changed); refusing to "
                f"compare: {json.dumps(cell)[:200]}",
                file=sys.stderr,
            )
            sys.exit(2)
    return (
        cell["topology"],
        cell["features"],
        cell["k"],
        cell["l"],
        cell.get("fault_garbage", -1),
        cell["threads"],
        cell.get("fleet", 1),
        cell.get("fleet_mode", ""),
        cell.get("policy", ""),
    )


def aggregate_cells(data):
    return {cell_key(cell): cell for cell in data.get("aggregates", [])}


def run_cells(data):
    runs = {}
    for run in data.get("runs", []):
        if "seed" not in run:
            print(
                f"error: run record has no seed -- not a BENCH artifact "
                f"(or its key schema changed); refusing to compare: "
                f"{json.dumps(run)[:200]}",
                file=sys.stderr,
            )
            sys.exit(2)
        runs[cell_key(run) + (run["seed"],)] = run
    return runs


def fmt_key(key):
    base = f"{key[0]} [{key[1]}] k={key[2]} l={key[3]}"
    if key[4] != -1:
        base += f" g={key[4]}"
    if key[5] != 1:
        base += f" p={key[5]}"
    if key[6] != 1:
        base += f" R={key[6]}({key[7] or 'shared'})"
    if key[8]:
        base += f" policy={key[8]}"
    if len(key) == 10:
        base += f" seed={key[9]}"
    return base


def checked_number(label, where, value):
    """Validates a gated metric value. None passes through (the caller
    decides what absence means); anything non-numeric or NaN is a data
    error -- a NaN rate or counter would compare as 'not a regression'
    on every side and silently disarm the gate.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        print(
            f"error: {where}: {label} is {value!r} -- not a finite number; "
            f"the artifact is corrupt (NaN/Inf compares as 'no regression' "
            f"and would disarm the gate)",
            file=sys.stderr,
        )
        sys.exit(2)
    return value


def fmt_wall_per_node(cell):
    """Wall-time per node in us."""
    return cell["mean_wall_seconds"] * 1e6 / cell["n"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="directory with baseline BENCH_*.json")
    parser.add_argument("current", help="directory with current BENCH_*.json")
    parser.add_argument(
        "--rate-tolerance",
        type=float,
        default=0.10,
        help="max fractional events/sec drop before failing (default 0.10)",
    )
    parser.add_argument(
        "--rate-advisory",
        action="store_true",
        help="report events/sec drops but do not fail on them (for "
        "cross-machine comparisons where only the deterministic "
        "counters are trustworthy)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.10,
        help="max fractional growth of deterministic counters (default 0.10)",
    )
    parser.add_argument(
        "--counter-slack",
        type=int,
        default=2,
        help="absolute growth allowed on tiny counters (default 2)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="restrict to these scenario names (repeatable)",
    )
    parser.add_argument(
        "--allow-missing-cells",
        action="append",
        default=[],
        metavar="SCENARIO[=MAXN]",
        help="scenario whose current artifact may omit baseline cells; with "
        "=MAXN only cells with network size > MAXN are waived (the smoke "
        "run's n-cap), without it all of the scenario's missing cells are. "
        "Repeatable",
    )
    args = parser.parse_args()

    baseline = load_benches(args.baseline)
    current = load_benches(args.current)
    if not baseline:
        print(f"error: no BENCH_*.json under {args.baseline}", file=sys.stderr)
        sys.exit(2)
    if not current:
        print(f"error: no BENCH_*.json under {args.current}", file=sys.stderr)
        sys.exit(2)

    # scenario -> n-cap above which missing cells are waived (None = all).
    allow_missing = {}
    for entry in args.allow_missing_cells:
        name, _, cap = entry.partition("=")
        allow_missing[name] = int(cap) if cap else None

    def missing_waived(name, record):
        if name not in allow_missing:
            return False
        cap = allow_missing[name]
        return cap is None or record["n"] > cap

    names = sorted(set(baseline) & set(current))
    if args.scenario:
        names = [n for n in names if n in set(args.scenario)]

    failures = 0
    for name in sorted(set(baseline) - set(current)):
        if args.scenario and name not in set(args.scenario):
            continue
        if name in allow_missing:
            print(f"note: scenario '{name}' only in baseline; allowed")
        else:
            failures += 1
            print(
                f"FAILURE: scenario '{name}' in baseline but missing from "
                f"current (restrict with --scenario or allow with "
                f"--allow-missing-cells)"
            )
    for name in sorted(set(current) - set(baseline)):
        if args.scenario and name not in set(args.scenario):
            continue
        # A bench that ships without a committed baseline is ungated.
        failures += 1
        print(
            f"FAILURE: scenario '{name}' only in current, no baseline "
            f"(commit bench/baselines/BENCH_{name}.json or exclude it "
            f"with --scenario)"
        )
    if not names:
        print("error: no scenario present on both sides", file=sys.stderr)
        sys.exit(2)

    for name in names:
        base_cells = aggregate_cells(baseline[name])
        cur_cells = aggregate_cells(current[name])
        shared = sorted(set(base_cells) & set(cur_cells))
        for key in sorted(set(base_cells) - set(cur_cells)):
            if missing_waived(name, base_cells[key]):
                print(f"note: [{name}] {fmt_key(key)} missing from current; "
                      f"allowed (capped sweep)")
            else:
                failures += 1
                print(f"FAILURE: [{name}] {fmt_key(key)} in baseline but "
                      f"missing from current artifact")
        print(f"== scenario '{name}': {len(shared)} aggregate cell(s) ==")
        for key in shared:
            base_rate = checked_number(
                RATE_FIELD, f"[{name}] baseline {fmt_key(key)}",
                base_cells[key].get(RATE_FIELD)) or 0.0
            cur_rate = checked_number(
                RATE_FIELD, f"[{name}] current {fmt_key(key)}",
                cur_cells[key].get(RATE_FIELD)) or 0.0
            if base_rate > 0:
                change = cur_rate / base_rate - 1.0
                status = "ok"
                if change < -args.rate_tolerance:
                    if args.rate_advisory:
                        status = "slow(adv)"
                    else:
                        status = "REGRESSION"
                        failures += 1
                print(
                    f"  {status:>10}  {fmt_key(key)}: events/s "
                    f"{base_rate:,.0f} -> {cur_rate:,.0f} ({change:+.1%}), "
                    f"wall/node {fmt_wall_per_node(base_cells[key]):.3f} -> "
                    f"{fmt_wall_per_node(cur_cells[key]):.3f}us"
                )
            # Aggregate grant-latency tail: deterministic means over the
            # cell's seeds, gated like the counters (growth = worse tail).
            for field in AGGREGATE_LATENCY_FIELDS:
                base_v = checked_number(
                    field, f"[{name}] baseline {fmt_key(key)}",
                    base_cells[key].get(field))
                cur_v = checked_number(
                    field, f"[{name}] current {fmt_key(key)}",
                    cur_cells[key].get(field))
                if base_v is None:
                    if cur_v is not None:
                        print(f"  note        {fmt_key(key)}: {field} absent "
                              f"from baseline; skipped (new metric)")
                    continue
                if cur_v is None:
                    failures += 1
                    print(f"  FAILURE     {fmt_key(key)}: {field} present in "
                          f"baseline ({base_v:.0f}) but absent from current "
                          f"artifact")
                    continue
                limit = (base_v * (1.0 + args.counter_tolerance)
                         + args.counter_slack)
                if cur_v > limit:
                    failures += 1
                    print(
                        f"  REGRESSION  {fmt_key(key)}: {field} "
                        f"{base_v:.0f} -> {cur_v:.0f} (limit {limit:.0f})"
                    )

        base_runs = run_cells(baseline[name])
        cur_runs = run_cells(current[name])
        for key in sorted(set(base_runs) - set(cur_runs)):
            # Run-level coverage: a baseline seed silently vanishing from a
            # still-present cell must not pass as "nothing to compare".
            if missing_waived(name, base_runs[key]):
                continue  # the cell-level note already covers capped sweeps
            failures += 1
            print(f"FAILURE: [{name}] {fmt_key(key)} run in baseline but "
                  f"missing from current artifact")
        for key in sorted(set(base_runs) & set(cur_runs)):
            base_run = base_runs[key]
            cur_run = cur_runs[key]
            if base_run.get("recovered") and cur_run.get("recovered") \
                    is not True:
                # recovery_events is only emitted for recovered runs, so an
                # un-recovering (or fault-phase-dropping) current run would
                # otherwise dodge the counter gate entirely -- the worst
                # recovery regression.
                failures += 1
                print(f"  REGRESSION  {fmt_key(key)}: recovered "
                      f"true -> {cur_run.get('recovered')}")
            counters = [
                (f"engine.{field}",
                 base_run.get("engine", {}).get(field),
                 cur_run.get("engine", {}).get(field))
                for field in ENGINE_COUNTER_FIELDS
            ] + [
                (field, base_run.get(field), cur_run.get(field))
                for field in RUN_COUNTER_FIELDS
            ] + [
                # Per-run latency percentiles: same gate semantics --
                # growth beyond tolerance is a (tail-latency) regression,
                # and present-in-baseline-but-absent is a FAILURE.
                (field, base_run.get(field), cur_run.get(field))
                for field in RUN_LATENCY_FIELDS
            ]
            for label, base_v, cur_v in counters:
                base_v = checked_number(
                    label, f"[{name}] baseline {fmt_key(key)}", base_v)
                cur_v = checked_number(
                    label, f"[{name}] current {fmt_key(key)}", cur_v)
                if base_v is None:
                    # The baseline predates this counter: nothing to gate
                    # against, but say so once rather than pass silently.
                    if cur_v is not None:
                        print(f"  note        {fmt_key(key)}: {label} absent "
                              f"from baseline; skipped (new counter)")
                    continue
                if cur_v is None:
                    # Present in the baseline but gone from the current
                    # artifact: the counter was dropped or renamed, which
                    # must not read as "no regression".
                    failures += 1
                    print(f"  FAILURE     {fmt_key(key)}: {label} present in "
                          f"baseline ({base_v}) but absent from current "
                          f"artifact")
                    continue
                limit = base_v * (1.0 + args.counter_tolerance) + args.counter_slack
                if cur_v > limit:
                    failures += 1
                    print(
                        f"  REGRESSION  {fmt_key(key)}: {label} "
                        f"{base_v} -> {cur_v} (limit {limit:.0f})"
                    )

    if failures:
        print(f"\n{failures} regression(s)/failure(s) beyond tolerance")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
