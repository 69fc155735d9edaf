#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py -- the CI perf gate.

The gate's failure modes are the point: a comparison that silently skips
a dropped counter, or treats a NaN rate as "no regression", is worse
than no gate at all. Each test builds a pair of tiny BENCH artifacts in
temp directories and asserts on bench_diff's exit status and output.

Run directly (python3 tools/bench_diff_test.py) or under any unittest
runner; CI runs it next to the real bench_diff invocation.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIFF = Path(__file__).resolve().parent / "bench_diff.py"


def artifact(rate=100000.0, counter=42, recovery=7, recovered=True,
             latency_p99=None, mean_latency_p99=None, policy=None,
             pending=50, sorted_events=40):
    """One minimal BENCH artifact with a single cell and a single run.

    pending is the run's pending-event high-water (engine.max_heap_size);
    sorted_events the events its tick sorts covered (engine.sorted_events,
    beside engine.bucket_sorts).

    latency_p99 / mean_latency_p99 add the degraded-mode grant-latency
    percentile fields (run-level and aggregate-level); policy adds the
    resilience-policy axis label to both records.
    """
    cell = {
        "topology": "tree:line(n=8)",
        "features": "full",
        "k": 1,
        "l": 2,
        "threads": 1,
        "n": 8,
        "total_events_per_sec": rate,
        "mean_wall_seconds": 0.001,
    }
    run = {
        "topology": "tree:line(n=8)",
        "features": "full",
        "k": 1,
        "l": 2,
        "threads": 1,
        "n": 8,
        "seed": 1,
        "recovered": recovered,
        "recovery_events": recovery,
        "engine": {
            "callback_slots_created": counter,
            "in_flight_walks": counter,
            "overflow_pushes": 0,
            "max_heap_size": pending,
            "bucket_sorts": 4,
            "sorted_events": sorted_events,
        },
    }
    if latency_p99 is not None:
        run["grant_latency_p50"] = latency_p99 / 4
        run["grant_latency_p99"] = latency_p99
        run["grant_latency_p999"] = latency_p99 * 2
    if mean_latency_p99 is not None:
        cell["mean_grant_latency_p50"] = mean_latency_p99 / 4
        cell["mean_grant_latency_p99"] = mean_latency_p99
        cell["mean_grant_latency_p999"] = mean_latency_p99 * 2
    if policy is not None:
        cell["policy"] = policy
        run["policy"] = policy
    return {"scenario": "unit", "aggregates": [cell], "runs": [run]}


def run_diff(base, cur, *extra, current_only=None):
    """Runs bench_diff on BENCH_unit.json pairs; current_only maps extra
    scenario names to artifacts written on the current side alone."""
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        cur_dir = Path(tmp) / "cur"
        base_dir.mkdir()
        cur_dir.mkdir()
        (base_dir / "BENCH_unit.json").write_text(json.dumps(base))
        (cur_dir / "BENCH_unit.json").write_text(json.dumps(cur))
        for name, data in (current_only or {}).items():
            (cur_dir / f"BENCH_{name}.json").write_text(json.dumps(data))
        return subprocess.run(
            [sys.executable, str(BENCH_DIFF), str(base_dir), str(cur_dir),
             *extra],
            capture_output=True,
            text=True,
        )


class BenchDiffTest(unittest.TestCase):
    def test_identical_artifacts_pass(self):
        result = run_diff(artifact(), artifact())
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("no regressions", result.stdout)

    def test_rate_drop_beyond_tolerance_fails(self):
        result = run_diff(artifact(rate=100000.0), artifact(rate=50000.0))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_counter_growth_beyond_tolerance_fails(self):
        result = run_diff(artifact(counter=100), artifact(counter=200))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_pending_high_water_growth_fails(self):
        result = run_diff(artifact(pending=1000), artifact(pending=2000))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("engine.max_heap_size", result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_tick_sort_growth_fails(self):
        result = run_diff(artifact(sorted_events=40),
                          artifact(sorted_events=400))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("engine.sorted_events", result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_dropped_tick_sort_counter_fails(self):
        cur = artifact()
        del cur["runs"][0]["engine"]["bucket_sorts"]
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("engine.bucket_sorts", result.stdout)

    def test_nan_rate_is_a_data_error(self):
        cur = artifact()
        cur["aggregates"][0]["total_events_per_sec"] = float("nan")
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("not a finite number", result.stderr)

    def test_nan_counter_is_a_data_error(self):
        cur = artifact()
        cur["runs"][0]["engine"]["in_flight_walks"] = float("nan")
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("not a finite number", result.stderr)

    def test_counter_dropped_from_current_fails(self):
        cur = artifact()
        del cur["runs"][0]["engine"]["in_flight_walks"]
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("absent from current", result.stdout)

    def test_counter_new_in_current_is_noted_not_failed(self):
        base = artifact()
        del base["runs"][0]["engine"]["in_flight_walks"]
        result = run_diff(base, artifact())
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("absent from baseline; skipped", result.stdout)

    def test_missing_baseline_cell_fails(self):
        cur = artifact()
        cur["aggregates"] = []
        cur["runs"] = []
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("missing from current", result.stdout)

    def test_scenario_only_in_current_fails(self):
        # A new bench whose artifact has no committed baseline is ungated;
        # the gate must say so instead of skipping it.
        extra = artifact()
        extra["scenario"] = "fresh"
        result = run_diff(artifact(), artifact(),
                          current_only={"fresh": extra})
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("FAILURE: scenario 'fresh' only in current",
                      result.stdout)

    def test_scenario_only_in_current_excluded_by_scenario_passes(self):
        extra = artifact()
        extra["scenario"] = "fresh"
        result = run_diff(artifact(), artifact(), "--scenario", "unit",
                          current_only={"fresh": extra})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("fresh", result.stdout)

    def test_record_without_features_is_a_data_error(self):
        cur = artifact()
        del cur["runs"][0]["features"]
        result = run_diff(artifact(), cur)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("missing required key 'features'", result.stderr)

    def test_record_without_threads_or_n_is_a_data_error(self):
        for key in ("threads", "n"):
            with self.subTest(key=key):
                cur = artifact()
                del cur["aggregates"][0][key]
                result = run_diff(artifact(), cur)
                self.assertEqual(result.returncode, 2,
                                 result.stdout + result.stderr)
                self.assertIn(f"missing required key '{key}'", result.stderr)

    def test_lost_recovery_fails(self):
        result = run_diff(artifact(recovered=True),
                          artifact(recovered=False))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("recovered", result.stdout)

    def test_identical_latency_percentiles_pass(self):
        base = artifact(latency_p99=4000.0, mean_latency_p99=4000.0,
                        policy="drop2/resilient")
        cur = artifact(latency_p99=4000.0, mean_latency_p99=4000.0,
                       policy="drop2/resilient")
        result = run_diff(base, cur)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("no regressions", result.stdout)

    def test_run_latency_growth_beyond_tolerance_fails(self):
        result = run_diff(artifact(latency_p99=4000.0),
                          artifact(latency_p99=9000.0))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("grant_latency_p99", result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_aggregate_latency_growth_beyond_tolerance_fails(self):
        result = run_diff(artifact(mean_latency_p99=4000.0),
                          artifact(mean_latency_p99=9000.0))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("mean_grant_latency_p99", result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_latency_percentile_dropped_from_current_fails(self):
        # The degraded-mode satellite's pinned failure mode: a percentile
        # present in the baseline but missing from the current artifact
        # must fail loudly, not read as "the tail is fine".
        base = artifact(latency_p99=4000.0)
        cur = artifact(latency_p99=4000.0)
        del cur["runs"][0]["grant_latency_p99"]
        result = run_diff(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("grant_latency_p99", result.stdout)
        self.assertIn("absent from current", result.stdout)

    def test_aggregate_latency_dropped_from_current_fails(self):
        base = artifact(mean_latency_p99=4000.0)
        cur = artifact(mean_latency_p99=4000.0)
        del cur["aggregates"][0]["mean_grant_latency_p99"]
        result = run_diff(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("mean_grant_latency_p99", result.stdout)
        self.assertIn("absent from current", result.stdout)

    def test_latency_new_in_current_is_noted_not_failed(self):
        result = run_diff(artifact(), artifact(latency_p99=4000.0,
                                               mean_latency_p99=4000.0))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("absent from baseline; skipped", result.stdout)

    def test_policy_cell_dropped_from_current_fails(self):
        # The policy label joins the cell key: a current artifact that
        # loses the policy axis (or renames a variant) must fail coverage
        # rather than silently comparing mismatched cells.
        base = artifact(policy="drop2/resilient")
        cur = artifact(policy="drop2/none")
        result = run_diff(base, cur)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("policy=drop2/resilient", result.stdout)
        self.assertIn("missing from current", result.stdout)


if __name__ == "__main__":
    unittest.main()
