#!/usr/bin/env python3
"""Unit tests for tools/check_thread_twins.py -- the thread-count
independence check CI runs over BENCH_scale.json.

Twins are paired by cell identity (bench_diff.cell_key with threads set
to 1) plus the seed, so runs that share n and seed but differ in another
key -- the protocol rung, k, l -- must each meet their own twin instead
of overwriting one another.

Run directly (python3 tools/check_thread_twins_test.py) or under any
unittest runner; CI runs it next to bench_diff_test.py.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_thread_twins  # noqa: E402

SCRIPT = Path(__file__).resolve().parent / "check_thread_twins.py"


def run(features="full", threads=1, grants=100, seed=1):
    return {
        "topology": "tree:random(n=64,topo_seed=5)",
        "features": features,
        "n": 64,
        "k": 2,
        "l": 4,
        "threads": threads,
        "seed": seed,
        "grants": grants,
        "events_executed": 10 * grants,
    }


class CheckThreadTwinsTest(unittest.TestCase):
    def test_twins_that_agree_pass(self):
        problems, checked = check_thread_twins.check(
            [run(), run(threads=4)])
        self.assertEqual(problems, [])
        self.assertEqual(checked, 1)

    def test_same_n_and_seed_different_features_pair_by_cell(self):
        # Two rungs share n and seed; each threads = 4 run must meet the
        # threads = 1 run of its own rung (keying on (n, seed) alone let
        # the second rung's twin overwrite the first's).
        runs = [
            run(features="full", grants=100),
            run(features="naive", grants=70),
            run(features="full", threads=4, grants=100),
            run(features="naive", threads=4, grants=70),
        ]
        problems, checked = check_thread_twins.check(runs)
        self.assertEqual(problems, [])
        self.assertEqual(checked, 2)

    def test_mismatch_against_own_twin_is_reported(self):
        runs = [
            run(features="full", grants=100),
            run(features="naive", grants=70),
            run(features="naive", threads=4, grants=71),
        ]
        problems, _ = check_thread_twins.check(runs)
        self.assertEqual(len(problems), 2)  # grants and events_executed
        self.assertTrue(all("[naive]" in p for p in problems), problems)

    def test_two_runs_with_the_same_twin_key_fail(self):
        problems, _ = check_thread_twins.check([run(), run(), run(threads=4)])
        self.assertEqual(len(problems), 1)
        self.assertIn("two runs of this cell and seed", problems[0])

    def test_run_without_twin_fails(self):
        problems, _ = check_thread_twins.check([run(threads=4)])
        self.assertEqual(len(problems), 1)
        self.assertIn("no threads=1 twin", problems[0])

    def test_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps({"runs": [run(), run(threads=2)]}))
            bad = Path(tmp) / "bad.json"
            bad.write_text(json.dumps(
                {"runs": [run(), run(threads=2, grants=1)]}))
            broken = Path(tmp) / "broken.json"
            record = run()
            del record["features"]
            broken.write_text(json.dumps({"runs": [record]}))
            for path, status in ((good, 0), (bad, 1), (broken, 2)):
                result = subprocess.run(
                    [sys.executable, str(SCRIPT), str(path)],
                    capture_output=True, text=True)
                self.assertEqual(result.returncode, status,
                                 result.stdout + result.stderr)


class BaselineTwinsTest(unittest.TestCase):
    """The --baseline form: every current run must replay the baseline
    run of its scenario, cell and seed, engine counters included."""

    @staticmethod
    def artifact(*runs):
        return {"scenario": "scale", "runs": list(runs)}

    @staticmethod
    def with_engine(record, **counters):
        record["engine"] = dict({"bucket_sorts": 7, "overflow_pushes": 3},
                                **counters)
        return record

    def test_identical_runs_pass_and_one_sided_runs_are_skipped(self):
        base = self.artifact(self.with_engine(run()),
                             self.with_engine(run(seed=2)))
        cur = self.artifact(self.with_engine(run()),
                            self.with_engine(run(seed=3)))
        problems, compared = check_thread_twins.check_against(
            {"scale": base}, {"scale": cur})
        self.assertEqual(problems, [])
        self.assertEqual(compared, 1)

    def test_a_moved_engine_counter_is_a_mismatch(self):
        # bench_diff passes a counter that falls; the twin check does not.
        base = self.artifact(self.with_engine(run()))
        cur = self.artifact(self.with_engine(run(), bucket_sorts=6))
        problems, compared = check_thread_twins.check_against(
            {"scale": base}, {"scale": cur})
        self.assertEqual(compared, 1)
        self.assertEqual(len(problems), 1)
        self.assertIn("engine.bucket_sorts = 6, baseline has 7", problems[0])

    def test_a_moved_trajectory_field_is_a_mismatch(self):
        base = self.artifact(self.with_engine(run(grants=100)))
        cur = self.artifact(self.with_engine(run(grants=101)))
        problems, _ = check_thread_twins.check_against(
            {"scale": base}, {"scale": cur})
        self.assertEqual(len(problems), 2)  # grants and events_executed

    def test_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "base"
            same = Path(tmp) / "same"
            moved = Path(tmp) / "moved"
            for directory in (base, same, moved):
                directory.mkdir()
            record = self.with_engine(run())
            (base / "BENCH_scale.json").write_text(
                json.dumps(self.artifact(record)))
            (same / "BENCH_scale.json").write_text(
                json.dumps(self.artifact(record)))
            (moved / "BENCH_scale.json").write_text(json.dumps(
                self.artifact(self.with_engine(run(), overflow_pushes=4))))
            for current, status in ((same, 0), (moved, 1)):
                result = subprocess.run(
                    [sys.executable, str(SCRIPT), "--baseline", str(base),
                     str(current)],
                    capture_output=True, text=True)
                self.assertEqual(result.returncode, status,
                                 result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
