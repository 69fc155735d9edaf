#!/usr/bin/env python3
"""Determinism self-check of the benchmark. Run from the repository root:

    python3 klexbench/test_determinism.py [WORKLOAD ...]

For every workload (all four by default) it checks that

  * two runs with one seed print bit-identical simulated results: service
    metrics and every deterministic counter (the "sim:" report line);
  * a second seed changes the trajectory;
  * the traced run of that seed passes its correctness gate, which
    includes agreeing with an untraced run on every simulated value, so
    tracing does not perturb the run.

Seed 20261016 is held out: it is never used while tuning the benchmark
or a change, so a claimed gain can be confirmed on it afterwards.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["closed_tree", "fleet_tenants", "circulation_p4",
             "faults_recovery"]
SEED, OTHER_SEED = 7, 8


def run(workload, seed, trace=0):
    """Runs the benchmark once (minimum repetitions); returns the parsed
    result line and the simulated-results map."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout.splitlines()
    sim = next(line for line in out if line.startswith("sim: "))
    return json.loads(out[-1]), json.loads(sim[len("sim: "):])


class Determinism(unittest.TestCase):
    workloads = WORKLOADS

    def test_workloads(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, sim = run(workload, SEED)
                self.assertTrue(result["correct"])
                _, again = run(workload, SEED)
                self.assertEqual(sim, again, "same seed, different results")
                _, other = run(workload, OTHER_SEED)
                self.assertNotEqual(sim, other, "the seed changed nothing")
                traced, _ = run(workload, SEED, trace=1)
                self.assertTrue(traced["correct"],
                                "traced run failed its gate")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        Determinism.workloads = sys.argv[1:]
        del sys.argv[1:]
    unittest.main(verbosity=2)
