#!/usr/bin/env python3
"""The host-performance benchmark's own test.

Runs a tiny version of every workload at 1 and 2 workers and checks that
both give identical cell fingerprints, that no cell fails, that every metric
BENCHMARK.json names is reported with its unit, that a seed held out from
the default passes the golden-model check, that the default seed matches
the committed reference, and that a run with a pinned variable set fails.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench" / "test"
HELD_OUT_SEED = 7
# Every workload the runner implements; deploy_profile is not in
# BENCHMARK.json (see README.md) but stays tested.
WORKLOADS = ("grid_steady", "cold_cells", "deploy_profile")


def run(*args, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, env=env)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def result(self, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stderr[-3000:])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def tiny(self, workload, workers, trace, seed=0, fingerprints=None):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--workers", str(workers), "--tiny"]
        if fingerprints is not None:
            fingerprints.mkdir(parents=True, exist_ok=True)
            args += ["--reference-dir", str(fingerprints), "--write-reference"]
        return self.result(*args)

    def assert_metrics(self, out, section):
        for m in self.spec[section]:
            self.assertIn(m["name"], out["metrics"])
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])

    def test_tiny_workloads_at_one_and_two_workers(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                d1, d2 = SCRATCH / name / "w1", SCRATCH / name / "w2"
                plain = self.tiny(name, 1, trace=0, fingerprints=d1)
                traced = self.tiny(name, 2, trace=1, fingerprints=d2)
                self.assertEqual((d1 / f"{name}.txt").read_text(),
                                 (d2 / f"{name}.txt").read_text())
                self.assert_metrics(plain, "end_to_end")
                self.assert_metrics(traced, "per_layer")
                self.assertEqual(
                    traced["metrics"]["trace.replay_match_ratio"]["value"], 1.0)

    def test_held_out_seed_passes_golden_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.tiny(name, 2, trace=0, seed=HELD_OUT_SEED)

    def test_default_seed_matches_reference(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.result("--workload", name, "--seed", "0",
                            "--seconds", "0", "--trace", "0")

    def test_pinned_variables_fail_the_run(self):
        for var in ("JAVELIN_DISPATCH", "JAVELIN_NEXEC", "JAVELIN_SHADOW"):
            with self.subTest(var=var):
                proc = run("--workload", "deploy_profile", "--tiny",
                           "--seconds", "0",
                           env={**os.environ, var: "1"})
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
