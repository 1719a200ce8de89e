#!/usr/bin/env python3
"""Tests of the RFly benchmark itself, on the small --smoke size of every
workload: the result-line schema against BENCHMARK.json, the correctness
oracle under every SIMD override this CPU supports, exact repeatability of
the layer counters for a fixed seed, the environment stamp, and the refusal
to run without the library sources.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Work counts that must not depend on timing, threads or the SIMD variant.
REPEATABLE = ["gen2.slots", "gen2.rounds", "gen2.collisions", "gen2.epcs_read",
              "sar.cells", "sar.c2f.refined_cells", "measure.plane.builds",
              "measure.plane.channel_evals"]
ENV_KEYS = {"nproc", "sar_isa", "forward_isa", "build_type", "rfly_obs", "commit"}


def smoke(workload, trace, isa=None, seed=1):
    env = dict(os.environ)
    env.pop("RFLY_SAR_ISA", None)
    env.pop("RFLY_FORWARD_ISA", None)
    if isa:
        env["RFLY_SAR_ISA"] = isa
        env["RFLY_FORWARD_ISA"] = isa
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, env=env, timeout=900)


def env_stamp(stdout):
    for line in stdout.splitlines():
        if line.startswith("# env "):
            return json.loads(line[len("# env "):])
    return None


class PerfbenchTest(unittest.TestCase):
    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name], name)
            value = metric["value"]
            self.assertIsInstance(value, (int, float), name)
            self.assertNotIsInstance(value, bool, name)
            self.assertTrue(math.isfinite(value), name)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end_schema(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(smoke(workload, 0), "end_to_end")
                for name, value in metrics.items():
                    self.assertGreater(value, 0, name)

    def test_oracle_and_counters_under_every_isa(self):
        listed = subprocess.run(RUN + ["--list-isas"], capture_output=True,
                                text=True, timeout=900)
        self.assertEqual(listed.returncode, 0, listed.stderr)
        isas = listed.stdout.split()
        self.assertIn("scalar", isas)
        for workload in WORKLOADS:
            counts = None
            # The default dispatch twice (repeatability), then each override.
            for isa in [None, None] + isas:
                with self.subTest(workload=workload, isa=isa):
                    proc = smoke(workload, 1, isa)
                    metrics = self.check_result(proc, "per_layer")
                    stamp = env_stamp(proc.stdout)
                    self.assertIsNotNone(stamp)
                    self.assertLessEqual(ENV_KEYS, set(stamp))
                    if isa:
                        self.assertEqual(stamp["sar_isa"], isa)
                        self.assertEqual(stamp["forward_isa"], isa)
                    got = {k: metrics[k] for k in REPEATABLE}
                    if counts is None:
                        counts = got
                    self.assertEqual(got, counts)
            self.assertGreater(counts["gen2.slots"], 0)
            self.assertGreater(counts["sar.cells"], 0)
            self.assertGreater(counts["measure.plane.channel_evals"], 0)

    def test_refuses_without_library_sources(self):
        scratch = tempfile.mkdtemp(prefix="perfbench-alone-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main(verbosity=2)
