#!/usr/bin/env python3
"""The benchmark's own tests, on a smoke configuration (scale 1/512, two
kernels) that runs in well under a minute once figbench is built:

    python3 figbench/test_figbench.py

They check the output format (last line, metric names and units against
BENCHMARK.json), that every workload passes its own checks, that a perturbed
golden value is caught as a failed cell, and that the benchmark refuses to
run without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "figbench-test"
SMOKE = ["--scale", "512", "--suite", "CG,StreamTriad"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class FigbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        cls.golden = WORK / "golden.json"
        proc = run("--write-golden", cls.golden, "--seed", 42, *SMOKE)
        assert proc.returncode == 0, proc.stderr

    def smoke(self, workload, trace, golden=None):
        return result(run("--workload", workload, "--seed", 42, "--seconds", 1,
                          "--trace", trace, "--golden", golden or self.golden,
                          *SMOKE))

    def test_every_workload_reports_every_metric_and_passes(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    out = self.smoke(w["name"], trace)
                    self.assertEqual(set(out),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in out["metrics"].items()},
                                     expected)
                    for m in out["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_perturbed_golden_value_fails_cells(self):
        golden = json.loads(self.golden.read_text())
        cells = golden["sweeps"]["nmm:PCM"]["full"]["N3"]["CG"]
        cells[0] = cells[0] * (1 + 1e-12)
        perturbed = WORK / "perturbed.json"
        perturbed.write_text(json.dumps(golden))
        out = self.smoke("nmm-warm-mt", 0, golden=perturbed)
        self.assertGreater(out["failed"], 0)
        self.assertFalse(out["correct"])

    def test_refuses_without_simulator_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "figbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "nmm-warm-mt", "--seed", 1, "--seconds", 1,
                   "--trace", 0, cwd=bare, script=bare / "figbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
