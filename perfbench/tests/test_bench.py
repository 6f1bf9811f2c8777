#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from anywhere:

    python3 perfbench/tests/test_bench.py

Builds the benchmark, then checks that BENCHMARK.json and the binary agree on
every metric, runs the C++ self-tests (percentiles, seeded request
sequences, reference checks), and checks that the benchmark refuses to run
without the sources beside it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench", "perfbench_selftest"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def perfbench(self, *args):
        return subprocess.run(
            [os.path.join(run.BUILD, "perfbench")] + list(args), cwd=ROOT,
            stdout=subprocess.PIPE, check=True).stdout.decode()

    def test_metric_catalog_matches_benchmark_json(self):
        listed = {"end_to_end": {}, "per_layer": {}}
        for line in self.perfbench("--list-metrics").splitlines():
            kind, name, unit = line.split()
            listed[kind][name] = unit
        for kind in listed:
            declared = {m["name"]: m["unit"] for m in self.bench[kind]}
            self.assertEqual(declared, listed[kind], kind)
            for name in declared:
                self.assertRegex(name, NAME)

    def test_listed_workloads_exist(self):
        # t2x2 and t2x1-sweep are run by hand only (NOTES.md says why).
        names = {w["name"] for w in self.bench["workloads"]}
        self.assertLessEqual(names, set(run.WORKLOADS))

    def test_cpp_selftests(self):
        subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        with tempfile.TemporaryDirectory(dir=scratch) as lonely:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
            shutil.copytree(BENCH_DIR, os.path.join(lonely, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "t2x2",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=lonely, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
