#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that:
- the same seed repeats every virtual-time metric and per-layer count, across
  runs and between the traced and untraced passes;
- a different seed gives a different arrival schedule;
- every printed metric name is well formed, declared in BENCHMARK.json, and
  printed with its declared unit;
- a directory holding only the benchmark fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build-and-run script)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Host timings; everything else the benchmark prints repeats exactly.
HOST_UNITS = {"s", "x", "1/s", "MiB"}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, trace, seconds=0.5, *extra):
    cmd = [os.path.join(run.build_dir(), "strings_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         check=True)
    return out.stdout


def result(workload, seed, trace):
    res = json.loads(bench(workload, seed, trace).strip().splitlines()[-1])
    assert res["correct"], res
    return res


def repeatable(res, trace):
    """The metrics of a result that must repeat exactly for a seed."""
    return {k: v["value"] for k, v in res["metrics"].items()
            if k.startswith("vt_") or k == "completed_share"
            or (trace == 1 and v["unit"] not in HOST_UNITS)}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(run.build_dir()):
            raise RuntimeError("benchmark build failed")

    def test_same_seed_repeats(self):
        # Each run already gates on its passes agreeing (traced and untraced
        # included); across processes the results must agree too.
        for trace in (0, 1):
            a = result("analyzed", 7, trace)
            b = result("analyzed", 7, trace)
            self.assertEqual(repeatable(a, trace), repeatable(b, trace))
            self.assertGreater(a["attempted"], 0)

    def test_different_seed_changes_arrivals(self):
        for workload in ("closed_supernode", "open_churn", "observed",
                         "analyzed"):
            one = bench(workload, 1, 0, 1, "--print-inputs")
            again = bench(workload, 1, 0, 1, "--print-inputs")
            two = bench(workload, 2, 0, 1, "--print-inputs")
            self.assertEqual(one, again, workload)
            self.assertNotEqual(one, two, workload)
        # Open-loop tenants: the arrival schedules themselves differ.
        digests = [
            [l for l in bench("open_churn", s, 0, 1, "--print-inputs")
             .splitlines() if l.startswith("# arrivals")]
            for s in (1, 2)]
        self.assertEqual(len(digests[0]), len(digests[1]))
        self.assertGreater(len(digests[0]), 0)
        for a, b in zip(*digests):
            self.assertNotEqual(a, b)

    def test_metric_names_declared(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in s[key]}
            res = result("analyzed", 1, trace)
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            for name in printed:
                self.assertRegex(name, NAME)
            self.assertEqual(printed, declared)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "analyzed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
