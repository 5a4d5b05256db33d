#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py the way the benchmark is run, at the
shortest length (--seconds 1), so the whole file takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT,
        script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, res, kind):
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, expected(kind))
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_minimal_run_prints_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"])
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(res, "end_to_end")
                self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)
                self.assertIn("provenance: {", proc.stdout)
                self.assertIn("fail_frac: 0.000000", proc.stdout)

    def test_traced_run_prints_every_per_layer_metric(self):
        proc = run("tune", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        res = result(proc)
        self.assertTrue(res["correct"])
        self.check_metrics(res, "per_layer")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        # The split the workload was chosen for: fabric and views on,
        # kernels and pack off.
        self.assertGreater(m["netsim.fabric_build_ms"], 0)
        self.assertGreater(m["memmap.view_build_ms"], 0)
        self.assertEqual(m["stencil.mcells_per_s_7pt"], 0)
        self.assertEqual(m["baseline.pack_ms"], 0)
        for contrast in ("baseline.pack_gbs", "baseline.ddt_gbs",
                         "memmap.view_gbs", "simmpi.floor_gbs"):
            self.assertGreater(m[contrast], 0, contrast)
        trace = ROOT / ".bench_build" / "perfbench" / "trace-tune-1.json"
        spans = json.loads(trace.read_text())["spans"]
        self.assertTrue(any(s["name"] == "harness.run" for s in spans))
        self.assertTrue(all(s["end_us"] >= s["start_us"] for s in spans))

    def test_vt_metrics_are_exact_across_repeats(self):
        for w in ("sweep", "tune"):
            with self.subTest(workload=w):
                a = result(run(w, seed=3))["metrics"]
                b = result(run(w, seed=3))["metrics"]
                for name in ("vt_total_ms", "vt_comm_ms"):
                    self.assertEqual(a[name]["value"], b[name]["value"])

    def test_failing_config_counts_into_fail_frac(self):
        proc = run("sweep", extra=["--inject-invalid"])
        self.assertEqual(proc.returncode, 1)
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertGreater(res["attempted"], res["failed"])
        self.check_metrics(res, "end_to_end")
        self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)
        self.assertIn("FAILED: invalid", proc.stdout)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run("sweep", cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
