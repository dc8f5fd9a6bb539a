#!/usr/bin/env python3
"""Tests of the benchmark's own helpers and of one small run per workload.

    python3 perfbench/test_run.py            # everything (a few minutes)
    python3 perfbench/test_run.py Helpers    # the helper tests only

The end-to-end tests run run.py at a small --scale on a workload seed and a
held-out seed, so the correctness checks and the cross-run digest check of
every workload are exercised without the full-size inputs.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


class Helpers(unittest.TestCase):
    def test_percentile_rule_needs_ten_samples_beyond(self):
        xs = list(range(1000))
        value, beyond = run.nearest_rank(xs, 99.0)
        self.assertEqual((value, beyond), (989, 10))
        self.assertEqual(run.nearest_rank(xs[:999], 99.0)[1], 9)
        self.assertEqual(run.highest_percentile(xs), (99.0, 989, 10))
        self.assertEqual(run.highest_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(run.highest_percentile(list(range(50)))[:2], (50.0, 24))
        self.assertIsNone(run.highest_percentile(list(range(5))))
        self.assertIsNone(run.highest_percentile([]))

    def test_percentile_of_unsorted_samples(self):
        self.assertEqual(run.nearest_rank([3.0, 1.0, 2.0], 50.0), (2.0, 1))

    def test_metric_name_check(self):
        for good in ("setup_s", "weblog.ingest_s", "p99-ms", "9lives"):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65, None):
            self.assertFalse(run.valid_name(bad), bad)

    def test_result_line_schema(self):
        declared = {"a_s": "s", "b": "count"}
        line = run.result_line(True, 3, 0, {"a_s": 1.5, "b": 2}, declared)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["a_s"], {"value": 1.5, "unit": "s"})
        self.assertIsInstance(line["metrics"]["b"]["value"], float)
        json.loads(json.dumps(line))
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"a_s": 1.0}, declared)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"a_s": 1.0, "b": 1, "c": 1}, declared)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"a_s": math.nan, "b": 1}, declared)

    def test_end_to_end_values_are_medians(self):
        values = run.end_to_end_values(
            {"setup_s": [3.0, 1.0, 2.0]},
            {"time_to_model_s": [2.0, 4.0, 1.0], "peak_rss_mib": 6.0,
             "events_per_rep": 8})
        self.assertEqual(values, {"setup_s": 2.0, "time_to_model_s": 2.0,
                                  "peak_rss_mib": 6.0, "events_per_s": 4.0})

    def test_per_layer_values(self):
        declared = {"x_s": "s", "y": "count", "online.snapshot_p50_ms": "ms",
                    "online.snapshot_p99_ms": "ms", "online.snapshots": "count"}
        trace = {"passes": [{"x_s": 1.0}, {"x_s": 3.0}, {"x_s": 2.0}],
                 "snapshot_ms": []}
        values, checks = run.per_layer_values(trace, declared)
        self.assertEqual(values["x_s"], 2.0)
        self.assertEqual(values["y"], 0.0)
        self.assertEqual(checks, [])  # no snapshots, no check
        trace["snapshot_ms"] = [float(i) for i in range(1000)]
        values, checks = run.per_layer_values(trace, declared)
        self.assertEqual(values["online.snapshots"], 1000)
        self.assertEqual(checks, [None])
        trace["snapshot_ms"] = [float(i) for i in range(100)]
        values, checks = run.per_layer_values(trace, declared)
        self.assertEqual(len(checks), 1)  # p99 of 100 samples has 1 beyond
        self.assertIn("beyond p99", checks[0])
        trace["passes"][0]["z"] = 1.0
        with self.assertRaises(run.BenchError):
            run.per_layer_values(trace, declared)

    def test_digest_store(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "digests.json")
            self.assertIsNone(run.check_digest(store, "w/1", "aa"))
            self.assertIsNone(run.check_digest(store, "w/1", "aa"))
            self.assertIsNone(run.check_digest(store, "w/2", "bb"))
            self.assertIn("differs", run.check_digest(store, "w/1", "ab"))

    def test_changed_sources_get_their_own_digests(self):
        with tempfile.TemporaryDirectory() as tmp:
            for top in ("src", "cmake", "perfbench"):
                os.makedirs(os.path.join(tmp, top))
                with open(os.path.join(tmp, top, "a.cpp"), "w") as f:
                    f.write("int a;\n")
            before = run.source_fingerprint(tmp)
            self.assertEqual(run.source_fingerprint(tmp), before)
            os.makedirs(os.path.join(tmp, "perfbench", "__pycache__"))
            with open(os.path.join(tmp, "perfbench", "__pycache__", "x.pyc"), "w") as f:
                f.write("ignored")
            for doc in ("README.md", os.path.join("perfbench", "README.md"),
                        os.path.join("perfbench", "run.py")):
                with open(os.path.join(tmp, doc), "w") as f:
                    f.write("not a build input")
            self.assertEqual(run.source_fingerprint(tmp), before)
            with open(os.path.join(tmp, "src", "a.cpp"), "w") as f:
                f.write("int a = 1;\n")
            after = run.source_fingerprint(tmp)
            self.assertNotEqual(after, before)
            # A new commit whose output legitimately changes is no mismatch.
            store = os.path.join(tmp, "digests.json")
            self.assertIsNone(run.check_digest(store, before + "/w/1", "aa"))
            self.assertIsNone(run.check_digest(store, after + "/w/1", "bb"))
            self.assertIn("differs", run.check_digest(store, after + "/w/1", "cc"))


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        runs = 4 + 22 * len(s["workloads"])
        self.assertLess(runs * (s["run_seconds"] + 15), 3420)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for g in ("workloads", "end_to_end", "per_layer")
                 for m in s[g]]
        self.assertEqual(len(names), len(set(names)))
        run.load_spec(SPEC_PATH)  # names and units
        self.assertLessEqual(os.path.getsize(SPEC_PATH), 64 * 1024)

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


class EndToEnd(unittest.TestCase):
    """One small run per workload and mode on a workload seed, again on the
    same seed (the cross-run digest check), and on a held-out seed."""
    SCALES = {"wvu_week_clf": 0.01, "nasa_week_fwc": 1.0,
              "clarknet_online": 0.05}

    def bench(self, workload, seed, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", "3", "--trace",
             str(trace), "--scale", str(self.SCALES[workload])],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:] + p.stdout[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_workloads(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                for seed in (7, 7, 1009):
                    with self.subTest(workload=w["name"], trace=trace, seed=seed):
                        result = self.bench(w["name"], seed, trace)
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(set(result["metrics"]),
                                         {m["name"] for m in spec[group]})


if __name__ == "__main__":
    unittest.main()
