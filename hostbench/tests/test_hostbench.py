"""Tests for the host-time benchmark.

    python3 -m unittest discover -s hostbench/tests -v

The seed-plumbing test builds vcb_host (like run.py does) and runs the
`townhall` workload three times, a few seconds each.
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
BENCHMARK = run.ROOT / "BENCHMARK.json"


class MetricNameGrammar(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
        for name in run.WORKLOADS:
            self.assertRegex(name, NAME)

    def test_reconciled_terms_are_layer_metrics(self):
        for term in run.HOST_TERMS:
            self.assertIn(term, run.PER_LAYER)
            self.assertEqual(run.PER_LAYER[term], "s")


class BenchmarkJsonSchema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        raw = BENCHMARK.read_text()
        cls.size = len(raw.encode())
        cls.doc = json.loads(raw)

    def test_top_level(self):
        d = self.doc
        self.assertLessEqual(self.size, 64 * 1024)
        self.assertEqual(set(d), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertIsInstance(d["run_seconds"], int)
        self.assertTrue(1 <= d["run_seconds"] <= 60)

    def test_command_and_paths(self):
        d = self.doc
        self.assertTrue(1 <= len(d["command"]) <= 32)
        for arg in d["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        self.assertTrue(1 <= len(d["paths"]) <= 16)
        for p in d["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue((run.ROOT / p).is_dir())
        # Repo files named by the command live under the benchmark's paths.
        for arg in d["command"][1:]:
            if (run.ROOT / arg).exists():
                self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in d["paths"]))

    def test_workloads(self):
        ws = self.doc["workloads"]
        self.assertTrue(2 <= len(ws) <= 8)
        self.assertEqual([w["name"] for w in ws], list(run.WORKLOADS))
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        d = self.doc
        self.assertTrue(1 <= len(d["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(d["per_layer"]) <= 128)
        names = [m["name"] for m in d["end_to_end"] + d["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in d["end_to_end"]))


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        pct, v = run.tail_percentile(values)
        self.assertEqual((pct, v), (90.0, 90))
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_highest_such_percentile(self):
        for n in (11, 12, 37, 250):
            values = [0.5 * i for i in range(n)]
            pct, v = run.tail_percentile(values)
            self.assertEqual(sum(1 for x in values if x > v), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (0.0, 1.0))
        self.assertEqual(run.tail_percentile([float(i) for i in range(10)]), (0.0, 0.0))


class Reconciliation(unittest.TestCase):
    WALL = 10.0

    def table(self, explained):
        """A layer table whose host terms add up to `explained` seconds."""
        layers = {k: 0.0 for k in run.HOST_TERMS}
        layers["net.host_s"] = explained
        layers["unattributed.host_s"] = self.WALL - explained
        return layers

    def test_partly_explained_wall_passes(self):
        attributed, share, ok = run.reconcile(self.table(9.0), self.WALL)
        self.assertAlmostEqual(attributed, 9.0)
        self.assertAlmostEqual(share, 0.1)
        self.assertTrue(ok)

    def test_over_explained_wall_fails(self):
        _, share, ok = run.reconcile(self.table(11.5), self.WALL)
        self.assertLess(share, run.UNATTRIBUTED_FLOOR)
        self.assertFalse(ok)

    def test_mostly_unexplained_wall_fails(self):
        _, share, ok = run.reconcile(self.table(5.0), self.WALL)
        self.assertGreater(share, run.UNATTRIBUTED_CEILING)
        self.assertFalse(ok)

    def test_reported_residual_must_match(self):
        layers = self.table(9.0)
        layers["unattributed.host_s"] += 0.5
        self.assertFalse(run.reconcile(layers, self.WALL)[2])


class SeedPlumbing(unittest.TestCase):
    def test_seed_changes_outputs_not_metric_set(self):
        run.build()
        a = run.run_vcb_host("townhall", 1, 0.5, 0)
        b = run.run_vcb_host("townhall", 2, 0.5, 0)
        again = run.run_vcb_host("townhall", 1, 0.5, 0)
        for raw in (a, b, again):
            self.assertEqual(raw["e2e"]["failures"], [])
            self.assertTrue(all(raw["e2e"]["checks"].values()))
        self.assertNotEqual(a["e2e"]["output_digest"], b["e2e"]["output_digest"])
        self.assertEqual(a["e2e"]["output_digest"], again["e2e"]["output_digest"])
        self.assertEqual(set(run.e2e_metrics(a)), set(run.e2e_metrics(b)))
        self.assertEqual(set(run.e2e_metrics(a)), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
