"""Self-tests of perfbench's statistics, naming and workload plans.

    python3 perfbench/run.py --self-test
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
from collections import Counter
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from run import END_TO_END, PER_LAYER, stolen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_leaves_at_least_ten_and_five_percent_beyond(self):
        for n in (20, 49, 50, 80, 99, 100, 120, 199, 200, 1000, 2500, 9999, 10000, 50000):
            p = stats.tail_percentile(n)
            need = max(10, n / 20)
            self.assertGreaterEqual(n * (100 - p) / 100, need - 1e-9, (n, p))
            higher = [q for q in stats.TAIL_LADDER if q > p]
            if higher:  # the next rung up would leave too few
                self.assertLess(n * (100 - min(higher)) / 100, need, (n, p))

    def test_known_rungs(self):
        self.assertEqual(stats.tail_percentile(50), 80.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(180), 90.0)
        self.assertEqual(stats.tail_percentile(2500), 95.0)
        self.assertEqual(stats.tail_percentile(50000), 95.0)
        self.assertEqual(stats.tail_percentile(10000, min_share=0.0), 99.9)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(19)


class MedianAndQuartiles(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(values, 80), 4.2)
        self.assertEqual(stats.percentile(values, 50), stats.median(values))

    def test_quartiles_match_statistics(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(stats.percentile(values, 25), q1)
        self.assertAlmostEqual(stats.percentile(values, 50), q2)
        self.assertAlmostEqual(stats.percentile(values, 75), q3)
        self.assertAlmostEqual(stats.median(values), q2)


class Naming(unittest.TestCase):
    def test_name_grammar(self):
        for good in ("setup_s", "graph_cache.hit.us_per_call", "core.k_out.speedup_4t",
                     "a-b.c_1"):
            self.assertTrue(stats.NAME_RE.match(good), good)
        for bad in ("", "has space", "slash/name", "_lead", "x" * 65, "ünï"):
            self.assertFalse(stats.NAME_RE.match(bad), bad)

    def test_every_metric_has_a_valid_name_and_unit(self):
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            stats.check_metrics({name: {"value": 1.0, "unit": unit}})
        self.assertTrue(set(END_TO_END).isdisjoint(PER_LAYER))

    def test_check_metrics_rejects(self):
        for bad in ({"x": {"value": 1.0}}, {"x": {"value": 1.0, "unit": ""}},
                    {"x": {"value": math.nan, "unit": "ms"}},
                    {"x y": {"value": 1.0, "unit": "ms"}}):
            with self.assertRaises(ValueError):
                stats.check_metrics(bad)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Plans(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in WORKLOADS.values():
            a = w.plan(7, 10, smoke=True, trace=False)
            b = w.plan(7, 10, smoke=True, trace=False)
            self.assertEqual(a, b, w.name)
            self.assertNotEqual(a.timed, w.plan(8, 10, smoke=True, trace=False).timed)

    def test_work_is_fixed_by_seconds_not_time(self):
        for w in WORKLOADS.values():
            n = len(w.plan(1, 10, smoke=False, trace=False).timed)
            least = max(50, round(10 * w.rate))
            if w.name == "large_warm":  # rounded up to whole rounds of 12 pairs
                self.assertEqual(n, -(-least // 12) * 12)
            else:
                self.assertEqual(n, least, w.name)

    def test_large_warm_runs_every_pair_equally_often(self):
        for seed in (1, 2, 3):
            timed = WORKLOADS["large_warm"].plan(seed, 10, smoke=False, trace=False).timed
            pairs = Counter(" ".join(line.split()[:2]) for line in timed)
            self.assertEqual(len(pairs), 12)
            self.assertEqual(set(pairs.values()), {len(timed) // 12})

    def test_layouts_fit_four_cores(self):
        for w in WORKLOADS.values():
            self.assertLessEqual(w.threads_needed(), 4, w.name)

    def test_cold_build_instances_are_distinct(self):
        plan = WORKLOADS["cold_build"].plan(3, 10, smoke=False, trace=False)
        inputs = [line.split()[0]
                  for line in plan.probes + plan.discard + plan.timed + plan.retry]
        self.assertEqual(len(inputs), len(set(inputs)))

    def test_retry_repeats_the_timed_work(self):
        for w in WORKLOADS.values():
            plan = w.plan(5, 10, smoke=False, trace=False)
            self.assertEqual(len(plan.retry), len(plan.timed), w.name)

    def test_sweep_instance_is_pinned(self):
        family = {"serve_tiny": "er", "large_warm": "er", "cold_build": "planted",
                  "store_restart": "planted"}
        for w in WORKLOADS.values():
            for seed in range(1, 6):
                sweep = w.plan(seed, 10, smoke=False, trace=True).sweep
                self.assertTrue(sweep.startswith(f"input=gen:{family[w.name]}:n="),
                                (w.name, seed, sweep))


class StealGate(unittest.TestCase):
    def phase(self, steal, total):
        return {"host": {"steal_ticks_delta": steal, "total_ticks_delta": total}}

    def test_repeats_only_a_phase_with_real_steal(self):
        self.assertFalse(stolen(self.phase(0, 4000)))
        self.assertFalse(stolen(self.phase(60, 4000)))   # 1.5%
        self.assertTrue(stolen(self.phase(300, 4000)))   # 7.5%
        self.assertFalse(stolen(self.phase(3, 40)))      # a few ticks of a short phase


if __name__ == "__main__":
    unittest.main()
