"""Self-tests of the benchmark's own statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def raw_record(**over):
    """A minimal raw record as murphy_perfbench prints it."""
    r = {"attempted": 0, "ok": 0, "err_lines": 0, "rejects": 0,
         "deadline": 0, "unanswered": 0, "duplicates": 0, "engine_ok": 0,
         "top3_hits": 0, "top3_base": 0, "latency_ms": [],
         "latency_windows": 1, "lag_ms": [],
         "ingest_ms": [], "ingest_lag_ms": [], "ingest_windows": 1,
         "ingest_mode": "idle",
         "cpu_s": 0.0,
         "setup_s": [1.0], "peak_rss_mb": 1.0, "samples": {}, "values": {}}
    r.update(over)
    return r


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(v, 50), 5)
        self.assertEqual(stats.percentile(v, 90), 9)
        self.assertEqual(stats.percentile(v, 99), 10)
        self.assertEqual(stats.percentile(list(reversed(v)), 50), 5)

    def test_rank_is_exact(self):
        # 97.5 * 400 / 100 is 390 exactly, not 390.00000000000006 -> 391.
        self.assertEqual(stats.rank(400, 97.5), 390)
        self.assertEqual(stats.rank(1000, 99.9), 999)

    def test_empty(self):
        self.assertEqual(stats.percentile([], 50), 0.0)
        self.assertEqual(stats.tail([]), (None, 0.0))


class TailTest(unittest.TestCase):
    def test_at_least_ten_beyond(self):
        cases = {19: None, 20: 50, 39: 50, 40: 75, 52: 75, 99: 75, 100: 90,
                 999: 90, 1000: 99,
                 2800: 99, 9999: 99, 10000: 99.9}
        for n, p in cases.items():
            with self.subTest(n=n):
                self.assertEqual(stats.tail_percentile(n), p)
                if p is not None:
                    self.assertGreaterEqual(stats.beyond(n, p),
                                            stats.MIN_BEYOND)

    def test_highest_qualifying(self):
        # Every ladder step above the chosen one has < 10 samples beyond.
        for n in (20, 57, 104, 400, 1400, 2800, 12345):
            p = stats.tail_percentile(n)
            higher = [q for q in stats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(stats.beyond(n, q), stats.MIN_BEYOND)

    def test_tail_value_has_ten_samples_above(self):
        v = [float(i) for i in range(1, 101)]  # 100 samples
        p, value = stats.tail(v)
        self.assertEqual((p, value), (90, 90.0))
        self.assertEqual(sum(1 for x in v if x > value), 10)

    def test_too_few_samples_reports_max(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (None, 3.0))


class WindowTest(unittest.TestCase):
    def test_split_is_consecutive_and_even(self):
        parts = stats.windows(list(range(10)), 3)
        self.assertEqual(parts, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]])
        self.assertEqual(stats.windows([1.0], 5), [[1.0]])

    def test_median_of_window_values(self):
        # Five windows of 100; one slow stretch lands in a single window and
        # does not move the reported median.
        fast = [float(i % 100) for i in range(400)]
        slow = [1000.0 + i for i in range(100)]
        value, note = stats.windowed(fast[:200] + slow + fast[200:], 5)
        self.assertEqual(value, 89.0)  # p90 of 0..99 in four windows
        self.assertIn("median of 5 windows, p90 of n=100", note)
        p50, _ = stats.windowed(fast, 4, 50)
        self.assertEqual(p50, 49.0)

    def test_one_window_is_the_plain_statistic(self):
        v = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.windowed(v, 1), (90.0, "p90 of n=100"))
        self.assertEqual(stats.windowed([], 3), (0.0, "no samples"))


class ErrorFracTest(unittest.TestCase):
    def test_terms(self):
        raw = raw_record(attempted=100, ok=90, err_lines=1, rejects=2,
                         deadline=3, unanswered=4, duplicates=7)
        # Duplicates are a check failure, not an extra failed attempt.
        self.assertEqual(stats.error_count(raw), 10)
        self.assertAlmostEqual(stats.error_frac(raw), 0.1)
        m = stats.end_to_end(raw)
        self.assertAlmostEqual(m["ok_frac"][0], 0.9)

    def test_no_attempts(self):
        self.assertEqual(stats.error_frac(raw_record()), 0.0)


class RatioBaseTest(unittest.TestCase):
    def test_empty_base_is_zero(self):
        self.assertEqual(stats.ratio(5.0, 0), 0.0)
        self.assertEqual(stats.mean([]), 0.0)

    def test_end_to_end_bases(self):
        raw = raw_record(attempted=4, ok=4, engine_ok=5, cpu_s=2.0,
                         top3_hits=3, top3_base=4,
                         latency_ms=[1.0, 2.0, 3.0, 4.0],
                         setup_s=[0.3, 0.1, 0.2])
        m = stats.end_to_end(raw)
        # CPU is divided by every OK engine run, not by wire OK lines.
        self.assertAlmostEqual(m["cpu_ms_per_diagnose"][0], 400.0)
        self.assertAlmostEqual(m["top3_hit_frac"][0], 0.75)
        self.assertEqual(m["setup_s"][0], 0.2)
        self.assertEqual(m["diagnose_p50_ms"][0], 2.0)

    def test_per_layer_bases(self):
        values = {"engine.diagnoses": 4, "diagnose.calls": 5,
                  "phase.infer_ms": 8.0, "phase.graph_ms": 2.0,
                  "infer.kernel_cells": 4e6, "train.corr_cells": 50,
                  "cache.factor_hits": 3, "cache.factor_misses": 1,
                  "service.queue_ms.sum": 6.0, "service.queue_ms.count": 3,
                  "service.run_ms.sum": 15.0, "service.run_ms.count": 3,
                  "watchdog.scan_ns": 1000.0, "watchdog.scan_cells": 100,
                  "stream.append_us": 30.0, "stream.append_cells": 10}
        samples = {"service.rtt_minus_run_ms": [3.0, 5.0]}
        traced = raw_record(values=values, samples=samples,
                            latency_ms=[11.0], lag_ms=[0.5, 2.0])
        untraced = raw_record(latency_ms=[10.0])
        m = stats.per_layer(traced, untraced)
        self.assertAlmostEqual(m["infer.ms_mean"][0], 2.0)    # / spans
        self.assertAlmostEqual(m["graph.ms_mean"][0], 0.5)
        self.assertAlmostEqual(m["train.corr_cells_per_diag"][0], 10.0)
        self.assertAlmostEqual(m["infer.ns_per_kernel_cell"][0], 2.0)
        self.assertAlmostEqual(m["cache.factor_hit_frac"][0], 0.75)
        self.assertEqual(m["cache.window_hit_frac"][0], 0.0)  # no lookups
        self.assertAlmostEqual(m["service.queue_ms_mean"][0], 2.0)
        self.assertAlmostEqual(m["service.wire_overhead_ms"][0], 2.0)
        self.assertAlmostEqual(m["service.phase_cover_frac"][0], 0.5)
        self.assertAlmostEqual(m["watchdog.ns_per_cell"][0], 10.0)
        self.assertAlmostEqual(m["stream.append_us_per_cell"][0], 3.0)
        self.assertAlmostEqual(m["trace.overhead_frac"][0], 0.1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        raw = raw_record(latency_ms=[1.0], ingest_ms=[1.0])
        produced = {
            "end_to_end": stats.end_to_end(raw),
            "per_layer": stats.per_layer(raw, raw),
        }
        for section, metrics in produced.items():
            with self.subTest(section=section):
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {name: unit for name, (_, unit, _) in metrics.items()}
                self.assertEqual(got, want)

    def test_all_runs_the_named_workloads(self):
        import run
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(list(run.WORKLOADS),
                         [w["name"] for w in spec["workloads"]])


if __name__ == "__main__":
    unittest.main()
