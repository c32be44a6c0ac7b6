"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchlib as bl  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(bl.nearest_rank(values, 50), 3.0)
        self.assertEqual(bl.nearest_rank(values, 0), 1.0)
        self.assertEqual(bl.nearest_rank(values, 100), 5.0)
        self.assertEqual(bl.nearest_rank(values, 80), 4.0)
        self.assertEqual(bl.nearest_rank(values, 81), 5.0)

    def test_median_of_even_count_is_lower_middle(self):
        self.assertEqual(bl.median([4.0, 1.0, 3.0, 2.0]), 2.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.nearest_rank([], 50)

    def test_ten_samples_beyond_rule(self):
        # p95 of 200 leaves exactly 10 samples above it; of 199 only 9.
        self.assertEqual(bl.samples_beyond(200, 95), 10)
        self.assertTrue(bl.reportable(200, 95))
        self.assertEqual(bl.samples_beyond(199, 95), 9)
        self.assertFalse(bl.reportable(199, 95))
        self.assertTrue(bl.reportable(1000, 99))
        self.assertFalse(bl.reportable(999, 99))


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent, request=0):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "request": request}

    def test_nested_spans(self):
        spans = [
            self.span("run", 0.0, 10.0, -1),
            self.span("graph.parse", 1.0, 4.0, 0),
            self.span("hde.components_layout", 4.0, 9.0, 0),
            self.span("bfs.phase", 5.0, 7.0, 2),
            self.span("linalg.spmm", 7.5, 8.0, 2),
        ]
        self.assertEqual(bl.self_times(spans), [2.0, 3.0, 2.5, 2.0, 0.5])
        by_name = bl.self_time_by_name(spans)
        self.assertEqual(by_name["hde.components_layout"], 2.5)
        self.assertEqual(bl.duration_by_name(spans)["hde.components_layout"],
                         5.0)

    def test_overlapping_children_are_not_double_counted(self):
        spans = [
            self.span("outer", 0.0, 4.0, -1),
            self.span("a", 0.5, 2.0, 0),
            self.span("b", 1.5, 3.0, 0),
            self.span("c", 3.5, 6.0, 0),  # runs past its parent's end
        ]
        self.assertAlmostEqual(bl.self_times(spans)[0], 4.0 - 2.5 - 0.5)

    def test_per_request_totals(self):
        spans = [
            self.span("graph.parse", 0.0, 1.0, -1, request=0),
            self.span("graph.parse", 2.0, 5.0, -1, request=1),
        ]
        self.assertEqual(bl.self_time_by_name(spans, 1)["graph.parse"], 3.0)
        self.assertEqual(bl.self_time_by_name(spans)["graph.parse"], 4.0)


class LadderTest(unittest.TestCase):
    def test_rates(self):
        self.assertEqual([bl.ladder_rate(i) for i in range(5)],
                         [12.0, 18.0, 27.0, 40.0, 60.0])

    def test_first_two_steps_always_run(self):
        self.assertTrue(bl.ladder_continues([]))
        self.assertTrue(bl.ladder_continues([False]))
        self.assertFalse(bl.ladder_continues([False, True]))

    def test_stops_at_first_failure_above_mandatory(self):
        self.assertTrue(bl.ladder_continues([True, True, True]))
        self.assertFalse(bl.ladder_continues([True, True, False]))

    def test_max_rate_is_the_passing_prefix(self):
        self.assertEqual(bl.ladder_max_rate([True, True, True, False]), 27.0)
        self.assertEqual(bl.ladder_max_rate([True, False]), 12.0)
        self.assertEqual(bl.ladder_max_rate([False, True]), 0.0)

    def test_step_limit(self):
        fast = [0.05] * 100
        self.assertTrue(bl.step_passes(fast, failed=0))
        self.assertFalse(bl.step_passes(fast, failed=1))
        slow_tail = [0.05] * 90 + [0.3] * 10
        self.assertFalse(bl.step_passes(slow_tail, failed=0))

    def test_growing_backlog_fails_below_the_latency_limit(self):
        growing = [0.01 + 0.0022 * i for i in range(100)]  # 0.01 .. 0.228 s
        self.assertTrue(bl.backlog_growing(growing))
        self.assertFalse(bl.step_passes(growing, failed=0))
        self.assertFalse(bl.backlog_growing([0.05, 0.09] * 50))


class CheckTest(unittest.TestCase):
    def test_good_coords(self):
        self.assertEqual(bl.check_coords("0.5 1\n-2e-3 3\n", 2), [])

    def test_truncated_coords_rejected(self):
        self.assertTrue(bl.check_coords("0.5 1\n", 2))
        self.assertTrue(bl.check_coords("0.5 1\n2", 2))

    def test_nan_coords_rejected(self):
        self.assertTrue(bl.check_coords("0.5 1\nnan 3\n", 2))
        self.assertTrue(bl.check_coords("0.5 inf\n1 3\n", 2))
        self.assertTrue(bl.check_coords("0.5 x\n1 3\n", 2))

    def test_report(self):
        report = {"graph": {"vertices": 7},
                  "metrics": {"effective_pivots": 10}}
        self.assertEqual(bl.check_report(report, 10, 7), [])
        self.assertTrue(bl.check_report(report, 50, 7))
        self.assertTrue(bl.check_report(report, 10, 8))

    def test_energy(self):
        self.assertEqual(bl.check_energy(1.0 + 1e-9, 1.0, 1e-6), [])
        self.assertTrue(bl.check_energy(1.0 + 1e-5, 1.0, 1e-6))
        self.assertTrue(bl.check_energy(math.nan, 1.0, 1e-6))

    def test_non_ok_response_rejected(self):
        ok = {"status": "ok", "report": {"graph": {"vertices": 3600}}}
        self.assertEqual(bl.check_response(ok, 3600), [])
        self.assertTrue(bl.check_response(ok, 3599))
        self.assertTrue(bl.check_response(
            {"status": "overloaded", "error": {"code": "overloaded"}}, 3600))
        self.assertTrue(bl.check_response(None, 3600))


class CompareTest(unittest.TestCase):
    FP = {"nproc": 4, "omp_env": {}, "compiler": "12.2.0",
          "build_type": "release", "cpu_model": "x", "commit": "a"}

    def result(self, value, **fp):
        return {"fingerprint": dict(self.FP, **fp),
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    def test_same_fingerprint_diffs(self):
        rows = bl.compare_results(self.result(1.0),
                                  self.result(1.1, commit="b"))
        self.assertEqual(rows[0][:4], ("wall_s", "s", 1.0, 1.1))
        self.assertAlmostEqual(rows[0][4], 0.1)

    def test_different_fingerprint_is_incomparable(self):
        self.assertIsNone(bl.compare_results(self.result(1.0),
                                             self.result(1.0, nproc=8)))
        self.assertIsNone(bl.compare_results(
            self.result(1.0),
            self.result(1.0, omp_env={"OMP_NUM_THREADS": "2"})))


if __name__ == "__main__":
    unittest.main()
