#!/usr/bin/env python3
"""Self-tests of the benchmark harness logic. Run: python3 e2ebench/test_run.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class StreamSplit(unittest.TestCase):
    def test_every_request_goes_to_exactly_one_connection_in_order(self):
        for n in (0, 1, 2, 7, 1000):
            parts = run.split_round_robin(n, 2)
            self.assertEqual(len(parts), 2)
            self.assertEqual(sorted(i for p in parts for i in p), list(range(n)))
            for p in parts:
                self.assertEqual(p, sorted(p))

    def test_split_never_exceeds_the_connection_count(self):
        self.assertEqual(run.split_round_robin(5, 2), [[0, 2, 4], [1, 3]])
        self.assertEqual(run.EXPLORE_CONNECTIONS, 2)


class RepeatClassification(unittest.TestCase):
    def test_first_occurrence_is_not_a_repeat(self):
        keys = ["a", "b", "a", "c", "b", "a"]
        self.assertEqual(
            run.classify_repeats(keys), [False, False, True, False, True, True]
        )

    def test_distinct_plus_repeats_is_the_stream(self):
        keys = [f"k{i % 7}" for i in range(50)]
        repeats = run.classify_repeats(keys)
        self.assertEqual(len(repeats) - sum(repeats), len(set(keys)))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([5.0], 99), 5.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(999, 99), 9)
        run.tail_percentile(list(range(1000)), 99)
        with self.assertRaises(run.BenchError):
            run.tail_percentile(list(range(999)), 99)

    def test_sizing_always_supports_p99(self):
        for seconds in range(1, 61):
            n = run.explore_requests(seconds)
            self.assertGreaterEqual(run.samples_beyond(n, 99), 10)
        # batch_warm takes its percentiles within each session.
        self.assertGreaterEqual(run.samples_beyond(run.BATCH_REQUESTS, 99), 10)

    def test_failed_requests_miss_every_limit(self):
        lat = [1.0] * 98 + [2.0, 3.0]
        charged = run.with_failures(lat, [False] * 97 + [True] + [False] * 2, 1e6)
        self.assertEqual(run.percentile(charged, 99), 3.0)
        self.assertEqual(max(charged), 1e6)


if __name__ == "__main__":
    unittest.main()
