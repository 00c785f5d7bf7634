"""Self-tests of the benchmark's order statistics."""

import statistics
import unittest

import stats


class StatsTest(unittest.TestCase):
    def test_quartiles_match_the_standard_library(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_iqr_frac_is_a_share_of_the_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.iqr_frac(xs), (q3 - q1) / q2)
        self.assertEqual(stats.iqr_frac([3.0, 3.0, 3.0]), 0.0)

    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 50), 7)

    def test_tail_keeps_ten_samples_beyond_it(self):
        xs = [float(i) for i in range(1, 1001)]
        p, v = stats.tail(xs)
        self.assertAlmostEqual(p, 99.0)
        self.assertEqual(v, 990.0)
        self.assertEqual(sum(1 for x in xs if x > v), 10)
        # 320 samples: the 310th smallest, the 96.875th percentile.
        p, v = stats.tail([float(i) for i in range(320)])
        self.assertAlmostEqual(p, 96.875)
        self.assertEqual(v, 309.0)

    def test_tail_of_a_small_sample_is_its_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(stats.tail([float(i) for i in range(10)]), (100.0, 9.0))

    def test_summary(self):
        s = stats.summary([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((s["n"], s["min"], s["max"], s["median"]), (4, 1.0, 4.0, 2.5))
        self.assertEqual((s["q1"], s["q3"]), tuple(statistics.quantiles([1, 2, 3, 4], n=4))[::2])


if __name__ == "__main__":
    unittest.main()
