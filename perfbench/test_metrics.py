"""Tests for the benchmark's pure metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import metrics


def bucket_lower(value):
    """metrics::Histogram's bucket lower bound for `value`."""
    if value < 16:
        return value
    shift = value.bit_length() - 1 - 4
    return (value >> shift) << shift


def histogram_cdf(samples):
    """The [lower bound, cumulative count] pairs the benchmark binary
    recovers from a metrics::Histogram holding `samples`."""
    counts = {}
    for s in samples:
        counts[bucket_lower(s)] = counts.get(bucket_lower(s), 0) + 1
    cdf, total = [], 0
    for lower in sorted(counts):
        total += counts[lower]
        cdf.append([lower, total])
    return cdf


def histogram_value_at(samples, q):
    """metrics::Histogram::ValueAtQuantile: the bucket lower bound of rank
    floor(q * (n - 1)) + 1."""
    ordered = sorted(samples)
    return bucket_lower(ordered[int(q * (len(ordered) - 1))])


class BucketWidthTest(unittest.TestCase):
    def test_every_value_lies_in_its_bucket(self):
        for value in list(range(0, 300)) + [1_310_000, 65_000_000, 2**40 + 12345]:
            lower = bucket_lower(value)
            self.assertLessEqual(lower, value)
            self.assertLess(value, lower + metrics.bucket_width(lower))

    def test_buckets_tile_the_line(self):
        lower = 16
        while lower < 10**9:
            nxt = lower + metrics.bucket_width(lower)
            self.assertEqual(bucket_lower(nxt), nxt)
            self.assertEqual(bucket_lower(nxt - 1), lower)
            lower = nxt


class PercentileTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(7)
        self.samples = [int(rng.expovariate(1 / 1.3e6)) + 200_000 for _ in range(20000)]
        self.cdf = histogram_cdf(self.samples)

    def test_same_bucket_as_the_histogram(self):
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            value = metrics.percentile(self.cdf, max(self.samples), q)
            self.assertEqual(bucket_lower(int(value)), histogram_value_at(self.samples, q), q)

    def test_close_to_the_exact_percentile(self):
        ordered = sorted(self.samples)
        for q in (0.5, 0.99):
            exact = ordered[round(q * (len(ordered) - 1))]
            value = metrics.percentile(self.cdf, max(self.samples), q)
            self.assertLess(abs(value - exact) / exact, 0.02, q)

    def test_moves_where_the_histogram_sticks(self):
        # Both medians fall in the 990 us bucket, so the histogram reads the
        # same; the share of samples below them differs.
        low = [990_000] * 60 + [1_020_000] * 40
        high = [990_000] * 52 + [1_020_000] * 48
        self.assertEqual(histogram_value_at(low, 0.5), histogram_value_at(high, 0.5))
        self.assertLess(metrics.percentile(histogram_cdf(low), max(low), 0.5),
                        metrics.percentile(histogram_cdf(high), max(high), 0.5))

    def test_never_exceeds_the_maximum(self):
        samples = [1_000_000] * 99 + [1_049_000]
        value = metrics.percentile(histogram_cdf(samples), max(samples), 1.0)
        self.assertLessEqual(value, 1_049_000)

    def test_empty(self):
        self.assertEqual(metrics.percentile([], 0, 0.99), 0.0)


class SamplesBeyondTest(unittest.TestCase):
    def test_counts_the_tail_a_percentile_rests_on(self):
        self.assertEqual(metrics.samples_beyond(4514, 0.99), (45, True))
        self.assertEqual(metrics.samples_beyond(4514, 0.5), (2257, True))

    def test_fewer_than_ten_beyond_is_unsupported(self):
        self.assertEqual(metrics.samples_beyond(940, 0.99), (9, False))
        self.assertEqual(metrics.samples_beyond(1000, 0.99), (10, True))


class OutageTest(unittest.TestCase):
    STEADY = [500] * 60

    def test_in_flight_acks_after_a_crash_are_not_recovery(self):
        # Acks already on the wire land in the first slice after the crash,
        # enough to pass the half-rate threshold on their own.
        slices = self.STEADY + [400] + [0] * 99 + [300, 450] + [500] * 20
        self.assertEqual(metrics.outage_slices(slices, 60), 100)

    def test_recovery_needs_a_sustained_half_rate(self):
        slices = self.STEADY + [0] * 10 + [260, 0, 0] + [240, 200] + [260, 270] + [500] * 5
        # 240 is below half of 500; the first sustained run starts at 260, 270.
        self.assertEqual(metrics.outage_slices(slices, 60), 15)

    def test_baseline_is_the_slices_before_the_crash(self):
        slices = [1000] * 10 + [200] * 50 + [0] * 5 + [120, 120] + [200] * 3
        self.assertEqual(metrics.outage_slices(slices, 60), 5)

    def test_unrecovered_outage_lasts_to_the_window_end(self):
        slices = self.STEADY + [0] * 40
        self.assertEqual(metrics.outage_slices(slices, 60), 40)

    def test_no_service_lost(self):
        self.assertEqual(metrics.outage_slices(self.STEADY + [500] * 10, 60), 0)

    def test_crash_needs_a_baseline(self):
        with self.assertRaises(ValueError):
            metrics.outage_slices([0, 500, 500], 0)


class ResidualTest(unittest.TestCase):
    def test_subtracts_each_layer_cost_times_its_rate(self):
        covered = {"sim": (50.0, 20.0), "net": (140.0, 7.0), "tsdb": (200.0, 3.0)}
        # 13000 - (1000 + 980 + 600)
        self.assertAlmostEqual(metrics.residual_ns_per_req(13000.0, covered), 10420.0)

    def test_unused_layers_cost_nothing(self):
        covered = {"storage": (0.0, 0.0), "nbraft.window": (61.0, 0.0)}
        self.assertEqual(metrics.residual_ns_per_req(9000.0, covered), 9000.0)

    def test_over_coverage_goes_negative(self):
        self.assertLess(metrics.residual_ns_per_req(100.0, {"sim": (60.0, 2.0)}), 0)


if __name__ == "__main__":
    unittest.main()
